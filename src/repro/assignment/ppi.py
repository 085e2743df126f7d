"""Prediction Performance-Involved task assignment (Algorithm 4).

PPI assigns in three stages of decreasing completion confidence:

1. pairs whose expected completion opportunities ``|B| * MR`` reach 1
   (near-certain) are matched first with one KM call;
2. the remaining pairs with non-empty ``B`` are processed in descending
   ``|B| * MR`` order, calling KM on every chunk of ``epsilon``
   candidates and removing matched tasks/workers between chunks;
3. leftover tasks/workers are matched by plain predicted proximity
   under the Theorem 2 radius.

Decomposing the matching this way can only lose quality against a
single global KM *when trajectories are exact* — the point of the paper
is that under uncertain predictions, spending reliable workers on
reliable pairs first lowers the rejection rate (Section III-D,
Discussion).

Every pair is tested once, by
:func:`~repro.assignment.matching_rate.pair_scan`, which yields ``|B|``,
min B and the nearest distance; stage 3 reads the nearest distances
stage 1 kept instead of walking the pairs again.  Every "call KM" goes
through :func:`~repro.assignment.hungarian.solve_matching`: most stage-2
chunks are star forests (each worker in one edge), whose optimum is
each task's heaviest edge and needs no solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Mapping, Sequence

from repro import obs
from repro.assignment.hungarian import Matcher, maximum_weight_matching, solve_matching
from repro.assignment.matching_rate import pair_scan
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.sc.entities import SpatialTask, WorkerSnapshot


@dataclass(frozen=True, slots=True)
class PPIConfig:
    """Tunables of Algorithm 4.

    Attributes
    ----------
    a:
        Matching-rate distance threshold (Def. 7), in km.
    epsilon:
        Stage-2 chunk size: KM is invoked after every ``epsilon``
        accepted candidates.
    eps_weight:
        Guard against division by zero when a predicted point coincides
        with the task location.
    """

    a: float = 0.3
    epsilon: int = 8
    eps_weight: float = 1e-6

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("a must be non-negative")
        if self.epsilon < 1:
            raise ValueError("epsilon must be a positive integer")


@dataclass(frozen=True, slots=True)
class _Candidate:
    """A deferred (B, tau, w) entry of Algorithm 4's second stage."""

    task_id: int
    worker_id: int
    score: float  # |B| * MR
    min_b: float  # min distance in B (inf when B is empty)


def _stage2_order(cand: _Candidate) -> float:
    """Stage 2's descending sort key: the score, with empty B below every score."""
    return cand.score if cand.min_b != inf else -1.0


#: A sparse candidate graph: ``task_id -> worker ids to consider``, in
#: the priority order the dense path would have visited them (snapshot
#: order).  Pairs absent from the graph are never matched, so builders
#: must produce a superset of the Theorem-2-feasible pairs for the
#: result to match the dense path exactly (see
#: :func:`repro.serve.spatial_index.build_candidates`).
CandidateGraph = Mapping[int, Sequence[int]]


def ppi_assign(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    candidates: CandidateGraph | None = None,
    *,
    config: PPIConfig | None = None,
    matcher: Matcher | None = None,
) -> AssignmentPlan:
    """Run Algorithm 4, over every pair or a sparse candidate graph.

    ``candidates`` restricts each task to a subset of workers (``None``
    means the dense W x T pair space).  When the graph contains every
    pair within the Theorem 2 radius, the plan is identical to the
    dense one — only the pairs PPI would have discarded anyway are
    skipped.  ``matcher`` substitutes the KM solver for every matching
    call that needs a solve (see :data:`Matcher`; empty and star-forest
    edge lists are answered by :func:`solve_matching`); the stage-2
    control flow (score ordering, epsilon chunking) stays on this code
    path regardless, because it is order-sensitive and must run
    globally.
    """
    cfg = config if config is not None else PPIConfig()
    solve = matcher if matcher is not None else maximum_weight_matching
    plan = AssignmentPlan()
    if not tasks or not workers:
        return plan

    eps_weight = cfg.eps_weight
    assigned_tasks: set[int] = set()
    assigned_workers: set[int] = set()

    # ------------------------------------------------------------------
    # Stage 1 (lines 1-12): certain pairs straight to KM.  The scan's
    # nearest distance is kept for stage 3, for the pairs stage 3 could
    # match (nearest <= bound).
    # ------------------------------------------------------------------
    stage1_edges: list[tuple[int, int, float]] = []
    deferred: list[_Candidate] = []
    nearest_by_pair: dict[tuple[int, int], float] = {}

    with obs.span("ppi.stage1", tasks=len(tasks), workers=len(workers)) as s1:
        for t_id, w_id, mr, b_size, min_b, nearest in pair_scan(
            tasks, workers, current_time, cfg.a, candidates
        ):
            score = b_size * mr
            if score >= 1.0:
                stage1_edges.append((t_id, w_id, 1.0 / (min_b + eps_weight)))
            else:
                deferred.append(_Candidate(task_id=t_id, worker_id=w_id, score=score, min_b=min_b))
            if nearest != inf:
                nearest_by_pair[t_id, w_id] = nearest

        for t_id, w_id, weight in solve_matching(stage1_edges, solve):
            plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=1))
            assigned_tasks.add(t_id)
            assigned_workers.add(w_id)
        obs.counter("ppi.stage1.assigned", len(assigned_tasks))
        obs.histogram("ppi.stage1.candidates", len(stage1_edges))
        s1.set(candidates=len(stage1_edges), assigned=len(assigned_tasks))

    # ------------------------------------------------------------------
    # Stage 2 (lines 13-27): descending-confidence chunks of epsilon.
    # ------------------------------------------------------------------
    with obs.span("ppi.stage2", deferred=len(deferred)) as s2:
        stage2_before = len(plan)
        # Every pair with a non-empty B goes to stage 2, MR = 0 included:
        # at equal score, non-empty B sorts first, so the empty-B pairs
        # form the tail.
        deferred.sort(key=_stage2_order, reverse=True)
        chunk: list[tuple[int, int, float]] = []

        def flush_chunk() -> None:
            if not chunk:
                return
            obs.counter("ppi.stage2.chunks")
            for t_id, w_id, weight in solve_matching(chunk, solve):
                if t_id in assigned_tasks or w_id in assigned_workers:
                    continue
                plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=2))
                assigned_tasks.add(t_id)
                assigned_workers.add(w_id)
            chunk.clear()

        for cand in deferred:
            if cand.min_b == inf:
                # Sorted: every later candidate also has empty B.
                break
            if cand.task_id in assigned_tasks or cand.worker_id in assigned_workers:
                continue
            chunk.append((cand.task_id, cand.worker_id, 1.0 / (cand.min_b + eps_weight)))
            if len(chunk) >= cfg.epsilon:
                flush_chunk()
        flush_chunk()
        stage2_assigned = len(plan) - stage2_before
        obs.counter("ppi.stage2.assigned", stage2_assigned)
        s2.set(assigned=stage2_assigned)

    # ------------------------------------------------------------------
    # Stage 3 (lines 28-34): remaining pairs by plain predicted proximity,
    # on the nearest distances stage 1 kept, in its task-then-worker order.
    # ------------------------------------------------------------------
    with obs.span("ppi.stage3") as s3:
        stage3_before = len(plan)
        stage3_edges = [
            (t_id, w_id, 1.0 / (nearest + eps_weight))
            for (t_id, w_id), nearest in nearest_by_pair.items()
            if t_id not in assigned_tasks and w_id not in assigned_workers
        ]
        for t_id, w_id, weight in solve_matching(stage3_edges, solve):
            plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=3))
            assigned_tasks.add(t_id)
            assigned_workers.add(w_id)
        stage3_assigned = len(plan) - stage3_before
        obs.counter("ppi.stage3.assigned", stage3_assigned)
        s3.set(candidates=len(stage3_edges), assigned=stage3_assigned)

    # Sanity: the plan only references known ids.
    assert plan.task_ids() <= {t.task_id for t in tasks}
    assert plan.worker_ids() <= {w.worker_id for w in workers}
    return plan
