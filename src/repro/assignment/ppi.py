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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.assignment.hungarian import maximum_weight_matching
from repro.assignment.matching_rate import feasible_prediction_points, theorem2_bound
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.sc.entities import SpatialTask, WorkerSnapshot

#: A max-weight bipartite matcher over ``(left, right, weight)`` edges.
#: Must reproduce :func:`maximum_weight_matching`'s contract: a matching
#: of maximum total weight, emitted in ascending left-id order.  The
#: default is the dense Hungarian solver; :mod:`repro.dist.shard`
#: substitutes a connected-component decomposition that solves each
#: component independently (exact whenever the optimum is unique, which
#: generic float weights make the ordinary case).
Matcher = Callable[[Sequence[tuple[int, int, float]]], list[tuple[int, int, float]]]


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
    call (see :data:`Matcher`); the stage-2 control flow (score
    ordering, epsilon chunking) stays on this code path regardless,
    because it is order-sensitive and must run globally.
    """
    cfg = config if config is not None else PPIConfig()
    solve = matcher if matcher is not None else maximum_weight_matching
    plan = AssignmentPlan()
    if not tasks or not workers:
        return plan

    # ------------------------------------------------------------------
    # Stage 1 (lines 1-12): certain pairs straight to KM.
    # ------------------------------------------------------------------
    stage1_edges: list[tuple[int, int, float]] = []
    deferred: list[_Candidate] = []
    task_by_id = {t.task_id: t for t in tasks}
    worker_by_id = {w.worker_id: w for w in workers}

    def workers_for(task: SpatialTask) -> Sequence[WorkerSnapshot] | Iterator[WorkerSnapshot]:
        if candidates is None:
            return workers
        return (worker_by_id[w_id] for w_id in candidates.get(task.task_id, ()))

    assigned_tasks: set[int] = set()
    assigned_workers: set[int] = set()

    with obs.span("ppi.stage1", tasks=len(tasks), workers=len(workers)) as s1:
        for task in tasks:
            tloc = np.array([task.location.x, task.location.y])
            for worker in workers_for(task):
                bound = theorem2_bound(
                    worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
                )
                if bound <= 0 or len(worker.predicted_xy) == 0:
                    continue
                b_set = feasible_prediction_points(worker.predicted_xy, tloc, cfg.a, bound)
                score = len(b_set) * worker.matching_rate
                min_b = float(b_set.min()) if len(b_set) else np.inf
                if score >= 1.0:
                    stage1_edges.append((task.task_id, worker.worker_id, 1.0 / (min_b + cfg.eps_weight)))
                else:
                    deferred.append(
                        _Candidate(task_id=task.task_id, worker_id=worker.worker_id, score=score, min_b=min_b)
                    )

        for t_id, w_id, weight in solve(stage1_edges):
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
        deferred.sort(key=lambda c: c.score, reverse=True)
        chunk: list[tuple[int, int, float]] = []

        def flush_chunk() -> None:
            if not chunk:
                return
            obs.counter("ppi.stage2.chunks")
            for t_id, w_id, weight in solve(chunk):
                if t_id in assigned_tasks or w_id in assigned_workers:
                    continue
                plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=2))
                assigned_tasks.add(t_id)
                assigned_workers.add(w_id)
            chunk.clear()

        for cand in deferred:
            if not np.isfinite(cand.min_b):
                # Sorted descending: every later candidate also has empty B.
                break
            if cand.task_id in assigned_tasks or cand.worker_id in assigned_workers:
                continue
            chunk.append((cand.task_id, cand.worker_id, 1.0 / (cand.min_b + cfg.eps_weight)))
            if len(chunk) >= cfg.epsilon:
                flush_chunk()
        flush_chunk()
        stage2_assigned = len(plan) - stage2_before
        obs.counter("ppi.stage2.assigned", stage2_assigned)
        s2.set(assigned=stage2_assigned)

    # ------------------------------------------------------------------
    # Stage 3 (lines 28-34): remaining pairs by plain predicted proximity.
    # ------------------------------------------------------------------
    with obs.span("ppi.stage3") as s3:
        stage3_before = len(plan)
        stage3_edges: list[tuple[int, int, float]] = []
        for task in tasks:
            if task.task_id in assigned_tasks:
                continue
            tloc = np.array([task.location.x, task.location.y])
            for worker in workers_for(task):
                if worker.worker_id in assigned_workers:
                    continue
                if len(worker.predicted_xy) == 0:
                    continue
                bound = theorem2_bound(
                    worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
                )
                if bound <= 0:
                    continue
                dists = np.sqrt(((worker.predicted_xy - tloc) ** 2).sum(axis=1))
                dis_min = float(dists.min())
                if dis_min <= bound:
                    stage3_edges.append((task.task_id, worker.worker_id, 1.0 / (dis_min + cfg.eps_weight)))
        for t_id, w_id, weight in solve(stage3_edges):
            plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=3))
            assigned_tasks.add(t_id)
            assigned_workers.add(w_id)
        stage3_assigned = len(plan) - stage3_before
        obs.counter("ppi.stage3.assigned", stage3_assigned)
        s3.set(candidates=len(stage3_edges), assigned=stage3_assigned)

    # Sanity: the plan only references known ids.
    assert plan.task_ids() <= set(task_by_id)
    assert plan.worker_ids() <= set(worker_by_id)
    return plan
