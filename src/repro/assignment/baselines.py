"""Baseline assignment algorithms: KM, UB, and LB (Section IV-A).

* ``km_assign`` builds the bipartite graph the way PPI's third stage
  does (plain predicted proximity under the Theorem 2 radius, from
  :func:`~repro.assignment.matching_rate.pair_scan`) and solves one
  global KM matching.  With the MSE-trained predictor this
  is the paper's ``KM-loss``; with the task-oriented loss it is ``KM``.
* ``upper_bound_assign`` is the oracle: it checks constraints against
  the worker's *real* future trajectory and weights edges by the
  reciprocal of the real insertion detour, so its rejection rate is 0
  by construction.
* ``lower_bound_assign`` ignores mobility entirely and matches on the
  worker's current location only.
"""

from __future__ import annotations

from math import inf
from typing import Sequence

import numpy as np

from repro.assignment.hungarian import Matcher, maximum_weight_matching, solve_matching
from repro.assignment.matching_rate import pair_scan, theorem2_bound
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.assignment.ppi import CandidateGraph
from repro.sc.entities import SpatialTask, WorkerSnapshot

_EPS = 1e-6


def _solve(
    edges: list[tuple[int, int, float]],
    stage: int = 0,
    matcher: Matcher | None = None,
) -> AssignmentPlan:
    solve = matcher if matcher is not None else maximum_weight_matching
    plan = AssignmentPlan()
    for t_id, w_id, weight in solve_matching(edges, solve):
        plan.add(AssignmentPair(task_id=t_id, worker_id=w_id, score=weight, stage=stage))
    return plan


def km_assign(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    candidates: CandidateGraph | None = None,
    *,
    matcher: Matcher | None = None,
) -> AssignmentPlan:
    """One global KM matching on predicted proximity (stage-3 graph).

    ``candidates`` maps ``task_id`` to the worker ids worth considering
    (``None`` means every pair).  Because the dense path already prunes
    pairs beyond the Theorem 2 radius, any candidate graph covering
    that radius yields the identical matching.  ``matcher`` substitutes
    the solver (see :data:`repro.assignment.hungarian.Matcher`).
    """
    # KM reads only the nearest distance, so the threshold ``a`` of |B| is moot.
    edges = [
        (t_id, w_id, 1.0 / (nearest + _EPS))
        for t_id, w_id, _mr, _b_size, _min_b, nearest in pair_scan(
            tasks, workers, current_time, 0.0, candidates
        )
        if nearest != inf
    ]
    return _solve(edges, matcher=matcher)


def upper_bound_assign(
    tasks: Sequence[SpatialTask],
    oracle_workers: Sequence[WorkerSnapshot],
    current_time: float,
) -> AssignmentPlan:
    """Oracle matching against the real future trajectory.

    ``oracle_workers`` must carry the worker's *actual* future route in
    ``predicted_xy``/``predicted_times`` (the platform constructs these
    snapshots from ground truth when computing the bound).  An edge
    exists when some real route point allows serving the task within
    the detour budget and before the deadline; the weight is the
    reciprocal of the real out-and-back detour, so UB maximises exactly
    what the simulator later accepts.
    """
    edges: list[tuple[int, int, float]] = []
    for task in tasks:
        tloc = np.array([task.location.x, task.location.y])
        for worker in oracle_workers:
            route = worker.predicted_xy
            times = worker.predicted_times
            if len(route) == 0:
                continue
            dists = np.sqrt(((route - tloc) ** 2).sum(axis=1))
            detours = 2.0 * dists
            feasible = (detours <= worker.detour_budget_km) & (
                times + dists / worker.speed_km_per_min <= task.deadline
            )
            if not feasible.any():
                continue
            best = float(detours[feasible].min())
            edges.append((task.task_id, worker.worker_id, 1.0 / (best + _EPS)))
    return _solve(edges)


def lower_bound_assign(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
) -> AssignmentPlan:
    """Matching on current locations only (no mobility information)."""
    edges: list[tuple[int, int, float]] = []
    for task in tasks:
        tloc = np.array([task.location.x, task.location.y])
        for worker in workers:
            bound = theorem2_bound(
                worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
            )
            if bound <= 0:
                continue
            here = np.array([worker.current_location.x, worker.current_location.y])
            dis = float(np.sqrt(((here - tloc) ** 2).sum()))
            if dis <= bound:
                edges.append((task.task_id, worker.worker_id, 1.0 / (dis + _EPS)))
    return _solve(edges)
