"""Worker-side acceptance of an assigned task.

Workers evaluate assignments against their *actual* itinerary
(Definition 2): the task is accepted iff some way of branching off the
remaining real routine serves the task location within the detour
budget ``w.d`` and before the task's deadline.  The detour of branching
between consecutive routine samples is the insertion cost of
Appendix A-B; branching at the final sample is an out-and-back trip.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.geo.point import Point
from repro.sc.entities import SpatialTask, Worker


@dataclass(frozen=True, slots=True)
class AcceptanceDecision:
    """Outcome of a worker evaluating one assignment.

    ``detour_km`` and ``arrival_time`` describe the cheapest feasible
    service option; on rejection ``detour_km`` is the best (still
    infeasible) detour found, or ``inf`` when the task is unreachable
    before its deadline from anywhere on the routine.
    """

    accepted: bool
    detour_km: float
    arrival_time: float


def evaluate_acceptance(
    worker: Worker,
    task: SpatialTask,
    current_time: float,
) -> AcceptanceDecision:
    """Decide acceptance of ``task`` by ``worker`` at ``current_time``.

    Considers every branch point on the remaining real routine (the
    interpolated current position plus all future samples).  Among the
    branch options that reach the task before its deadline, the worker
    picks the one with the smallest detour and accepts iff that detour
    is within ``w.d``.

    A routine has about ten samples, so the walk is float arithmetic:
    each point-to-task distance is computed once and carried to the next
    segment.  Squares are written ``dx * dx``: ``** 2`` and
    ``math.hypot`` can round the last bit differently, which moves a
    detour and with it the run's signature.
    """
    routine = worker.routine
    speed = worker.speed_km_per_min
    deadline = task.deadline
    tx, ty = task.location.x, task.location.y
    here = routine.position_at(current_time)
    # Branch point k: position (px, py) at time tk, distance d to the task.
    px, py, tk = here.x, here.y, current_time
    dx, dy = px - tx, py - ty
    d = math.sqrt(dx * dx + dy * dy)

    best_detour = math.inf
    best_arrival = math.inf
    for sample in islice(routine, bisect_right(routine.times, current_time), None):
        nx, ny = sample.location.x, sample.location.y
        dx, dy = nx - tx, ny - ty
        d_next = math.sqrt(dx * dx + dy * dy)
        arrival = tk + d / speed
        if arrival <= deadline:
            sx, sy = px - nx, py - ny
            detour = max(d + d_next - math.sqrt(sx * sx + sy * sy), 0.0)
            if detour < best_detour:
                best_detour, best_arrival = detour, arrival
        px, py, tk, d = nx, ny, sample.time, d_next
    # The last branch point is an out-and-back trip.
    arrival = tk + d / speed
    if arrival <= deadline and 2.0 * d < best_detour:
        best_detour, best_arrival = 2.0 * d, arrival

    accepted = best_detour <= worker.detour_budget_km
    return AcceptanceDecision(accepted=accepted, detour_km=best_detour, arrival_time=best_arrival)


def oracle_future_route(worker: Worker, current_time: float, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The worker's true next ``horizon`` route samples (for the UB oracle).

    Returns ``(xy, times)``; includes the interpolated current position
    as the first entry so the oracle always has at least one point.
    """
    here: Point = worker.routine.position_at(current_time)
    future = worker.routine.future_points(current_time, horizon)
    xy = np.array([[here.x, here.y]] + [[p.location.x, p.location.y] for p in future])
    times = np.array([current_time] + [p.time for p in future])
    return xy, times
