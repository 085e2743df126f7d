"""Matching rate (Definition 7) and the Theorem 2 feasibility machinery.

``MR(r, r^)`` is the fraction of routine points whose prediction lands
within ``a`` km of the truth.  Theorem 2 turns it into a completion
probability: if a task lies within ``b`` of a predicted point and
``a + b <= min(d/2, d^t)``, the worker completes the task without
violating the detour or deadline constraint with probability ``MR``.
"""

from __future__ import annotations

from math import inf, sqrt
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.sc.entities import SpatialTask, WorkerSnapshot

#: One tested pair: ``(task_id, worker_id, MR, |B|, min B, nearest)``.
PairScan = tuple[int, int, float, int, float, float]


def matching_rate(real_xy: np.ndarray, pred_xy: np.ndarray, a: float) -> float:
    """Definition 7: mean indicator of ``dis(l_i, l^_i) <= a``.

    Both arrays are ``(n, 2)`` aligned point sequences.
    """
    real = np.asarray(real_xy, dtype=float).reshape(-1, 2)
    pred = np.asarray(pred_xy, dtype=float).reshape(-1, 2)
    if real.shape != pred.shape:
        raise ValueError(f"routines must align: {real.shape} vs {pred.shape}")
    if a < 0:
        raise ValueError("matching threshold a must be non-negative")
    if len(real) == 0:
        return 0.0
    dists = np.sqrt(((real - pred) ** 2).sum(axis=1))
    return float((dists <= a).mean())


def theorem2_bound(
    detour_budget_km: float,
    deadline: float,
    current_time: float,
    speed_km_per_min: float,
) -> float:
    """The ``min(d/2, d^t)`` radius of Theorem 2.

    ``d^t = sp * (tau.t - t_c)`` is the distance the worker can still
    cover before the deadline (Lemma 2).  Non-positive when the task is
    already expired.
    """
    if detour_budget_km < 0:
        raise ValueError("detour budget must be non-negative")
    if speed_km_per_min <= 0:
        raise ValueError("speed must be positive")
    d_t = speed_km_per_min * (deadline - current_time)
    return min(detour_budget_km / 2.0, d_t)


def feasible_prediction_points(
    pred_xy: np.ndarray,
    task_xy: np.ndarray,
    a: float,
    bound: float,
) -> np.ndarray:
    """The set ``B`` of Algorithm 4 (lines 4-7).

    Distances ``dis(l^_i, tau.l)`` for predicted points satisfying
    ``dis + a <= bound``; the count ``|B|`` times ``MR`` is the expected
    number of completion opportunities.
    """
    pred = np.asarray(pred_xy, dtype=float).reshape(-1, 2)
    t = np.asarray(task_xy, dtype=float).ravel()
    if t.shape != (2,):
        raise ValueError("task location must be a single (x, y)")
    if a < 0:
        raise ValueError("a must be non-negative")
    dists = np.sqrt(((pred - t) ** 2).sum(axis=1))
    return dists[dists + a <= bound]


def completion_radius(bound: float, a: float) -> float:
    """Largest ``b`` allowed by Theorem 2 given the bound and threshold ``a``."""
    return max(bound - a, 0.0)


def completion_probability(b_size: int, mr: float) -> float:
    """Expected completion probability of a pair with ``|B|`` opportunities.

    Each of the ``|B|`` feasible predicted points independently "hits"
    (the worker really passes nearby) with probability ``MR``; the paper
    uses the expectation ``|B| * MR`` as a confidence score and treats
    scores >= 1 as near-certain (Algorithm 4, line 8).  This helper also
    exposes the proper probability ``1 - (1 - MR)^|B|`` used by the
    simulator-side diagnostics.
    """
    if b_size < 0:
        raise ValueError("|B| must be non-negative")
    if not 0.0 <= mr <= 1.0:
        raise ValueError("MR must lie in [0, 1]")
    return 1.0 - (1.0 - mr) ** b_size


def pair_scan(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    a: float,
    candidates: Mapping[int, Sequence[int]] | None = None,
) -> Iterator[PairScan]:
    """Algorithm 4's pair test (lines 2-7): the one PPI, KM, GGPSO and
    the serving beliefs share.

    Visits the tasks in order and, for each, its ``candidates`` entry
    (every worker in snapshot order when ``candidates`` is None), reading
    each worker's forecast once per call as floats.  A pair with a
    positive Theorem 2 bound and a non-empty track yields ``(task_id,
    worker_id, MR, |B|, min B, nearest)``: ``min B`` is inf when ``B`` is
    empty, and ``nearest`` is inf when the nearest point lies beyond the
    bound or is NaN.  The walk computes ``d = sqrt(dx * dx + dy * dy)``,
    which is what numpy's ``** 2``, two-element row sum and square root
    give, so every value equals :func:`theorem2_bound`'s,
    :func:`feasible_prediction_points`' and a numpy ``min``'s.
    """
    worker_by_id = {w.worker_id: w for w in workers}
    every_worker = [w.worker_id for w in workers]
    # Read on first use: a sparse graph may name few of the workers.
    forecasts: dict[int, tuple[list, float, float, float]] = {}
    for task in tasks:
        t_id = task.task_id
        tx = task.location.x
        ty = task.location.y
        time_left = task.deadline - current_time
        for w_id in every_worker if candidates is None else candidates.get(t_id, ()):
            forecast = forecasts.get(w_id)
            if forecast is None:
                worker = worker_by_id[w_id]
                forecast = forecasts[w_id] = (
                    worker.predicted_xy.tolist(),
                    worker.detour_budget_km / 2.0,
                    worker.speed_km_per_min,
                    worker.matching_rate,
                )
            points, half_budget, speed, mr = forecast
            # theorem2_bound's min(d/2, d^t), for fields the snapshot validated.
            reach = speed * time_left
            bound = reach if reach < half_budget else half_budget
            if bound <= 0 or not points:
                continue
            b_size = 0
            min_b = inf
            nearest = inf
            for px, py in points:
                dx = px - tx
                dy = py - ty
                d = sqrt(dx * dx + dy * dy)
                if d < nearest or d != d:
                    # A NaN point makes the nearest distance NaN, as
                    # numpy's min does, and NaN fails ``<= bound``.
                    nearest = d
                if d + a <= bound:
                    b_size += 1
                    if d < min_b:
                        min_b = d
            yield t_id, w_id, mr, b_size, min_b, nearest if nearest <= bound else inf


def pair_completion_probability(snapshot, task, current_time: float, a: float = 0.3) -> float:
    """The completion probability the platform believes for one pair.

    ``1 - (1 - MR)^|B|`` over the ``B`` PPI matched on
    (:func:`pair_scan`), so online calibration (:mod:`repro.obs.calibration`)
    and the decision log score each accept/reject outcome against what
    the predictor promised.  0 for a pair with no feasible point
    (stage-3 proximity assignments carry no Theorem 2 mass).
    """
    for _t_id, _w_id, mr, b_size, _min_b, _nearest in pair_scan([task], [snapshot], current_time, a):
        return 1.0 - (1.0 - mr) ** b_size
    return 0.0
