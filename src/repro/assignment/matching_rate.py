"""Matching rate (Definition 7) and the Theorem 2 feasibility machinery.

``MR(r, r^)`` is the fraction of routine points whose prediction lands
within ``a`` km of the truth.  Theorem 2 turns it into a completion
probability: if a task lies within ``b`` of a predicted point and
``a + b <= min(d/2, d^t)``, the worker completes the task without
violating the detour or deadline constraint with probability ``MR``.
"""

from __future__ import annotations

import numpy as np


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


def pair_completion_probability(snapshot, task, current_time: float, a: float = 0.3) -> float:
    """The completion probability the platform believes for one pair.

    The outcome hook behind online calibration monitoring
    (:mod:`repro.obs.calibration`): given the worker snapshot the
    assignment actually saw and the task it proposed, reconstruct the
    Theorem 2 score — ``1 - (1 - MR)^|B|`` over the feasible predicted
    points within the ``min(d/2, d^t)`` radius — so each accept/reject
    outcome can be scored against what the predictor promised.

    ``snapshot`` needs the :class:`repro.sc.entities.WorkerSnapshot`
    fields (``predicted_xy``, ``matching_rate``, ``detour_budget_km``,
    ``speed_km_per_min``); ``task`` needs ``location`` and ``deadline``.
    Returns 0 for pairs with no feasible point (stage-3 proximity
    assignments carry no Theorem 2 mass).
    """
    pred = snapshot.predicted_xy
    if len(pred) == 0:
        return 0.0
    # Inlined theorem2_bound / feasible_prediction_points: this runs per
    # proposed pair inside the serving loop, so skip re-validation.  The
    # test is PPI's own ``dis + a <= bound``, so |B| is the one PPI
    # matched on, points on the radius included.
    bound = min(
        snapshot.detour_budget_km / 2.0,
        snapshot.speed_km_per_min * (task.deadline - current_time),
    )
    if bound <= 0:
        return 0.0
    dx = pred[:, 0] - task.location.x
    dy = pred[:, 1] - task.location.y
    b_size = int(np.count_nonzero(np.sqrt(dx * dx + dy * dy) + a <= bound))
    return 1.0 - (1.0 - snapshot.matching_rate) ** b_size


def pair_completion_probabilities(
    snapshots, tasks, current_time: float, a: float = 0.3
) -> list[float]:
    """:func:`pair_completion_probability` for many pairs in one pass.

    ``snapshots[i]`` and ``tasks[i]`` form pair ``i``.  Every predicted
    point of every pair is tested in one numpy expression — the same
    arithmetic as the per-pair form, so each result is bit-identical to
    ``pair_completion_probability(snapshots[i], tasks[i], current_time, a)``.
    """
    probs = [0.0] * len(tasks)
    live: list[int] = []
    blocks: list[np.ndarray] = []
    rows: list[tuple[float, float, float]] = []
    for i, (snapshot, task) in enumerate(zip(snapshots, tasks)):
        pred = snapshot.predicted_xy
        if len(pred) == 0:
            continue
        bound = min(
            snapshot.detour_budget_km / 2.0,
            snapshot.speed_km_per_min * (task.deadline - current_time),
        )
        if bound <= 0:
            continue
        live.append(i)
        blocks.append(pred)
        rows.append((task.location.x, task.location.y, bound))
    if not live:
        return probs
    pair = np.repeat(np.arange(len(live)), [len(block) for block in blocks])
    per_point = np.array(rows)[pair]
    pred = np.concatenate(blocks)
    dx = pred[:, 0] - per_point[:, 0]
    dy = pred[:, 1] - per_point[:, 1]
    inside = np.sqrt(dx * dx + dy * dy) + a <= per_point[:, 2]
    b_sizes = np.bincount(pair[inside], minlength=len(live)).tolist()
    for i, b_size in zip(live, b_sizes):
        probs[i] = 1.0 - (1.0 - snapshots[i].matching_rate) ** b_size
    return probs
