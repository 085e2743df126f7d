"""One Theorem 2 pair test for PPI, KM, GGPSO and the serving beliefs.

:func:`pair_scan` is the only implementation of Algorithm 4's pair test.
The references below are the numpy forms KM, GGPSO's utility matrix and
the engine's batched beliefs used before they read the scan: the bound
from :func:`theorem2_bound`, distances as ``np.sqrt(((pred - t) ** 2)
.sum(axis=1))`` and their ``min``.  Every result must be equal with
``==``, because a last-bit difference in one distance changes a weight,
and with it the matching.  PPI's own parity against the numpy form is
pinned in ``tests/test_ppi_parity.py``; its strategy and seeded batches
are reused here.
"""

from __future__ import annotations

import importlib
import math
from typing import Sequence
from unittest import mock

import numpy as np
from hypothesis import given, settings

from repro.assignment import baselines, ggpso, ppi
from repro.assignment.baselines import km_assign
from repro.assignment.ggpso import GGPSOConfig, ggpso_assign
from repro.assignment.hungarian import maximum_weight_matching
from repro.assignment.matching_rate import pair_completion_probability, pair_scan, theorem2_bound
from repro.assignment.ppi import CandidateGraph, ppi_assign
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve.engine import ServeEngine
from tests.test_ppi_parity import batches, make_snapshot, sweep_batch

# The package re-exports the ``matching_rate`` function under the module's name.
matching_rate_module = importlib.import_module("repro.assignment.matching_rate")

_EPS = 1e-6

# ----------------------------------------------------------------------
# References: the numpy forms the scan replaced.


def reference_km(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    candidates: CandidateGraph | None,
) -> list[tuple[int, int, float]]:
    worker_by_id = {w.worker_id: w for w in workers}
    edges: list[tuple[int, int, float]] = []
    for task in tasks:
        tloc = np.array([task.location.x, task.location.y])
        pool = (
            workers
            if candidates is None
            else (worker_by_id[w_id] for w_id in candidates.get(task.task_id, ()))
        )
        for worker in pool:
            if len(worker.predicted_xy) == 0:
                continue
            bound = theorem2_bound(
                worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
            )
            if bound <= 0:
                continue
            dis_min = float(np.sqrt(((worker.predicted_xy - tloc) ** 2).sum(axis=1)).min())
            if dis_min <= bound:
                edges.append((task.task_id, worker.worker_id, 1.0 / (dis_min + _EPS)))
    return maximum_weight_matching(edges)


def reference_utility_matrix(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
) -> np.ndarray:
    util = np.zeros((len(tasks), len(workers)))
    for i, task in enumerate(tasks):
        tloc = np.array([task.location.x, task.location.y])
        for j, worker in enumerate(workers):
            if len(worker.predicted_xy) == 0:
                continue
            bound = theorem2_bound(
                worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
            )
            if bound <= 0:
                continue
            dis_min = float(np.sqrt(((worker.predicted_xy - tloc) ** 2).sum(axis=1)).min())
            if dis_min <= bound:
                util[i, j] = 1.0 / (dis_min + _EPS)
    return util


def reference_beliefs(snapshots, tasks, current_time: float, a: float) -> list[float]:
    """The engine's former batched beliefs: every point of every pair in
    one numpy expression."""
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


# ----------------------------------------------------------------------
# The checks, on one batch.

_SMALL_GGPSO = GGPSOConfig(population_size=4, generations=2)


def ggpso_rows(tasks, workers, now):
    plan = ggpso_assign(tasks, workers, now, _SMALL_GGPSO)
    return [(p.task_id, p.worker_id, p.score) for p in plan]


def check(tasks, workers, now, candidates, a) -> dict[str, int]:
    """Assert KM, GGPSO and the beliefs equal their references; return
    what the batch exercised."""
    km_rows = [(p.task_id, p.worker_id, p.score) for p in km_assign(tasks, workers, now, candidates)]
    assert km_rows == reference_km(tasks, workers, now, candidates)

    util = ggpso._utility_matrix(tasks, workers, now)
    assert np.array_equal(util, reference_utility_matrix(tasks, workers, now))
    with mock.patch.object(ggpso, "_utility_matrix", reference_utility_matrix):
        want_ggpso = ggpso_rows(tasks, workers, now)
    assert ggpso_rows(tasks, workers, now) == want_ggpso

    # Every pair the assignment could offer: the graph's, or all of them.
    worker_by_id = {w.worker_id: w for w in workers}
    pairs = [
        (worker_by_id[w_id], task)
        for task in tasks
        for w_id in (
            worker_by_id if candidates is None else candidates.get(task.task_id, ())
        )
    ]
    snaps = [s for s, _ in pairs]
    offered = [t for _, t in pairs]
    beliefs = [pair_completion_probability(s, t, now, a) for s, t in pairs]
    assert beliefs == reference_beliefs(snaps, offered, now, a)
    return {
        "km_edges": len(km_rows),
        "ggpso_pairs": len(want_ggpso),
        "partial_beliefs": sum(0.0 < p < 1.0 for p in beliefs),
    }


def with_nan_points(rng: np.random.Generator, workers: list[WorkerSnapshot]) -> list[WorkerSnapshot]:
    """Workers with a NaN coordinate put into some tracks."""
    out = []
    for w in workers:
        xy = w.predicted_xy.copy()
        if len(xy) and rng.random() < 0.2:
            xy[int(rng.integers(len(xy))), int(rng.integers(2))] = math.nan
        out.append(
            make_snapshot(w.worker_id, xy, w.matching_rate, w.detour_budget_km, w.speed_km_per_min)
        )
    return out


class TestPairScanParity:
    @settings(max_examples=300, deadline=None)
    @given(batch=batches())
    def test_matches_array_forms(self, batch):
        tasks, workers, now, candidates, cfg = batch
        check(tasks, workers, now, candidates, cfg.a)

    def test_matches_array_forms_in_bulk(self):
        """2,100 seeded batches of :func:`sweep_batch`'s three kinds, some
        with NaN points: dense and sparse graphs, zero budgets, expired
        tasks, empty tracks and exact ties on the radius."""
        rng = np.random.default_rng(1)
        seen = {"km_edges": 0, "ggpso_pairs": 0, "partial_beliefs": 0, "nan_batches": 0}
        for i in range(2100):
            tasks, workers, now, candidates, cfg = sweep_batch(rng, i % 3)
            if rng.random() < 0.25:
                workers = with_nan_points(rng, workers)
                seen["nan_batches"] += 1
            for key, count in check(tasks, workers, now, candidates, cfg.a).items():
                seen[key] += count
        assert all(count > 100 for count in seen.values()), seen


def test_scan_yields_what_the_definitions_give():
    # bound = min(4 / 2, 1 * 40) = 2 and a = 0.5.  Worker 0 has one point
    # in B, on the radius (1.5 + 0.5 == 2), which is also its nearest;
    # worker 1's track lies beyond the bound; worker 2 has no track and
    # worker 3 no budget, so neither yields.
    task = SpatialTask(7, Point(0.0, 0.0), 0.0, 40.0)
    workers = [
        make_snapshot(0, [(0.0, 1.5), (3.0, 0.0)], mr=0.5, budget=4.0, speed=1.0),
        make_snapshot(1, [(5.0, 0.0)], mr=0.9, budget=4.0, speed=1.0),
        make_snapshot(2, [], mr=0.9, budget=4.0, speed=1.0),
        make_snapshot(3, [(0.0, 0.1)], mr=0.9, budget=0.0, speed=1.0),
        make_snapshot(4, [(math.nan, 0.0), (0.0, 1.0)], mr=0.5, budget=4.0, speed=1.0),
    ]
    got = list(pair_scan([task], workers, 0.0, 0.5))
    assert got == [
        (7, 0, 0.5, 1, 1.5, 1.5),
        (7, 1, 0.9, 0, math.inf, math.inf),
        (7, 4, 0.5, 1, 1.0, math.inf),  # the NaN point poisons only the nearest
    ]
    # A graph restricts and orders the workers; a task without an entry has none.
    assert [row[1] for row in pair_scan([task], workers, 0.0, 0.5, {7: [4, 0]})] == [4, 0]
    assert list(pair_scan([task], workers, 0.0, 0.5, {})) == []


class _OfferLog:
    """Stands in for the decision log: keeps each offer's belief."""

    def __init__(self) -> None:
        self.beliefs: list[float | None] = []

    def offered(self, task_id, worker_id, t, accepted, predicted_p=None, warm_tier=None) -> None:
        self.beliefs.append(predicted_p)


def test_every_caller_goes_through_the_scan(monkeypatch):
    """PPI, KM, GGPSO and the engine's beliefs test pairs only through
    :func:`pair_scan`, never through the reference helpers."""
    calls: list[int] = []
    scan = matching_rate_module.pair_scan

    def spy(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the pair test must go through pair_scan")

    for module in (matching_rate_module, ppi, baselines, ggpso):
        monkeypatch.setattr(module, "pair_scan", spy, raising=False)
        for name in ("theorem2_bound", "feasible_prediction_points"):
            monkeypatch.setattr(module, name, refuse, raising=False)

    rng = np.random.default_rng(5)
    tasks = [SpatialTask(t, Point(*rng.uniform(0, 3, 2).tolist()), 0.0, 30.0) for t in range(6)]
    workers = [
        make_snapshot(w, rng.uniform(0, 3, (5, 2)), mr=float(rng.random()), budget=4.0, speed=0.5)
        for w in range(6)
    ]

    def through_scan(run) -> list:
        del calls[:]
        out = run()
        assert calls, "no pair_scan call"
        return out

    assert len(through_scan(lambda: ppi_assign(tasks, workers, 0.0))) == 6
    assert len(through_scan(lambda: km_assign(tasks, workers, 0.0))) == 6
    assert len(through_scan(lambda: ggpso_assign(tasks, workers, 0.0, _SMALL_GGPSO))) > 0
    log = _OfferLog()
    offers = [(task, w.worker_id, True) for task, w in zip(tasks, workers)]
    through_scan(lambda: ServeEngine._record_offers(offers, workers, 0.0, None, None, log, None))
    assert len(log.beliefs) == 6 and all(0.0 <= p <= 1.0 for p in log.beliefs)
