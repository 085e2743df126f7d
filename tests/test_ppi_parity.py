"""PPI's float pair test against the numpy form it replaces.

``ppi_assign`` scores every candidate pair in one float walk over the
worker's predicted points.  The reference below is the array form:
Theorem 2's bound from :func:`theorem2_bound`, ``B`` from
:func:`feasible_prediction_points`, and stage 3's nearest distance
measured again with numpy.  Every plan must be equal with ``==`` —
task, worker, score and stage — because a last-bit difference in one
distance changes a weight, and with it the matching.
"""

from __future__ import annotations

import importlib
import math
from typing import Iterator, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.assignment import ppi
from repro.assignment.hungarian import maximum_weight_matching
from repro.assignment.matching_rate import feasible_prediction_points, theorem2_bound
from repro.assignment.ppi import CandidateGraph, PPIConfig, ppi_assign
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot

# The package re-exports the ``matching_rate`` function under the module's name.
matching_rate_module = importlib.import_module("repro.assignment.matching_rate")

# ----------------------------------------------------------------------
# Reference: the numpy form.  Stage 2 orders non-empty B before empty B
# at equal score, so MR = 0 pairs with feasible points reach it.


def reference_ppi(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    candidates: CandidateGraph | None,
    cfg: PPIConfig,
) -> list[tuple[int, int, float, int]]:
    plan: list[tuple[int, int, float, int]] = []
    if not tasks or not workers:
        return plan
    worker_by_id = {w.worker_id: w for w in workers}

    def workers_for(task: SpatialTask) -> Sequence[WorkerSnapshot] | Iterator[WorkerSnapshot]:
        if candidates is None:
            return workers
        return (worker_by_id[w_id] for w_id in candidates.get(task.task_id, ()))

    assigned_tasks: set[int] = set()
    assigned_workers: set[int] = set()

    def take(edges, stage: int) -> None:
        for t_id, w_id, weight in maximum_weight_matching(edges):
            if t_id in assigned_tasks or w_id in assigned_workers:
                continue
            plan.append((t_id, w_id, weight, stage))
            assigned_tasks.add(t_id)
            assigned_workers.add(w_id)

    stage1: list[tuple[int, int, float]] = []
    deferred: list[tuple[int, int, float, float]] = []
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
                stage1.append((task.task_id, worker.worker_id, 1.0 / (min_b + cfg.eps_weight)))
            else:
                deferred.append((task.task_id, worker.worker_id, score, min_b))
    take(stage1, 1)

    deferred.sort(key=lambda c: (c[2], np.isfinite(c[3])), reverse=True)
    chunk: list[tuple[int, int, float]] = []
    for t_id, w_id, _score, min_b in deferred:
        if not np.isfinite(min_b):
            break
        if t_id in assigned_tasks or w_id in assigned_workers:
            continue
        chunk.append((t_id, w_id, 1.0 / (min_b + cfg.eps_weight)))
        if len(chunk) >= cfg.epsilon:
            take(chunk, 2)
            chunk = []
    take(chunk, 2)

    stage3: list[tuple[int, int, float]] = []
    for task in tasks:
        if task.task_id in assigned_tasks:
            continue
        tloc = np.array([task.location.x, task.location.y])
        for worker in workers_for(task):
            if worker.worker_id in assigned_workers or len(worker.predicted_xy) == 0:
                continue
            bound = theorem2_bound(
                worker.detour_budget_km, task.deadline, current_time, worker.speed_km_per_min
            )
            if bound <= 0:
                continue
            dis_min = float(np.sqrt(((worker.predicted_xy - tloc) ** 2).sum(axis=1)).min())
            if dis_min <= bound:
                stage3.append((task.task_id, worker.worker_id, 1.0 / (dis_min + cfg.eps_weight)))
    take(stage3, 3)
    return plan


def plan_rows(tasks, workers, current_time, candidates, cfg) -> list[tuple[int, int, float, int]]:
    plan = ppi_assign(tasks, workers, current_time, candidates, config=cfg)
    return [(p.task_id, p.worker_id, p.score, p.stage) for p in plan]


def check(tasks, workers, current_time, candidates, cfg) -> list[tuple[int, int, float, int]]:
    rows = plan_rows(tasks, workers, current_time, candidates, cfg)
    assert rows == reference_ppi(tasks, workers, current_time, candidates, cfg)
    return rows


def make_snapshot(worker_id: int, points, mr: float, budget: float, speed: float) -> WorkerSnapshot:
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    return WorkerSnapshot(
        worker_id=worker_id,
        current_location=Point(0.0, 0.0),
        predicted_xy=xy,
        predicted_times=np.arange(1.0, len(xy) + 1.0),
        detour_budget_km=budget,
        speed_km_per_min=speed,
        matching_rate=mr,
    )


# ----------------------------------------------------------------------
# Strategies.  Dyadic lattice values make distances along an axis exact,
# so ``d + a == bound`` and ``nearest == bound`` occur; wide floats give
# last-bit rounding.

dyadic = st.integers(-16, 16).map(lambda k: k / 4.0)
coord = st.one_of(dyadic, st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False))
rates = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def snapshots(draw, worker_id: int) -> WorkerSnapshot:
    n = draw(st.integers(0, 6))
    points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    if points and draw(st.booleans()):
        points.append(points[draw(st.integers(0, len(points) - 1))])  # a duplicate point
    return make_snapshot(
        worker_id,
        points,
        mr=draw(rates),
        budget=draw(st.one_of(st.integers(0, 12).map(lambda k: k / 2.0), st.floats(0.0, 10.0))),
        speed=draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 2.0))),
    )


@st.composite
def batches(draw):
    now = draw(st.sampled_from([0.0, 10.0]))
    tasks = []
    for t_id in range(draw(st.integers(1, 6))):
        # Deadlines at or before ``now`` give a bound <= 0 (expired).
        deadline = now + draw(st.one_of(st.integers(-2, 8).map(float), st.floats(-5.0, 60.0)))
        tasks.append(SpatialTask(t_id, Point(draw(coord), draw(coord)), deadline - 30.0, deadline))
    workers = [draw(snapshots(w_id)) for w_id in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        candidates = None
    else:
        ids = [w.worker_id for w in workers]
        candidates = {
            t.task_id: draw(st.lists(st.sampled_from(ids), unique=True))
            for t in tasks
            if draw(st.integers(0, 4)) > 0  # some tasks have no entry
        }
    cfg = PPIConfig(a=draw(st.sampled_from([0.0, 0.25, 0.3, 0.5])), epsilon=draw(st.sampled_from([1, 8])))
    return tasks, workers, now, candidates, cfg


def sweep_batch(rng: np.random.Generator, kind: int):
    """One seeded batch: ``kind`` 0 is small and dyadic (exact ties), 1 is
    small and continuous, 2 is large, continuous and sparse (many matched
    pairs).  Kinds 0 and 1 are dense or sparse at random."""
    lattice = kind == 0

    def xy(size):
        if lattice:
            return rng.integers(-12, 13, size=size) / 4.0
        return rng.uniform(-4.0, 4.0, size=size)

    n_tasks, n_workers = (30, 30) if kind == 2 else (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    tasks = []
    for t_id in range(n_tasks):
        deadline = float(rng.integers(-2, 12)) if lattice else float(rng.uniform(-2.0, 30.0))
        x, y = xy(2).tolist()
        tasks.append(SpatialTask(t_id, Point(x, y), deadline - 30.0, deadline))
    workers = []
    for w_id in range(n_workers):
        n = int(rng.integers(0, 11))
        points = xy((n, 2))
        if n > 1 and rng.random() < 0.2:
            points[-1] = points[0]  # a duplicate point
        mr = float(rng.choice([0.0, 0.25, 0.5, 1.0])) if rng.random() < 0.5 else float(rng.random())
        budget = float(rng.integers(0, 9)) / 2.0 if lattice else float(rng.uniform(0.0, 8.0))
        speed = float(rng.choice([0.25, 0.5, 1.0])) if lattice else float(rng.uniform(0.05, 1.0))
        workers.append(make_snapshot(w_id, points, mr, budget, speed))
    ids = np.arange(n_workers)
    if kind == 2:
        candidates = {t.task_id: rng.permutation(ids)[:4].tolist() for t in tasks}
    elif rng.random() < 0.5:
        candidates = None
    else:
        candidates = {
            t.task_id: rng.permutation(ids)[: int(rng.integers(0, n_workers + 1))].tolist()
            for t in tasks
            if rng.random() < 0.9
        }
    a = float(rng.choice([0.25, 0.5])) if lattice else 0.3
    return tasks, workers, 0.0, candidates, PPIConfig(a=a, epsilon=int(rng.choice([1, 8])))


class TestPPIParity:
    @settings(max_examples=400, deadline=None)
    @given(batch=batches())
    def test_matches_array_form(self, batch):
        check(*batch)

    def test_matches_array_form_in_bulk(self):
        """3,000 seeded batches of three kinds (see :func:`sweep_batch`).

        A strict ``<`` in place of ``<=`` differs only on exact ties,
        which the dyadic batches make.  A last-bit difference in one
        square (``x ** 2`` against ``x * x``) changes about one distance
        in 2,500, and only the distance a matched pair is weighted by
        shows in the plan, so the large sparse batches supply some
        15,000 matched pairs."""
        rng = np.random.default_rng(0)
        seen = {"stage1": 0, "stage2": 0, "stage3": 0, "b_tie": 0, "nearest_tie": 0}
        for i in range(3000):
            tasks, workers, now, candidates, cfg = batch = sweep_batch(rng, i % 3)
            for row in check(*batch):
                seen[f"stage{row[3]}"] += 1
            if i % 3:
                continue
            for task in tasks:
                tloc = np.array([task.location.x, task.location.y])
                for w in workers:
                    bound = theorem2_bound(w.detour_budget_km, task.deadline, now, w.speed_km_per_min)
                    if bound <= 0 or len(w.predicted_xy) == 0:
                        continue
                    d = np.sqrt(((w.predicted_xy - tloc) ** 2).sum(axis=1))
                    seen["b_tie"] += int(np.any(d + cfg.a == bound))
                    seen["nearest_tie"] += int(d.min() == bound)
        # The sweep reaches every stage and both kinds of exact tie.
        assert all(count > 100 for count in seen.values()), seen

    def test_radius_ties_count_in_b_and_in_stage_three(self):
        # Worker 0's point sits exactly at d + a == bound (1.5 + 0.5 == 2);
        # worker 1's nearest point sits exactly on the bound (2 == 2).
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 40.0), SpatialTask(1, Point(10.0, 0.0), 0.0, 40.0)]
        workers = [
            make_snapshot(0, [(0.0, 1.5), (0.0, 1.5)], mr=0.5, budget=4.0, speed=1.0),
            make_snapshot(1, [(10.0, 2.0), (10.0, -3.0)], mr=1.0, budget=4.0, speed=1.0),
        ]
        rows = check(tasks, workers, 0.0, None, PPIConfig(a=0.5))
        # |B| * MR = 2 * 0.5 == 1.0 exactly: stage 1.
        assert rows == [(0, 0, 1.0 / (1.5 + 1e-6), 1), (1, 1, 1.0 / (2.0 + 1e-6), 3)]

    def test_nan_forecast_points_never_match_by_proximity(self):
        # numpy's min of a track with a NaN point is NaN, which fails
        # ``nearest <= bound`` wherever the NaN sits; the finite points
        # still count in B.
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 40.0)]
        for track in ([(math.nan, 0.0), (1.9, 0.0)], [(1.9, 0.0), (0.0, math.nan)]):
            workers = [make_snapshot(0, track, mr=0.5, budget=4.0, speed=1.0)]
            assert check(tasks, workers, 0.0, None, PPIConfig(a=0.3)) == []
        workers = [make_snapshot(0, [(math.nan, 0.0), (1.0, 0.0)], mr=0.5, budget=4.0, speed=1.0)]
        assert check(tasks, workers, 0.0, None, PPIConfig(a=0.3))[0][3] == 2

    def test_pair_test_calls_neither_reference_helper(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ppi_assign must not call the per-pair numpy helpers")

        for name in ("feasible_prediction_points", "theorem2_bound"):
            monkeypatch.setattr(matching_rate_module, name, refuse)
            monkeypatch.setattr(ppi, name, refuse, raising=False)
        rng = np.random.default_rng(3)
        tasks = [SpatialTask(t, Point(*rng.uniform(0, 3, 2).tolist()), 0.0, 30.0) for t in range(6)]
        workers = [
            make_snapshot(w, rng.uniform(0, 3, (5, 2)), mr=float(rng.random()), budget=4.0, speed=0.5)
            for w in range(6)
        ]
        plan = ppi_assign(tasks, workers, 0.0)
        assert {p.stage for p in plan} and len(plan) == 6
