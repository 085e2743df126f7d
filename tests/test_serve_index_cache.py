"""Tests for the uniform-grid candidate index and the prediction cache."""

import numpy as np
import pytest

from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve import PredictionCache, UniformGridIndex, build_candidates

from tests.conftest import straight_trajectory
from tests.test_sc import make_worker, oracle_provider


def brute_force_query(items, x, y, radius):
    return sorted(
        (item_id, np.hypot(px - x, py - y))
        for item_id, px, py in items
        if np.hypot(px - x, py - y) <= radius
    )


class TestUniformGridIndex:
    @pytest.mark.parametrize("cell_km", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("radius", [0.0, 0.7, 2.0, 10.0])
    def test_query_matches_brute_force(self, rng, cell_km, radius):
        items = [
            (i, float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(-5.0, 15.0, size=(60, 2)))
        ]
        index = UniformGridIndex(cell_km=cell_km).build(items)
        for qx, qy in rng.uniform(-5.0, 15.0, size=(10, 2)):
            got = sorted((i, d) for i, d in index.query(float(qx), float(qy), radius))
            want = brute_force_query(items, float(qx), float(qy), radius)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert [d for _, d in got] == pytest.approx([d for _, d in want])

    def test_negative_coordinates_supported(self):
        """The hashed grid has no extent, so negatives never clamp."""
        index = UniformGridIndex(cell_km=1.0).build([(0, -3.5, -7.2)])
        assert index.query(-3.5, -7.2, 0.1) == [(0, pytest.approx(0.0))]
        assert index.query(0.0, 0.0, 1.0) == []

    def test_empty_index(self):
        index = UniformGridIndex().build([])
        assert len(index) == 0
        assert index.query(0.0, 0.0, 100.0) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UniformGridIndex(cell_km=0.0)
        with pytest.raises(ValueError):
            UniformGridIndex().build([(0, 1.0, 1.0)]).query(0.0, 0.0, -1.0)

    def test_rebuild_replaces_contents(self):
        index = UniformGridIndex(cell_km=1.0).build([(0, 0.0, 0.0)])
        index.build([(1, 5.0, 5.0)])
        assert index.query(0.0, 0.0, 0.5) == []
        assert [i for i, _ in index.query(5.0, 5.0, 0.5)] == [1]


def snapshot_at(worker_id, points, detour=4.0, speed=1.0):
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    times = 10.0 * np.arange(1, len(xy) + 1)
    return WorkerSnapshot(
        worker_id=worker_id,
        current_location=Point(float(xy[0, 0]), float(xy[0, 1])),
        predicted_xy=xy,
        predicted_times=times,
        detour_budget_km=detour,
        speed_km_per_min=speed,
        matching_rate=0.9,
    )


class TestBuildCandidates:
    def test_superset_of_theorem2_pairs(self, rng):
        """Every pair within the per-pair Theorem 2 bound is a candidate."""
        tasks = [
            SpatialTask(i, Point(float(x), float(y)), 0.0, float(rng.uniform(20.0, 60.0)))
            for i, (x, y) in enumerate(rng.uniform(0.0, 20.0, size=(25, 2)))
        ]
        snapshots = [
            snapshot_at(w, rng.uniform(0.0, 20.0, size=(4, 2)), detour=3.0)
            for w in range(15)
        ]
        graph = build_candidates(tasks, snapshots, current_time=0.0, cell_km=1.5)
        for task in tasks:
            for snap in snapshots:
                bound = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * task.deadline)
                dists = np.hypot(
                    snap.predicted_xy[:, 0] - task.location.x,
                    snap.predicted_xy[:, 1] - task.location.y,
                )
                if dists.min() <= bound:
                    assert snap.worker_id in graph.get(task.task_id, [])

    def test_far_workers_excluded(self):
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 60.0)]
        near = snapshot_at(0, [(1.0, 0.0)], detour=4.0)
        far = snapshot_at(1, [(50.0, 50.0)], detour=4.0)
        graph = build_candidates(tasks, [near, far], current_time=0.0)
        assert graph == {0: [0]}

    def test_workers_listed_in_snapshot_order(self):
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 60.0)]
        snaps = [snapshot_at(w, [(0.5 + 0.1 * w, 0.0)]) for w in (5, 3, 9)]
        graph = build_candidates(tasks, snaps, current_time=0.0)
        assert graph[0] == [5, 3, 9]

    def test_max_candidates_keeps_nearest(self):
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 60.0)]
        snaps = [snapshot_at(w, [(0.5 * (w + 1), 0.0)]) for w in range(4)]
        graph = build_candidates(tasks, snaps, current_time=0.0, max_candidates=2)
        assert graph[0] == [0, 1]

    def test_max_candidates_ranks_by_nearest_point(self):
        """A worker's distance to a task is its *nearest* predicted
        point: worker 0's track ends 0.5 km away, so it outranks worker
        1 (1 km away) even though its other points are 3-4 km off."""
        tasks = [SpatialTask(7, Point(0.0, 0.0), 0.0, 60.0)]
        snaps = [
            snapshot_at(0, [(3.0, 0.0), (4.0, 0.0), (0.5, 0.0)], detour=10.0),
            snapshot_at(1, [(1.0, 0.0)], detour=10.0),
        ]
        assert build_candidates(tasks, snaps, 0.0, max_candidates=1) == {7: [0]}
        assert build_candidates(tasks, snaps, 0.0, max_candidates=2) == {7: [0, 1]}

    def test_max_candidates_ties_go_to_earlier_snapshot(self):
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 60.0)]
        snaps = [snapshot_at(w, [(0.0, 1.0)]) for w in (4, 2, 8)]
        assert build_candidates(tasks, snaps, 0.0, max_candidates=2) == {0: [4, 2]}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predicted_point_names_the_worker(self, bad):
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 60.0)]
        snaps = [snapshot_at(3, [(0.5, 0.0)]), snapshot_at(11, [(1.0, 0.0), (bad, 2.0)])]
        with pytest.raises(ValueError, match=r"worker 11: non-finite predicted_xy"):
            build_candidates(tasks, snaps, 0.0)

    def test_deadline_caps_radius(self):
        """A nearly-expired task only reaches very close workers."""
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 0.5)]
        snap = snapshot_at(0, [(1.5, 0.0)], detour=4.0, speed=1.0)
        # Bound = min(4/2, 1.0 * 0.5) = 0.5 km < 1.5 km away.
        assert build_candidates(tasks, [snap], current_time=0.0) == {}


class CountingProvider:
    def __init__(self):
        self.calls = 0

    def __call__(self, worker, t):
        self.calls += 1
        return oracle_provider(worker, t)


class TestPredictionCache:
    def test_ttl_zero_is_passthrough(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=0.0)
        w = make_worker()
        cache.get(w, 0.0)
        cache.get(w, 0.0)
        assert provider.calls == 2
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_hit_within_ttl_refreshes_location(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=5.0)
        w = make_worker()
        first = cache.get(w, 10.0)
        again = cache.get(w, 12.0)
        assert provider.calls == 1
        assert cache.stats.hits == 1
        # The cached rollout is reused but the current location tracks
        # the worker's latest shared position, not the stale one.
        assert again.current_location == w.last_shared_location(12.0)
        assert np.array_equal(again.predicted_xy, first.predicted_xy)

    def test_expires_after_ttl(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=5.0)
        w = make_worker()
        cache.get(w, 0.0)
        cache.get(w, 6.0)
        assert provider.calls == 2
        assert cache.stats.misses == 2

    def test_deviation_invalidates(self):
        w = make_worker()

        class Swerving:
            """Predicts a rollout far from where the worker really goes."""

            def __init__(self):
                self.calls = 0

            def __call__(self, worker, t):
                self.calls += 1
                snap = oracle_provider(worker, t)
                from dataclasses import replace

                return replace(snap, predicted_xy=snap.predicted_xy + 50.0)

        provider = Swerving()
        cache = PredictionCache(provider, ttl=30.0, deviation_km=1.0)
        cache.get(w, 0.0)
        cache.get(w, 10.0)  # worker is ~50 km from the cached forecast
        assert provider.calls == 2
        assert cache.stats.invalidations == 1

    def test_no_deviation_keeps_entry(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=30.0, deviation_km=5.0)
        w = make_worker()  # oracle forecast: deviation is ~0
        cache.get(w, 10.0)
        cache.get(w, 15.0)
        assert provider.calls == 1
        assert cache.stats.invalidations == 0

    def test_explicit_invalidate(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=30.0)
        w = make_worker()
        cache.get(w, 0.0)
        cache.invalidate(w.worker_id)
        cache.get(w, 1.0)
        assert provider.calls == 2

    def test_stats_row(self):
        provider = CountingProvider()
        cache = PredictionCache(provider, ttl=5.0)
        w = make_worker()
        cache.get(w, 0.0)
        cache.get(w, 1.0)
        row = cache.stats.as_row()
        assert row["hits"] == 1.0
        assert row["misses"] == 1.0
        assert row["hit_rate"] == pytest.approx(0.5)

    def test_validates(self):
        with pytest.raises(ValueError):
            PredictionCache(oracle_provider, ttl=-1.0)
        with pytest.raises(ValueError):
            PredictionCache(oracle_provider, deviation_km=-0.1)
