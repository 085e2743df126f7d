"""Tests for online matching-rate recalibration."""

import numpy as np
import pytest

from repro.pipeline.adaptive import AdaptiveMRSnapshotProvider, MatchingRateTracker


class TestTracker:
    def test_prior_dominates_initially(self):
        tracker = MatchingRateTracker(strength=8.0)
        assert tracker.posterior(0, 0.7) == pytest.approx(0.7)

    def test_rejections_demote(self):
        tracker = MatchingRateTracker(strength=4.0)
        for _ in range(8):
            tracker.record(0, accepted=False)
        assert tracker.posterior(0, 0.9) < 0.5

    def test_accepts_promote(self):
        tracker = MatchingRateTracker(strength=4.0)
        for _ in range(8):
            tracker.record(0, accepted=True)
        assert tracker.posterior(0, 0.1) > 0.5

    def test_converges_to_empirical_rate(self):
        tracker = MatchingRateTracker(strength=2.0)
        for i in range(300):
            tracker.record(0, accepted=(i % 4 != 0))  # 75% accept
        assert tracker.posterior(0, 0.2) == pytest.approx(0.75, abs=0.03)

    def test_workers_tracked_independently(self):
        tracker = MatchingRateTracker()
        tracker.record(0, True)
        tracker.record(1, False)
        assert tracker.posterior(0, 0.5) > tracker.posterior(1, 0.5)

    def test_observations(self):
        tracker = MatchingRateTracker()
        tracker.record(3, True)
        tracker.record(3, False)
        tracker.record(3, False)
        assert tracker.observations(3) == (1, 2)
        assert tracker.observations(99) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchingRateTracker(strength=0.0)
        with pytest.raises(ValueError):
            MatchingRateTracker().posterior(0, 1.5)


class TestAdaptiveProvider:
    class _FakeBase:
        """Stands in for PredictiveSnapshotProvider."""

        def __call__(self, worker, t):
            from repro.geo.point import Point
            from repro.sc.entities import WorkerSnapshot

            return WorkerSnapshot(
                worker_id=worker.worker_id,
                current_location=Point(0, 0),
                predicted_xy=np.array([[1.0, 0.0]]),
                predicted_times=np.array([t + 10.0]),
                detour_budget_km=4.0,
                speed_km_per_min=0.5,
                matching_rate=0.6,
            )

    class _FakeWorker:
        worker_id = 7

    def test_substitutes_posterior(self):
        provider = AdaptiveMRSnapshotProvider(base=self._FakeBase())
        snap = provider(self._FakeWorker(), 0.0)
        assert snap.matching_rate == pytest.approx(0.6)  # prior only
        for _ in range(10):
            provider.outcome_listener(0, 7, False, 0.0)
        snap = provider(self._FakeWorker(), 2.0)
        assert snap.matching_rate < 0.4

    def test_end_to_end_with_platform(self):
        """The wiring advertised in the docstring actually works."""
        from repro.assignment.baselines import km_assign
        from repro.geo.point import Point
        from repro.geo.trajectory import Trajectory, TrajectoryPoint
        from repro.sc.entities import SpatialTask, Worker
        from repro.serve.engine import ServeConfig, ServeEngine

        worker = Worker(
            worker_id=7,
            routine=Trajectory([
                TrajectoryPoint(Point(0, 0), 0.0),
                TrajectoryPoint(Point(5, 0), 50.0),
            ]),
            detour_budget_km=4.0,
            speed_km_per_min=0.5,
        )
        provider = AdaptiveMRSnapshotProvider(base=self._FakeBase())
        engine = ServeEngine(
            [worker], provider, ServeConfig(batch_window=5.0), assign_fn=km_assign
        )
        tasks = [SpatialTask(0, Point(1.0, 0.1), 0.0, 60.0)]
        result = engine.run(tasks, 0.0, 30.0, outcome_listener=provider.outcome_listener)
        accepts, rejects = provider.tracker.observations(7)
        assert accepts + rejects == result.n_assignments
