"""Failure-injection tests: degenerate inputs the pipeline must survive."""

import numpy as np
import pytest

from repro.assignment.baselines import km_assign, lower_bound_assign
from repro.assignment.ppi import ppi_assign
from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.pipeline import AssignmentConfig
from repro.pipeline.prediction import CurrentLocationSnapshotProvider, _recent_shared_track
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot

from tests.test_sc import serve


def point_worker(worker_id=0, x=0.0, y=0.0, t0=0.0, t1=100.0):
    """A worker who never moves."""
    return Worker(
        worker_id=worker_id,
        routine=Trajectory([
            TrajectoryPoint(Point(x, y), t0),
            TrajectoryPoint(Point(x, y + 1e-9), t1),
        ]),
        detour_budget_km=4.0,
        speed_km_per_min=0.5,
    )


class TestDegenerateWorkers:
    def test_stationary_worker_serves_local_task(self):
        w = point_worker()
        provider = CurrentLocationSnapshotProvider()
        tasks = [SpatialTask(0, Point(0.5, 0.0), 0.0, 60.0)]
        result = serve(
            [w], tasks, lower_bound_assign, 0.0, 60.0,
            provider=provider, batch_window=5.0,
        )
        assert result.n_completed == 1

    def test_worker_with_zero_matching_rate(self):
        snap = WorkerSnapshot(
            worker_id=0,
            current_location=Point(0, 0),
            predicted_xy=np.array([[1.0, 0.0]]),
            predicted_times=np.array([10.0]),
            detour_budget_km=4.0,
            speed_km_per_min=0.5,
            matching_rate=0.0,
        )
        tasks = [SpatialTask(0, Point(1.0, 0.1), 0.0, 40.0)]
        plan = ppi_assign(tasks, [snap], 0.0)
        # Zero MR forces stage 2/3 but the pair is still assignable.
        assert len(plan) == 1
        assert plan.pairs[0].stage >= 2

    def test_recent_track_pads_before_first_sample(self):
        w = point_worker(t0=50.0, t1=100.0)
        xy, ts = _recent_shared_track(w, t=10.0, seq_in=5)
        assert len(xy) == 5  # padded by repetition
        assert np.isfinite(xy).all()


class TestDegenerateTasks:
    def test_all_tasks_expired_before_start(self):
        w = point_worker()
        provider = CurrentLocationSnapshotProvider()
        tasks = [SpatialTask(i, Point(0.1, 0.0), 0.0, 5.0) for i in range(3)]
        result = serve(
            [w], tasks, lower_bound_assign, 10.0, 60.0,
            provider=provider, batch_window=5.0,
        )
        assert result.n_completed == 0
        assert result.n_expired == 3

    def test_tasks_unreachable_by_anyone(self):
        w = point_worker()
        provider = CurrentLocationSnapshotProvider()
        tasks = [SpatialTask(0, Point(500.0, 500.0), 0.0, 60.0)]
        result = serve(
            [w], tasks, km_assign, 0.0, 60.0,
            provider=provider, batch_window=5.0,
        )
        assert result.n_assignments == 0
        assert result.n_expired == 1

    def test_simultaneous_release_burst(self):
        """A burst larger than the worker pool must not break matching."""
        workers = [point_worker(i, x=float(i)) for i in range(3)]
        provider = CurrentLocationSnapshotProvider()
        tasks = [SpatialTask(i, Point(float(i % 3), 0.2), 0.0, 120.0) for i in range(20)]
        result = serve(
            workers, tasks, lower_bound_assign, 0.0, 120.0,
            provider=provider, batch_window=5.0, assignment_window=None,
        )
        assert result.n_completed > 0
        assert result.n_completed + result.n_expired == 20


class TestNumericalEdges:
    def test_snapshot_with_identical_predicted_points(self):
        pts = np.zeros((6, 2))
        snap = WorkerSnapshot(
            worker_id=0,
            current_location=Point(0, 0),
            predicted_xy=pts,
            predicted_times=10.0 * np.arange(1, 7),
            detour_budget_km=4.0,
            speed_km_per_min=0.5,
            matching_rate=0.5,
        )
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 40.0)]
        plan = ppi_assign(tasks, [snap], 0.0)
        assert len(plan) == 1
        assert np.isfinite(plan.pairs[0].score)

    def test_task_exactly_on_bound(self):
        # dis_min == bound: stage 3 edge is inclusive.
        snap = WorkerSnapshot(
            worker_id=0,
            current_location=Point(0, 0),
            predicted_xy=np.array([[2.0, 0.0]]),
            predicted_times=np.array([10.0]),
            detour_budget_km=4.0,  # bound d/2 = 2.0
            speed_km_per_min=10.0,
            matching_rate=0.5,
        )
        tasks = [SpatialTask(0, Point(0.0, 0.0), 0.0, 1000.0)]
        plan = km_assign(tasks, [snap], 0.0)
        assert len(plan) == 1

    def test_assignment_window_none_disables_cancellation(self):
        w = point_worker()
        provider = CurrentLocationSnapshotProvider()
        # Task released at 0 with a generous deadline; the worker can't be
        # matched in the first window but is still eligible at t=50.
        tasks = [SpatialTask(0, Point(0.1, 0.0), 0.0, 90.0)]
        result = serve(
            [w], tasks, lower_bound_assign, 0.0, 90.0,
            provider=provider, batch_window=5.0, assignment_window=None,
        )
        assert result.n_completed == 1
