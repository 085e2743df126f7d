"""Tests for the spatial crowdsourcing model and the paper's batch loop."""

import math

import numpy as np
import pytest

from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.sc.acceptance import evaluate_acceptance, oracle_future_route
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.metrics import AssignmentMetrics
from repro.serve.engine import ServeConfig, ServeEngine

from tests.conftest import straight_trajectory


def make_worker(worker_id=0, detour=4.0, speed=1.0, routine=None):
    return Worker(
        worker_id=worker_id,
        routine=routine if routine is not None else straight_trajectory(t1=100.0),
        detour_budget_km=detour,
        speed_km_per_min=speed,
    )


class TestEntities:
    def test_task_validates_deadline(self):
        with pytest.raises(ValueError):
            SpatialTask(0, Point(0, 0), release_time=10.0, deadline=5.0)

    @pytest.mark.parametrize(
        "field, location, release, deadline",
        [
            ("location", Point(math.nan, 0.0), 0.0, 5.0),
            ("location", Point(0.0, math.inf), 0.0, 5.0),
            ("release_time", Point(0.0, 0.0), -math.inf, 5.0),
            ("release_time", Point(0.0, 0.0), math.nan, 5.0),
            ("deadline", Point(0.0, 0.0), 0.0, math.nan),
            ("deadline", Point(0.0, 0.0), 0.0, math.inf),
        ],
    )
    def test_task_rejects_non_finite_fields(self, field, location, release, deadline):
        # A NaN deadline passes ``deadline <= release_time`` and would
        # enter the event heap with a NaN time.
        with pytest.raises(ValueError, match=f"task 7: {field} must be finite"):
            SpatialTask(7, location, release_time=release, deadline=deadline)

    def test_task_valid_minutes(self):
        t = SpatialTask(0, Point(0, 0), 10.0, 40.0)
        assert t.valid_minutes == 30.0

    def test_worker_validates(self):
        with pytest.raises(ValueError):
            make_worker(detour=-1.0)
        with pytest.raises(ValueError):
            make_worker(speed=0.0)

    def test_worker_online_window(self):
        w = make_worker()
        assert w.availability_start() <= 50.0 <= w.availability_end()
        assert w.availability_end() < 150.0

    def test_snapshot_validates(self):
        with pytest.raises(ValueError):
            WorkerSnapshot(0, Point(0, 0), np.zeros((2, 2)), np.zeros(3), 4.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            WorkerSnapshot(0, Point(0, 0), np.zeros((1, 2)), np.zeros(1), 4.0, 1.0, 1.5)

    BAD_BUDGETS = [math.nan, math.inf, -math.inf, -1.0, -1e-12]
    BAD_SPEEDS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_worker_rejects_bad_budget_naming_the_worker(self, budget):
        with pytest.raises(
            ValueError, match=r"worker 5: detour_budget_km must be finite and non-negative, got "
        ):
            Worker(5, straight_trajectory(t1=100.0), detour_budget_km=budget, speed_km_per_min=1.0)

    @pytest.mark.parametrize("speed", BAD_SPEEDS)
    def test_worker_rejects_bad_speed_naming_the_worker(self, speed):
        with pytest.raises(
            ValueError, match=r"worker 5: speed_km_per_min must be finite and positive, got "
        ):
            Worker(5, straight_trajectory(t1=100.0), detour_budget_km=4.0, speed_km_per_min=speed)

    def test_worker_error_shows_the_value(self):
        routine = straight_trajectory(t1=100.0)
        with pytest.raises(ValueError) as speed_error:
            Worker(5, routine, detour_budget_km=4.0, speed_km_per_min=math.nan)
        assert str(speed_error.value) == "worker 5: speed_km_per_min must be finite and positive, got nan"
        # The budget is checked first.
        with pytest.raises(ValueError) as budget_error:
            Worker(5, routine, detour_budget_km=-1.0, speed_km_per_min=math.nan)
        assert str(budget_error.value) == "worker 5: detour_budget_km must be finite and non-negative, got -1.0"

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_snapshot_rejects_bad_budget_naming_the_worker(self, budget):
        # A NaN budget used to pass and make every pair infeasible.
        with pytest.raises(
            ValueError, match=r"worker 9: detour_budget_km must be finite and non-negative, got "
        ):
            WorkerSnapshot(9, Point(0, 0), np.zeros((1, 2)), np.ones(1), budget, 1.0, 0.5)

    @pytest.mark.parametrize("speed", BAD_SPEEDS)
    def test_snapshot_rejects_bad_speed_naming_the_worker(self, speed):
        # Speed 0 used to fail only inside PPI's Theorem 2 bound.
        with pytest.raises(
            ValueError, match=r"worker 9: speed_km_per_min must be finite and positive, got "
        ):
            WorkerSnapshot(9, Point(0, 0), np.zeros((1, 2)), np.ones(1), 4.0, speed, 0.5)


class TestAcceptance:
    def test_accepts_task_on_route(self):
        w = make_worker()
        task = SpatialTask(0, Point(5.0, 0.0), 0.0, 90.0)
        decision = evaluate_acceptance(w, task, current_time=0.0)
        assert decision.accepted
        assert decision.detour_km == pytest.approx(0.0, abs=1e-9)

    def test_rejects_far_task(self):
        w = make_worker(detour=2.0)
        task = SpatialTask(0, Point(5.0, 50.0), 0.0, 1000.0)
        decision = evaluate_acceptance(w, task, current_time=0.0)
        assert not decision.accepted

    def test_rejects_when_deadline_unreachable(self):
        w = make_worker(detour=100.0, speed=0.1)
        # 50 km off-route, deadline in 10 minutes.
        task = SpatialTask(0, Point(5.0, 50.0), 0.0, 10.0)
        decision = evaluate_acceptance(w, task, current_time=0.0)
        assert not decision.accepted
        assert decision.detour_km == np.inf

    def test_accepts_near_detour(self):
        w = make_worker(detour=4.0)
        task = SpatialTask(0, Point(5.0, 1.0), 0.0, 90.0)
        decision = evaluate_acceptance(w, task, current_time=0.0)
        assert decision.accepted
        assert 0 < decision.detour_km <= 4.0

    def test_past_route_ignored(self):
        """Branch points before current_time are not available."""
        w = make_worker(detour=1.0, speed=1.0)
        # Task near the start of the route, but the worker is already at the end.
        task = SpatialTask(0, Point(0.0, 0.4), 0.0, 1000.0)
        at_start = evaluate_acceptance(w, task, current_time=0.0)
        at_end = evaluate_acceptance(w, task, current_time=99.0)
        assert at_start.accepted
        assert not at_end.accepted

    def test_arrival_time_respects_speed(self):
        w = make_worker(speed=0.5)
        task = SpatialTask(0, Point(0.0, 1.0), 0.0, 90.0)
        decision = evaluate_acceptance(w, task, current_time=0.0)
        assert decision.accepted
        assert decision.arrival_time == pytest.approx(2.0)  # 1 km at 0.5 km/min

    def test_oracle_future_route(self):
        w = make_worker()
        xy, times = oracle_future_route(w, current_time=45.0, horizon=3)
        assert len(xy) == 4  # current + 3 future
        assert times[0] == 45.0
        assert all(t > 45.0 for t in times[1:])


class TestMetrics:
    def test_compute(self):
        m = AssignmentMetrics.compute(10, 6, 8, 2, [1.0, 2.0], 0.5)
        assert m.completion_ratio == 0.6
        assert m.rejection_ratio == 0.25
        assert m.worker_cost_km == 1.5
        assert m.running_seconds == 0.5

    def test_zero_division_guards(self):
        m = AssignmentMetrics.compute(0, 0, 0, 0, [], 0.0)
        assert m.completion_ratio == 0.0
        assert m.rejection_ratio == 0.0
        assert m.worker_cost_km == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AssignmentMetrics.compute(1, 2, 0, 0, [], 0.0)
        with pytest.raises(ValueError):
            AssignmentMetrics.compute(1, 0, 1, 2, [], 0.0)
        with pytest.raises(ValueError):
            AssignmentMetrics.compute(-1, 0, 0, 0, [], 0.0)

    def test_as_row(self):
        row = AssignmentMetrics.compute(4, 2, 2, 0, [1.0], 0.1).as_row()
        assert set(row) == {"completion_ratio", "rejection_ratio", "worker_cost_km", "running_seconds"}


def oracle_provider(worker, t):
    xy, times = oracle_future_route(worker, t, 6)
    return WorkerSnapshot(
        worker_id=worker.worker_id,
        current_location=worker.location_at(t),
        predicted_xy=xy,
        predicted_times=times,
        detour_budget_km=worker.detour_budget_km,
        speed_km_per_min=worker.speed_km_per_min,
        matching_rate=1.0,
    )


def greedy_assign(tasks, snapshots, t):
    """Assign each task to the nearest unused worker (test stub)."""
    plan = AssignmentPlan()
    used = set()
    for task in tasks:
        best, best_d = None, np.inf
        for s in snapshots:
            if s.worker_id in used:
                continue
            d = s.current_location.distance_to(task.location)
            if d < best_d:
                best, best_d = s, d
        if best is not None:
            plan.add(AssignmentPair(task.task_id, best.worker_id, 1.0))
            used.add(best.worker_id)
    return plan


def serve(workers, tasks, assign_fn, t_start, t_end, provider=oracle_provider, **config):
    """Run ``tasks`` through the engine in the paper's configuration
    (``ServeConfig`` defaults, overridden by ``config``)."""
    engine = ServeEngine(workers, provider, ServeConfig(**config), assign_fn=assign_fn)
    return engine.run(tasks, t_start, t_end)


class TestBatchPlatform:
    """The paper's batch loop: ``ServeEngine`` under ``ServeConfig()``."""

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            ServeConfig(batch_window=0.0)
        w = make_worker()
        with pytest.raises(ValueError):
            ServeEngine([w, make_worker(0)], oracle_provider, assign_fn=greedy_assign)

    def test_completes_easy_task(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 60.0)
        assert result.n_completed == 1
        assert result.n_rejections == 0

    def test_expires_unserviceable_task(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(50.0, 50.0), 0.0, 10.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 60.0)
        assert result.n_completed == 0
        assert result.n_expired == 1

    def test_rejected_task_carries_over(self):
        """A task rejected in one batch is retried in the next."""
        w = make_worker(detour=1.0)
        # Task 3 km off-route: rejected by the detour budget every time.
        tasks = [SpatialTask(0, Point(5.0, 3.0), 0.0, 30.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 40.0)
        assert result.n_completed == 0
        assert result.n_rejections >= 2  # retried across batches
        assert result.n_expired == 1

    def test_busy_worker_not_reassigned(self):
        w = make_worker()
        tasks = [
            SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0),
            SpatialTask(1, Point(6.0, 0.0), 0.0, 8.0),
        ]
        result = serve([w], tasks, greedy_assign, 0.0, 60.0)
        # Both released at t=0; one is taken; the other waits while the
        # worker is busy and may expire before a second batch fires.
        assert result.n_completed >= 1
        per_batch_assignments = [b.n_assigned for b in result.batches]
        assert all(a <= 1 for a in per_batch_assignments)

    def test_task_counts_are_conserved(self, small_workload):
        wl = small_workload
        t0, t1 = wl.horizon()
        result = serve(wl.workers, wl.tasks, greedy_assign, t0, t1)
        assert result.n_completed + result.n_expired == result.n_tasks

    def test_duplicate_task_ids_rejected(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(1, 0), 0.0, 10.0), SpatialTask(0, Point(2, 0), 0.0, 10.0)]
        with pytest.raises(ValueError):
            serve([w], tasks, greedy_assign, 0.0, 10.0)

    def test_time_window_validated(self):
        with pytest.raises(ValueError):
            serve([make_worker()], [], greedy_assign, 10.0, 0.0)

    def test_metrics_wired_through(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 60.0)
        m = result.metrics()
        assert m.completion_ratio == 1.0
        assert m.rejection_ratio == 0.0
