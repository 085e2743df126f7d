"""Edge-case tests for the paper's batch loop (``ServeEngine`` defaults).

Covers plan validation (a buggy ``assign_fn`` must fail loudly, not as
a ``KeyError`` deep in the acceptance loop) and the timing boundaries:
deadlines landing exactly on a batch tick, assignment windows racing a
release, workers becoming free exactly at batch time, and degenerate
zero-length horizons.
"""

from dataclasses import replace

import pytest

from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.geo.point import Point
from repro.pipeline.config import AssignmentConfig
from repro.pipeline.experiment import run_assignment
from repro.sc.entities import SpatialTask
from repro.sc.platform import validate_plan

from tests.conftest import straight_trajectory
from tests.test_sc import greedy_assign, make_worker, serve


def plan_of(*pairs):
    plan = AssignmentPlan()
    for task_id, worker_id in pairs:
        plan.add(AssignmentPair(task_id, worker_id, 1.0))
    return plan


class TestValidatePlan:
    PENDING = {0: None, 1: None}
    WORKERS = {10: None, 11: None}

    def test_accepts_valid_plan(self):
        validate_plan(plan_of((0, 10), (1, 11)), self.PENDING, self.WORKERS)

    def test_accepts_empty_plan(self):
        validate_plan(plan_of(), self.PENDING, self.WORKERS)

    def test_rejects_duplicate_task(self):
        # AssignmentPlan.add already guards duplicates, but assign_fn is
        # pluggable and may return any iterable of pairs — a raw list
        # models a buggy custom plan.
        pairs = [AssignmentPair(0, 10, 1.0), AssignmentPair(0, 11, 1.0)]
        with pytest.raises(ValueError, match="task 0 assigned more than once"):
            validate_plan(pairs, self.PENDING, self.WORKERS)

    def test_rejects_duplicate_worker(self):
        pairs = [AssignmentPair(0, 10, 1.0), AssignmentPair(1, 10, 1.0)]
        with pytest.raises(ValueError, match="worker 10 assigned more than once"):
            validate_plan(pairs, self.PENDING, self.WORKERS)

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError, match="task 7 is not pending"):
            validate_plan(plan_of((7, 10)), self.PENDING, self.WORKERS)

    def test_rejects_unknown_worker(self):
        with pytest.raises(ValueError, match="worker 99 is unknown"):
            validate_plan(plan_of((0, 99)), self.PENDING, self.WORKERS)

    def test_platform_surfaces_invalid_plan(self):
        """Regression: a buggy assign_fn used to die with a KeyError."""
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]

        def buggy_assign(batch_tasks, snapshots, t):
            return plan_of((12345, snapshots[0].worker_id))

        with pytest.raises(ValueError, match="task 12345 is not pending"):
            serve([w], tasks, buggy_assign, 0.0, 60.0)

    def test_platform_surfaces_phantom_worker(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]

        def phantom_worker(batch_tasks, snapshots, t):
            return plan_of((batch_tasks[0].task_id, 777))

        with pytest.raises(ValueError, match="worker 777 is unknown"):
            serve([w], tasks, phantom_worker, 0.0, 60.0)


class TestDeadlineBoundary:
    def test_batch_at_deadline_still_assigns(self):
        """A batch firing exactly at the deadline gets one last attempt."""
        w = make_worker()
        # Released between ticks; deadline lands exactly on the t=4 tick,
        # where the worker's routine passes right through the task.
        tasks = [SpatialTask(0, Point(0.4, 0.0), 3.0, 4.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0)
        assert result.n_completed == 1
        assert result.n_expired == 0
        assert result.batches[0].batch_time == pytest.approx(4.0)

    def test_expires_strictly_after_deadline(self):
        """Unserved past the deadline tick, the task expires at the next."""
        w = make_worker(detour=0.5)
        # 3 km off-route: proposed and rejected at t=4, expired at t=6.
        tasks = [SpatialTask(0, Point(5.0, 3.0), 3.0, 4.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0)
        assert result.n_completed == 0
        assert result.n_expired == 1
        assert result.n_assignments == 1

    def test_deadline_between_ticks_gets_no_extra_batch(self):
        """A deadline strictly inside a window dies with the prior tick."""
        w = make_worker(detour=0.5)
        tasks = [SpatialTask(0, Point(5.0, 3.0), 0.0, 3.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0)
        # Attempted at t=0 and t=2 only; t=4 is past the deadline.
        assert result.n_assignments == 2
        assert result.n_expired == 1


class TestAssignmentWindowBoundary:
    def test_window_closing_on_tick_still_assigns(self):
        """release + window == tick: the task is matchable at that tick."""
        w = make_worker()
        # Released at t=1 (enters the t=2 batch); window closes at t=4,
        # exactly on a tick — expiry is strict (t > release + window).
        tasks = [SpatialTask(0, Point(5.0, 0.0), 1.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0, assignment_window=3.0)
        assert result.n_completed == 1

    def test_window_expiry_races_release(self):
        """A task whose window closes before its first batch never matches."""
        w = make_worker(detour=0.5)
        # Rejected at t=2 and t=4 (3 km off-route); cancelled at t=6
        # since 6 > 1 + 3, well before the deadline.
        tasks = [SpatialTask(0, Point(5.0, 3.0), 1.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0, assignment_window=3.0)
        assert result.n_completed == 0
        assert result.n_expired == 1
        assert result.n_assignments == 2

    def test_release_after_window_would_close_is_dead_on_arrival(self):
        w = make_worker()
        # Released at t=1, the requester cancels at t=2, before the first
        # tick after release (t=4): no assignment attempt.
        tasks = [SpatialTask(0, Point(5.0, 0.0), 1.0, 60.0)]
        result = serve(
            [w], tasks, greedy_assign, 0.0, 12.0, batch_window=4.0, assignment_window=1.0
        )
        assert result.n_assignments == 0
        assert result.n_expired == 1


class TestBusyBoundary:
    def test_busy_until_exactly_at_batch_time_is_available(self):
        """busy_until == t means free: the <= comparison is inclusive."""
        w = make_worker()
        # Task 0 accepted on-route at t=0 -> busy_until = 0 + 2 + 0 = 2.0,
        # so the worker is available again exactly at the t=2 batch.
        tasks = [
            SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0),
            SpatialTask(1, Point(6.0, 0.0), 1.0, 60.0),
        ]
        result = serve([w], tasks, greedy_assign, 0.0, 10.0)
        assert result.n_completed == 2
        times = [b.batch_time for b in result.batches if b.n_accepted]
        assert times == [pytest.approx(0.0), pytest.approx(2.0)]


class TestZeroBatchHorizons:
    def test_point_horizon_runs_exactly_one_batch(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 0.0)
        assert len(result.batches) == 1
        assert result.n_completed == 1

    def test_point_horizon_with_nothing_released(self):
        w = make_worker()
        # Released after the horizon: never pending, never expired.
        tasks = [SpatialTask(0, Point(5.0, 0.0), 5.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 0.0)
        assert result.batches == []
        assert result.n_completed == 0
        assert result.n_expired == 0

    def test_horizon_shorter_than_window_still_fires_start_batch(self):
        w = make_worker()
        tasks = [SpatialTask(0, Point(5.0, 0.0), 0.0, 60.0)]
        result = serve([w], tasks, greedy_assign, 0.0, 1.0, batch_window=10.0)
        assert len(result.batches) == 1
        assert result.n_completed == 1


class TestRaggedHorizon:
    def test_task_released_after_last_tick_is_conserved(self, small_workload):
        """A horizon off the window grid: the last tick is t=4, the task
        arrives at t=5 and the horizon ends at t=5.5 before the next
        tick.  It must still end in a terminal state (expired)."""
        w = make_worker(routine=straight_trajectory(t1=5.5))
        workload = replace(
            small_workload,
            workers=[w],
            tasks=[SpatialTask(0, Point(5.0, 0.0), 5.0, 5.5)],
        )
        assert workload.horizon() == (0.0, 5.5)
        result = run_assignment(workload, "lb", AssignmentConfig(batch_window=2.0))
        assert result.n_tasks == 1
        assert result.n_completed + result.n_expired == result.n_tasks
        assert result.n_expired == 1
