"""Tests for the event-driven serving engine and its building blocks."""

import pytest

from repro.geo.point import Point
from repro.sc.entities import SpatialTask
from repro.serve import (
    BatchTick,
    DemandAdaptiveTrigger,
    EventPhase,
    EventQueue,
    FixedWindowTrigger,
    ServeConfig,
    ServeEngine,
    ServeResult,
    TaskArrival,
    TaskCancel,
    TaskDeadline,
    WorkerCheckIn,
    WorkerCheckOut,
)

from tests.conftest import straight_trajectory
from tests.test_sc import greedy_assign, make_worker, oracle_provider


def task_at(task_id, x, y, release, deadline):
    return SpatialTask(task_id, Point(x, y), release, deadline)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(TaskDeadline(time=5.0, task_id=1))
        q.push(TaskArrival(time=1.0, task=task_at(0, 0, 0, 1.0, 9.0)))
        q.push(BatchTick(time=3.0))
        assert [e.time for e in (q.pop(), q.pop(), q.pop())] == [1.0, 3.0, 5.0]

    def test_phase_order_at_equal_time(self):
        """At one timestamp: arrivals/check-ins, then the batch, then
        deadlines/cancellations/check-outs."""
        q = EventQueue()
        w = make_worker()
        q.push(TaskCancel(time=2.0, task_id=0))
        q.push(WorkerCheckOut(time=2.0, worker_id=0))
        q.push(BatchTick(time=2.0))
        q.push(TaskDeadline(time=2.0, task_id=1))
        q.push(WorkerCheckIn(time=2.0, worker=w))
        q.push(TaskArrival(time=2.0, task=task_at(0, 0, 0, 2.0, 9.0)))
        phases = [q.pop().phase for _ in range(6)]
        assert phases == [
            EventPhase.OPEN,
            EventPhase.OPEN,
            EventPhase.BATCH,
            EventPhase.CLOSE,
            EventPhase.CLOSE,
            EventPhase.CLOSE,
        ]

    def test_fifo_within_phase(self):
        q = EventQueue()
        for task_id in range(5):
            q.push(TaskDeadline(time=1.0, task_id=task_id))
        assert [q.pop().task_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_and_len(self):
        q = EventQueue()
        assert not q
        q.push(BatchTick(time=4.0))
        q.push(BatchTick(time=2.0))
        assert len(q) == 2
        assert q.peek_time() == 2.0
        q.pop()
        assert q.peek_time() == 4.0


class TestTriggers:
    def test_fixed_never_fires_early(self):
        trig = FixedWindowTrigger(window=2.0)
        pending = {0: task_at(0, 0, 0, 0.0, 0.1)}
        assert not trig.should_fire_early(1.0, 0.0, pending)
        assert trig.next_tick(4.0) == 6.0

    def test_fixed_validates_window(self):
        with pytest.raises(ValueError):
            FixedWindowTrigger(window=0.0)

    def test_adaptive_fires_on_queue_pressure(self):
        trig = DemandAdaptiveTrigger(window=2.0, pending_threshold=2)
        near = {i: task_at(i, 0, 0, 0.0, 60.0) for i in range(2)}
        assert trig.should_fire_early(1.0, 0.0, near)
        assert not trig.should_fire_early(1.0, 0.0, {0: near[0]})

    def test_adaptive_fires_on_deadline_pressure(self):
        trig = DemandAdaptiveTrigger(window=2.0, deadline_slack=1.0)
        assert trig.should_fire_early(1.0, 0.0, {0: task_at(0, 0, 0, 0.0, 1.5)})
        assert not trig.should_fire_early(1.0, 0.0, {0: task_at(0, 0, 0, 0.0, 60.0)})

    def test_adaptive_respects_refractory_interval(self):
        trig = DemandAdaptiveTrigger(window=2.0, pending_threshold=1, min_interval=0.5)
        pending = {0: task_at(0, 0, 0, 0.0, 60.0)}
        assert not trig.should_fire_early(0.4, 0.0, pending)
        assert trig.should_fire_early(0.5, 0.0, pending)

    def test_adaptive_validates(self):
        with pytest.raises(ValueError):
            DemandAdaptiveTrigger(pending_threshold=0)
        with pytest.raises(ValueError):
            DemandAdaptiveTrigger(deadline_slack=-1.0)
        with pytest.raises(ValueError):
            DemandAdaptiveTrigger(min_interval=0.0)


class TestServeConfig:
    def test_defaults_are_batch_platform(self):
        cfg = ServeConfig()
        assert cfg.trigger == "fixed"
        assert cfg.max_pending is None
        assert cfg.cache_ttl == 0.0
        assert not cfg.use_index

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window": 0.0},
            {"assignment_window": 0.0},
            {"trigger": "eager"},
            {"max_pending": 0},
            {"cache_ttl": -1.0},
            {"index_cell_km": 0.0},
            {"max_candidates": 0},
        ],
    )
    def test_validates(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"cache_deviation_km": -1.0}, "cache_deviation_km"),
            ({"trigger": "adaptive", "min_trigger_interval": 0.0}, "interval"),
            ({"trigger": "adaptive", "pending_threshold": 0}, "threshold"),
            ({"trigger": "adaptive", "deadline_slack": -1.0}, "slack"),
        ],
    )
    def test_rejects_bad_knobs_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**kwargs)

    def test_makes_matching_trigger(self):
        assert isinstance(ServeConfig().make_trigger(), FixedWindowTrigger)
        adaptive = ServeConfig(trigger="adaptive", pending_threshold=3).make_trigger()
        assert isinstance(adaptive, DemandAdaptiveTrigger)
        assert adaptive.pending_threshold == 3


def make_engine(workers=None, config=None, assign_fn=greedy_assign, **kwargs):
    return ServeEngine(
        workers if workers is not None else [make_worker()],
        oracle_provider,
        config=config,
        assign_fn=assign_fn,
        **kwargs,
    )


class TestServeEngine:
    def test_requires_assign_fn(self):
        with pytest.raises(ValueError, match="assignment function"):
            ServeEngine([make_worker()], oracle_provider, assign_fn=None)

    def test_index_requires_candidate_fn(self):
        with pytest.raises(ValueError, match="candidate-aware"):
            make_engine(config=ServeConfig(use_index=True))

    def test_rejects_duplicate_worker_ids(self):
        with pytest.raises(ValueError, match="unique"):
            make_engine(workers=[make_worker(0), make_worker(0)])

    def test_rejects_duplicate_task_ids(self):
        engine = make_engine()
        tasks = [task_at(0, 1, 0, 0.0, 10.0), task_at(0, 2, 0, 0.0, 10.0)]
        with pytest.raises(ValueError, match="unique"):
            engine.run(tasks, 0.0, 10.0)

    def test_rejects_inverted_horizon(self):
        with pytest.raises(ValueError):
            make_engine().run([], 10.0, 0.0)

    def test_completes_easy_task(self):
        result = make_engine().run([task_at(0, 5.0, 0.0, 0.0, 60.0)], 0.0, 60.0)
        assert result.n_completed == 1
        assert result.n_batches == len(result.batches) >= 1

    def test_counts_are_conserved(self):
        tasks = [
            task_at(i, 1.0 + i, (i % 3) * 2.0, float(i), float(i) + 15.0) for i in range(12)
        ]
        result = make_engine().run(tasks, 0.0, 30.0)
        assert result.n_completed + result.n_expired + result.n_shed == result.n_tasks

    def test_counts_conserved_under_shedding(self):
        tasks = [task_at(i, 50.0, 50.0, 0.5, 30.0 + i) for i in range(10)]
        engine = make_engine(config=ServeConfig(max_pending=3))
        result = engine.run(tasks, 0.0, 30.0)
        assert result.n_shed == 7
        assert result.n_completed + result.n_expired + result.n_shed == result.n_tasks

    def test_shedding_prefers_least_slack_victim(self):
        """The queue keeps the tasks with the most deadline headroom."""
        far = [task_at(i, 50.0, 50.0, 0.0, 10.0 + i) for i in range(3)]
        # Arrives later with a later deadline than every queued task: the
        # queued task with the earliest deadline is shed to make room.
        late = task_at(99, 50.0, 50.0, 0.5, 60.0)
        engine = make_engine(config=ServeConfig(max_pending=3))
        batches = []

        def snooping_assign(batch_tasks, snapshots, t):
            batches.append(sorted(t.task_id for t in batch_tasks))
            return greedy_assign([], snapshots, t)

        engine.assign_fn = snooping_assign
        result = engine.run(far + [late], 0.0, 4.0)
        assert result.n_shed == 1
        # First batch (t=0) predates the late arrival; after it lands,
        # task 0 (deadline 10.0, the least slack) has been shed.
        assert batches[-1] == [1, 2, 99]

    def test_new_task_shed_when_it_has_least_slack(self):
        roomy = [task_at(i, 50.0, 50.0, 0.0, 60.0 + i) for i in range(3)]
        urgent = task_at(99, 50.0, 50.0, 0.5, 5.0)
        engine = make_engine(config=ServeConfig(max_pending=3))
        batches = []

        def snooping_assign(batch_tasks, snapshots, t):
            batches.append(sorted(t.task_id for t in batch_tasks))
            return greedy_assign([], snapshots, t)

        engine.assign_fn = snooping_assign
        result = engine.run(roomy + [urgent], 0.0, 4.0)
        assert result.n_shed == 1
        assert batches[-1] == [0, 1, 2]  # the urgent newcomer was shed

    def test_adaptive_trigger_fires_early_batches(self):
        tasks = [task_at(i, 1.0, 0.0, 0.5 + 0.01 * i, 60.0) for i in range(5)]
        engine = make_engine(
            config=ServeConfig(trigger="adaptive", pending_threshold=3, min_trigger_interval=0.25)
        )
        result = engine.run(tasks, 0.0, 10.0)
        assert result.n_early_batches >= 1
        early_times = [b.batch_time for b in result.batches]
        # An early batch fired between the scheduled t=0 and t=2 ticks.
        assert any(0.0 < t < 2.0 for t in early_times)

    def test_fixed_trigger_keeps_cadence(self):
        tasks = [task_at(i, 1.0, 0.0, 0.5, 60.0) for i in range(5)]
        result = make_engine().run(tasks, 0.0, 10.0)
        assert result.n_early_batches == 0
        for record in result.batches:
            assert record.batch_time == pytest.approx(round(record.batch_time / 2.0) * 2.0)

    def test_worker_checkin_checkout_window(self):
        """Batches only see workers inside their routine time span."""
        w = make_worker(routine=straight_trajectory(t0=10.0, t1=20.0))
        engine = make_engine(workers=[w])
        tasks = [task_at(0, 5.0, 0.0, 0.0, 60.0)]
        result = engine.run(tasks, 0.0, 30.0)
        for record in result.batches:
            assert 10.0 <= record.batch_time <= 20.0

    def test_dead_on_arrival_expires_without_attempt(self):
        engine = make_engine(config=ServeConfig(batch_window=4.0, assignment_window=1.0))
        # Window closes at t=2; the first tick after release is t=4.
        tasks = [task_at(0, 5.0, 0.0, 1.0, 60.0)]
        result = engine.run(tasks, 0.0, 12.0)
        assert result.n_assignments == 0
        assert result.n_expired == 1

    def test_outcome_listener_sees_assignments(self):
        seen = []
        engine = make_engine()
        engine.run(
            [task_at(0, 5.0, 0.0, 0.0, 60.0)],
            0.0,
            60.0,
            outcome_listener=lambda task_id, worker_id, ok, t: seen.append((task_id, ok)),
        )
        assert seen and seen[0][0] == 0

    def test_result_properties_guard_zero_division(self):
        result = ServeResult(n_tasks=0, n_completed=0, n_assignments=0, n_rejections=0, n_expired=0)
        assert result.cache_hit_rate == 0.0
        assert result.candidate_sparsity == 0.0


class TestTracedLayers:
    """The engine calls the acceptance test once per offer and the
    prediction cache once per available worker per batch, through the
    names the benchmark's tracer wraps (``bench/trace.py``), so both
    layers keep their own time instead of folding into the loop's."""

    @pytest.mark.parametrize(
        "scenario, policy",
        [
            ("smoke", "bench-serve-engine"),
            ("hot-cell-burst", "bench-serve-engine"),
            ("worker-churn", "adaptive-indexed"),
            ("smoke", "warm-sharded-2"),
        ],
    )
    def test_one_call_per_offer_and_per_lookup(self, scenario, policy, monkeypatch):
        import repro.serve.engine as engine_module
        from repro.scenarios import get_policy, get_scenario, materialize
        from repro.scenarios.builders import build_engine
        from repro.serve import PredictionCache

        calls = {"accept": 0, "cache": 0}
        accept, get = engine_module.evaluate_acceptance, PredictionCache.get

        def counted_accept(*args, **kwargs):
            calls["accept"] += 1
            return accept(*args, **kwargs)

        def counted_get(self, *args, **kwargs):
            calls["cache"] += 1
            return get(self, *args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate_acceptance", counted_accept)
        monkeypatch.setattr(PredictionCache, "get", counted_get)
        data = materialize(get_scenario(scenario))
        engine = build_engine(data.workers, data.provider, get_policy(policy))
        result = engine.run(data.tasks, data.t_start, data.t_end)

        assert result.n_assignments > 0
        assert calls["accept"] == result.n_assignments
        assert calls["cache"] == sum(b.n_available for b in result.batches)
        assert calls["cache"] == result.cache_hits + result.cache_misses
