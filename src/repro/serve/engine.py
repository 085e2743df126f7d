"""The event-driven online assignment engine.

``ServeEngine`` drives the online stage of Fig. 1 (Algorithm 4's host
loop) as a priority-queue event loop.  Its default configuration is the
paper's loop: a batch every ``batch_window`` minutes over every pending
task and every available worker, each worker re-predicted each batch.
Compared with a fixed-step scan of that loop:

* **events**, not ticks — task arrivals, deadlines, requester
  cancellations, and worker check-in/check-out resolve at their own
  timestamps (:mod:`repro.serve.events`), so per-event work is O(1)
  instead of an O(W + T) rescan per window, and a task released after
  the last batch still reaches a terminal state;
* **pluggable batch triggers** — the paper's fixed window, or
  demand-adaptive firing under queue/deadline pressure
  (:mod:`repro.serve.triggers`);
* **bounded pending queue** — with ``max_pending`` set, an arrival
  into a full queue sheds the task with the least deadline slack (the
  one least likely to be served anyway) instead of letting the backlog
  grow without bound;
* **candidate-set assignment** — with ``use_index`` set, each batch
  builds a sparse candidate graph from a uniform-grid index over task
  locations (:mod:`repro.serve.spatial_index`) and feeds it to a
  candidate-aware assignment function instead of scanning W x T pairs;
* **prediction cache** — snapshots are served from a TTL cache with
  check-in deviation invalidation (:mod:`repro.serve.prediction_cache`)
  instead of being re-predicted every batch.

A task that ends unserved ends in one place, keyed by its decision-log
reason code, which updates the result, the ``serve.*`` counters and the
decision log together; every offer's feedback likewise goes through one
pass after the batch's acceptance loop.

Every serving feature is off in the default ``ServeConfig()``; the
parity tests pin that configuration against a fixed-step reference
loop, batch for batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # import cycle: forecast.dispatch imports serve.triggers
    from repro.forecast.dispatch import ForecastConfig

from repro import obs
from repro.assignment.matching_rate import pair_completion_probability
from repro.assignment.plan import AssignmentPlan
from repro.obs.decisions import (
    REASON_CANCELLED,
    REASON_CANCELLED_ON_ARRIVAL,
    REASON_DEAD_ON_ARRIVAL,
    REASON_EXPIRED_DEADLINE,
    REASON_EXPIRED_HORIZON,
    REASON_SHED_DEADLINE_SLACK,
    REASON_SHED_QUEUE_FULL,
    TERMINAL_CANCELLED,
    TERMINAL_EXPIRED,
    TERMINAL_SHED,
    DecisionConfig,
    DecisionLog,
)
from repro.obs.metrics import labelled
from repro.obs.monitor import MetricsMonitor, MonitorConfig
from repro.obs.recorder import MetricsRecorder
from repro.sc.acceptance import evaluate_acceptance
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.platform import (
    AssignFn,
    BatchRecord,
    SimulationResult,
    SnapshotProvider,
    validate_plan,
)
from repro.serve.events import (
    BatchTick,
    EventQueue,
    TaskArrival,
    TaskCancel,
    TaskDeadline,
    WorkerCheckIn,
    WorkerCheckOut,
)
from repro.serve.prediction_cache import PredictionCache
from repro.serve.spatial_index import build_candidates
from repro.serve.triggers import DemandAdaptiveTrigger, FixedWindowTrigger

#: A candidate-aware assignment function: like :data:`AssignFn` plus the
#: sparse candidate graph built by the engine's spatial index.
CandidateAssignFn = Callable[
    [Sequence[SpatialTask], Sequence[WorkerSnapshot], float, dict[int, list[int]]],
    AssignmentPlan,
]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the streaming engine.

    The defaults are the paper's online loop — a fixed 2-minute window,
    an unbounded pending queue, dense assignment, and a fresh prediction
    per worker per batch; every serving feature is opt-in.

    Attributes
    ----------
    batch_window:
        Minutes between scheduled assignment rounds.
    assignment_window:
        Minutes after release during which a task may still be matched;
        the requester cancels an unmatched task after it (ride-hailing
        order cancellation).  Service may still happen any time up to
        the deadline.  ``None`` disables the cap.
    trigger:
        ``"fixed"``, ``"adaptive"`` (demand-adaptive early firing), or
        ``"forecast"`` (adaptive plus predicted-demand pressure;
        requires ``forecast``).
    pending_threshold / deadline_slack / min_trigger_interval:
        Adaptive-trigger knobs; see
        :class:`repro.serve.triggers.DemandAdaptiveTrigger`.
    max_pending:
        Pending-queue bound; arrivals beyond it shed the task with the
        least deadline slack.  ``None`` means unbounded.
    cache_ttl / cache_deviation_km:
        Prediction-cache freshness knobs; ``cache_ttl=0`` re-predicts
        every available worker every batch.
    use_index:
        Build a sparse candidate graph per batch and use the
        candidate-aware assignment path (requires ``candidate_assign_fn``).
    index_cell_km / max_candidates:
        Grid-bucket size and optional per-task k-nearest cap of the
        candidate index.
    monitor:
        Online-monitoring knobs (:class:`repro.obs.monitor.MonitorConfig`):
        periodic metric samples, OpenMetrics exposition, and prediction
        calibration tracking.  ``None`` (the default) keeps the run
        monitor-free; when set but no recorder is active, the engine
        installs a metrics-only recorder for the duration of the run.
    decisions:
        Decision-provenance knobs (:class:`repro.obs.decisions.DecisionConfig`):
        one lifecycle record per task — admission, candidate
        generation, matching outcome, terminal state — appended to a
        JSONL decision log.  ``None`` (the default) keeps the run
        log-free with exact ``result_signature`` parity; the off path
        costs one ``is None`` test per lost task and per batch.
    forecast:
        Demand-forecasting knobs (:class:`repro.forecast.dispatch.ForecastConfig`):
        per-cell arrival forecasting, the ``"forecast"`` trigger's
        predicted-pressure term, and idle-worker pre-positioning
        between batches.  ``None`` (the default) keeps the run
        forecast-free with exact ``result_signature`` parity.
    """

    batch_window: float = 2.0
    assignment_window: float | None = 10.0
    trigger: str = "fixed"
    pending_threshold: int | None = None
    deadline_slack: float | None = None
    min_trigger_interval: float = 0.25
    max_pending: int | None = None
    cache_ttl: float = 0.0
    cache_deviation_km: float | None = None
    use_index: bool = False
    index_cell_km: float = 1.0
    max_candidates: int | None = None
    monitor: MonitorConfig | None = None
    decisions: DecisionConfig | None = None
    forecast: "ForecastConfig | None" = None

    def __post_init__(self) -> None:
        if self.batch_window <= 0:
            raise ValueError("batch window must be positive")
        if self.assignment_window is not None and self.assignment_window <= 0:
            raise ValueError("assignment window must be positive (or None)")
        if self.trigger not in ("fixed", "adaptive", "forecast"):
            raise ValueError("trigger must be 'fixed', 'adaptive', or 'forecast'")
        if self.trigger == "forecast" and self.forecast is None:
            raise ValueError("the 'forecast' trigger requires a forecast config")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be at least 1 (or None)")
        if self.cache_ttl < 0:
            raise ValueError("cache ttl must be non-negative")
        if self.cache_deviation_km is not None and self.cache_deviation_km < 0:
            raise ValueError("cache_deviation_km must be non-negative (or None)")
        if self.index_cell_km <= 0:
            raise ValueError("index cell size must be positive")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1 (or None)")
        # Build the trigger once so its own checks reject bad knobs here
        # rather than inside run().
        self.make_trigger()

    def make_trigger(self, forecast_runtime=None) -> FixedWindowTrigger:
        if self.trigger == "fixed":
            return FixedWindowTrigger(window=self.batch_window)
        if self.trigger == "forecast":
            # Deferred import: forecast.dispatch imports serve.triggers.
            from repro.forecast.dispatch import ForecastTrigger

            return ForecastTrigger(
                window=self.batch_window,
                pending_threshold=self.pending_threshold,
                deadline_slack=self.deadline_slack,
                min_interval=self.min_trigger_interval,
                demand_threshold=self.forecast.demand_threshold,
                runtime=forecast_runtime,
            )
        return DemandAdaptiveTrigger(
            window=self.batch_window,
            pending_threshold=self.pending_threshold,
            deadline_slack=self.deadline_slack,
            min_interval=self.min_trigger_interval,
        )


@dataclass
class ServeResult(SimulationResult):
    """``SimulationResult`` plus the serving layer's own accounting."""

    n_shed: int = 0
    n_batches: int = 0
    n_early_batches: int = 0
    n_candidate_pairs: int = 0
    n_dense_pairs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: Monitor-only accounting (zero / None when ``config.monitor`` is
    #: unset); deliberately outside ``result_signature`` so monitoring
    #: never perturbs parity checks.
    n_monitor_samples: int = 0
    n_drift_events: int = 0
    calibration: dict | None = None
    #: Decision-log accounting (zero when ``config.decisions`` is
    #: unset); outside ``result_signature`` for the same reason.
    n_decisions: int = 0
    #: Forecasting accounting (zero / None when ``config.forecast`` is
    #: unset).  Pre-positioning *does* change assignment outcomes (the
    #: whole point), so these fields only describe the forecast layer —
    #: the outcome changes show up in the ordinary signature fields.
    n_prepositioned: int = 0
    forecast_mae: float | None = None
    forecast_cell_mae: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def candidate_sparsity(self) -> float:
        """Fraction of the dense pair space the index actually visited."""
        return self.n_candidate_pairs / self.n_dense_pairs if self.n_dense_pairs else 0.0


#: The ``serve.*`` counter a lost task increments, by its terminal.
_LOST_COUNTERS = {
    TERMINAL_SHED: "serve.shed.tasks",
    TERMINAL_CANCELLED: "serve.cancelled",
    TERMINAL_EXPIRED: "serve.expired",
}

#: The decision-log call that closes a lost task's record, by reason.
_LOG_LOSS = {
    REASON_DEAD_ON_ARRIVAL: lambda log, task, t: log.dead_on_arrival(task, t, cancelled=False),
    REASON_CANCELLED_ON_ARRIVAL: lambda log, task, t: log.dead_on_arrival(task, t, cancelled=True),
    REASON_SHED_QUEUE_FULL: lambda log, task, t: log.shed_on_arrival(task, t),
    REASON_SHED_DEADLINE_SLACK: lambda log, task, t: log.displaced(task.task_id, t),
    REASON_CANCELLED: lambda log, task, t: log.cancelled(task.task_id, t),
    REASON_EXPIRED_DEADLINE: lambda log, task, t: log.expired(task.task_id, t),
    REASON_EXPIRED_HORIZON: lambda log, task, t: log.expired(task.task_id, t, horizon=True),
}


class ServeEngine:
    """The online batch loop, event-driven.

    The paper's pipeline runs as ``ServeEngine(workers, provider,
    ServeConfig(), assign_fn=...)``; ``run`` then serves a task stream.

    Parameters
    ----------
    workers:
        Worker population with ground-truth routines (their time spans
        are the check-in/check-out availability windows).
    snapshot_provider:
        Builds the platform's view of a worker; wrapped in a
        :class:`PredictionCache` according to ``config``.
    config:
        Engine tunables; the default is the paper's batch loop.
    assign_fn:
        Dense assignment function, called with every pending task and
        every available snapshot.  Always required; used for every
        batch unless ``config.use_index`` is set.
    candidate_assign_fn:
        Assignment function called with each batch's candidate graph as
        a fourth positional argument (e.g.
        :func:`repro.assignment.ppi.ppi_assign` itself, or a
        :func:`repro.dist.component_candidate_assign` wrapping of it);
        replaces ``assign_fn`` for every batch when ``config.use_index``
        is set.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        snapshot_provider: SnapshotProvider,
        config: ServeConfig | None = None,
        assign_fn: AssignFn | None = None,
        candidate_assign_fn: CandidateAssignFn | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ValueError("worker ids must be unique")
        if assign_fn is None:
            raise ValueError("an assignment function is required")
        if self.config.use_index and candidate_assign_fn is None:
            raise ValueError("use_index requires a candidate-aware assignment function")
        self.workers = list(workers)
        self.snapshot_provider = snapshot_provider
        self.assign_fn = assign_fn
        self.candidate_assign_fn = candidate_assign_fn
        self._worker_pos = {w.worker_id: i for i, w in enumerate(self.workers)}
        #: The last run's :class:`DecisionLog` (``None`` when
        #: ``config.decisions`` is unset).
        self.decision_log: DecisionLog | None = None

    # ------------------------------------------------------------------
    def _build_candidates(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
    ) -> dict[int, list[int]]:
        """One batch's candidate graph (the ``use_index`` path).

        Subclasses substitute their own construction —
        :class:`repro.dist.serve.ShardedEngine` builds the same graph
        shard by shard — as long as the result matches this one, the
        engine's plans are unchanged.
        """
        cfg = self.config
        return build_candidates(
            batch_tasks,
            snapshots,
            t,
            cell_km=cfg.index_cell_km,
            max_candidates=cfg.max_candidates,
        )

    @staticmethod
    def _record_offers(
        offers: Sequence[tuple[SpatialTask, int, bool]],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
        outcome_listener: Callable[[int, int, bool, float], None] | None,
        monitor: MetricsMonitor | None,
        dlog: DecisionLog | None,
        warm_tier: str | None,
    ) -> None:
        """Feed one batch's offers to the listener, calibration and the decision log.

        ``offers`` holds each plan pair's task, worker id and acceptance,
        in plan order.  The believed completion probability is computed
        only where it is read: every offer under calibration, accepted
        offers for the decision log.
        """
        calibrate = monitor is not None and monitor.calibration is not None
        if outcome_listener is None and not calibrate and dlog is None:
            return
        snap_by_worker = {s.worker_id: s for s in snapshots}
        for task, worker_id, accepted in offers:
            believed = None
            if calibrate or (dlog is not None and accepted):
                believed = pair_completion_probability(snap_by_worker[worker_id], task, t)
            if outcome_listener is not None:
                outcome_listener(task.task_id, worker_id, accepted, t)
            if calibrate:
                monitor.observe_outcome(believed, accepted, t)
            if dlog is not None:
                dlog.offered(
                    task.task_id,
                    worker_id,
                    t,
                    accepted,
                    predicted_p=believed,
                    warm_tier=warm_tier,
                )

    def _make_decision_log(self, config: DecisionConfig) -> DecisionLog:
        """The decision log a run records into (``config.decisions``).

        Subclasses substitute their own — :class:`repro.dist.serve.ShardedEngine`
        attributes each record to the stripe that owns the task.
        """
        return DecisionLog(config)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SpatialTask],
        t_start: float,
        t_end: float,
        outcome_listener: Callable[[int, int, bool, float], None] | None = None,
    ) -> ServeResult:
        """Serve the task stream over ``[t_start, t_end]``.

        Events dated past ``t_end`` never fire; tasks still pending at
        the horizon's end expire there, so every task ends completed,
        expired (deadline, cancellation, or horizon), or shed.

        ``outcome_listener``, when given, receives
        ``(task_id, worker_id, accepted, batch_time)`` for every
        proposed assignment — the hook online components (e.g. adaptive
        matching-rate tracking) use to learn from worker feedback.
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        task_ids = [t.task_id for t in tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique")

        cfg = self.config
        # Forecasting is opt-in like monitoring: with cfg.forecast unset
        # the runtime stays None and every hook below costs one
        # `is None` test, keeping result_signature bit-identical.
        fruntime = None
        if cfg.forecast is not None:
            from repro.forecast.dispatch import ForecastRuntime

            fruntime = ForecastRuntime(cfg.forecast, t_start, t_end, tasks=tasks)
        trigger = cfg.make_trigger(forecast_runtime=fruntime)
        cache = PredictionCache(
            provider=self.snapshot_provider,
            ttl=cfg.cache_ttl,
            deviation_km=cfg.cache_deviation_km,
        )
        result = ServeResult(
            n_tasks=len(tasks), n_completed=0, n_assignments=0, n_rejections=0, n_expired=0
        )
        # Online monitoring is strictly opt-in: with cfg.monitor unset
        # none of this allocates, and the per-event cost below is one
        # `watch` boolean test.  When a monitor is requested but no
        # recorder is active, a metrics-only recorder is installed for
        # the duration of the run (spans stay free) and restored after.
        monitor: MetricsMonitor | None = None
        restore_to = None
        if cfg.monitor is not None:
            if getattr(obs.get_recorder(), "metrics", None) is None:
                restore_to = obs.set_recorder(MetricsRecorder())
            monitor = MetricsMonitor(cfg.monitor, obs.get_recorder().metrics)
            monitor.start(t_start)
        watch = obs.enabled()
        # Decision provenance is equally opt-in: with cfg.decisions
        # unset `dlog` stays None and every decision site below costs
        # one `is None` test, keeping result_signature bit-identical.
        dlog: DecisionLog | None = None
        if cfg.decisions is not None:
            dlog = self._make_decision_log(cfg.decisions)
        self.decision_log = dlog
        arrival_at: dict[int, float] = {}
        offered_ids: set[int] = set()
        pending: dict[int, SpatialTask] = {}
        busy_until: dict[int, float] = {}
        online: dict[int, Worker] = {}
        worker_by_id = {w.worker_id: w for w in self.workers}
        horizon_end = t_end + 1e-9

        queue = EventQueue()
        # Task arrivals (sorted so same-time ties resolve by release order)
        # with their deadline and cancellation events.
        for task in sorted(tasks, key=lambda t: t.release_time):
            arrival = max(task.release_time, t_start)
            if arrival > horizon_end:
                continue
            queue.push(TaskArrival(time=arrival, task=task))
            queue.push(TaskDeadline(time=task.deadline, task_id=task.task_id))
            if cfg.assignment_window is not None:
                # Anchored on the *release* time; a window that closed
                # before the arrival (a task released before t_start) is
                # handled dead-on-arrival below.
                cancel_at = task.release_time + cfg.assignment_window
                if cancel_at >= arrival:
                    queue.push(TaskCancel(time=cancel_at, task_id=task.task_id))
        # Worker availability windows (the routine span unless the
        # worker declared a narrower ``available_from``/``available_until``).
        for worker in self.workers:
            start = worker.availability_start()
            end = worker.availability_end()
            if end < t_start or start > horizon_end:
                continue
            queue.push(WorkerCheckIn(time=max(start, t_start), worker=worker))
            queue.push(WorkerCheckOut(time=end, worker_id=worker.worker_id))
        # The first scheduled batch.
        tick_generation = 0
        queue.push(BatchTick(time=t_start, generation=tick_generation))

        last_batch = t_start - cfg.batch_window
        warm = getattr(self.candidate_assign_fn, "warm_cache", None) if cfg.use_index else None

        def lose(task: SpatialTask, reason: str, t: float) -> None:
            """End ``task`` unserved in every ledger; ``reason`` is a ``REASON_*`` code."""
            pending.pop(task.task_id, None)
            terminal, _, detail = reason.partition(":")
            if terminal == TERMINAL_SHED:
                result.n_shed += 1
            else:
                result.n_expired += 1
            if watch:
                obs.counter(_LOST_COUNTERS[terminal])
                if terminal == TERMINAL_SHED:
                    obs.counter(labelled("serve.shed.tasks", reason=detail))
                elif terminal == TERMINAL_EXPIRED:
                    phase = "assigned" if task.task_id in offered_ids else "pending"
                    obs.counter(labelled("serve.task.expired", phase=phase))
            if dlog is not None:
                _LOG_LOSS[reason](dlog, task, t)

        def run_batch(t: float, early: bool, available: list[Worker]) -> None:
            nonlocal last_batch
            last_batch = t
            batch_tasks = list(pending.values())
            obs.gauge("serve.queue.pending", len(pending))
            obs.gauge("serve.workers.available", len(available))
            if not batch_tasks or not available:
                return
            batch_started = time.perf_counter()
            with obs.span(
                "serve.batch",
                t=t,
                batch=result.n_batches,
                pending=len(batch_tasks),
                available=len(available),
                early=early,
            ) as batch_span:
                cache_mark = cache.stats.counts()
                pre_cache = cache.stats.snapshot() if dlog is not None else None
                with obs.span("serve.predict", workers=len(available)):
                    started = time.perf_counter()
                    snapshots = [cache.get(w, t) for w in available]
                    result.prediction_seconds += time.perf_counter() - started
                cache.stats.publish_since(cache_mark)
                served = cache.stats.hits + cache.stats.misses
                if served:
                    obs.gauge("serve.cache.hit_rate", cache.stats.hits / served)
                result.n_dense_pairs += len(batch_tasks) * len(available)
                candidates = None
                with obs.span("serve.assign", tasks=len(batch_tasks)):
                    started = time.perf_counter()
                    if cfg.use_index and self.candidate_assign_fn is not None:
                        candidates = self._build_candidates(batch_tasks, snapshots, t)
                        batch_candidates = sum(len(v) for v in candidates.values())
                        result.n_candidate_pairs += batch_candidates
                        obs.histogram("serve.index.candidates", batch_candidates)
                        plan = self.candidate_assign_fn(batch_tasks, snapshots, t, candidates)
                    else:
                        result.n_candidate_pairs += len(batch_tasks) * len(available)
                        plan = self.assign_fn(batch_tasks, snapshots, t)
                    result.algorithm_seconds += time.perf_counter() - started
                validate_plan(plan, pending, worker_by_id)

                warm_tier = None
                if dlog is not None:
                    dlog.considered(
                        [task.task_id for task in batch_tasks],
                        len(available),
                        candidates,
                        cache.stats.window_hit_rate(pre_cache),
                    )
                    if warm is not None:
                        warm_tier = warm.round_tier()
                offers: list[tuple[SpatialTask, int, bool]] = []
                n_accepted = 0
                for pair in plan:
                    worker = worker_by_id[pair.worker_id]
                    task = pending[pair.task_id]
                    decision = evaluate_acceptance(worker, task, t)
                    offers.append((task, worker.worker_id, decision.accepted))
                    if decision.accepted:
                        n_accepted += 1
                        result.completed_task_ids.add(task.task_id)
                        result.detours_km.append(decision.detour_km)
                        if watch and task.task_id in arrival_at:
                            obs.histogram(
                                "serve.task.time_to_assign", t - arrival_at.pop(task.task_id)
                            )
                        del pending[task.task_id]
                        # The worker keeps following their routine until
                        # the detour happens; they are busy only for the
                        # time spent off-route (detour distance at their
                        # speed) plus the current window.
                        off_route = decision.detour_km / worker.speed_km_per_min
                        busy_until[worker.worker_id] = t + cfg.batch_window + off_route
                    elif watch:
                        offered_ids.add(task.task_id)
                n_rejected = len(plan) - n_accepted
                result.n_assignments += len(plan)
                result.n_completed += n_accepted
                result.n_rejections += n_rejected
                self._record_offers(
                    offers, snapshots, t, outcome_listener, monitor, dlog, warm_tier
                )
                obs.counter("serve.assignments", len(plan))
                obs.counter("serve.accepted", n_accepted)
                obs.counter("serve.rejections", n_rejected)
                obs.histogram("serve.batch.latency_s", time.perf_counter() - batch_started)
                batch_span.set(assigned=len(plan), accepted=n_accepted, rejected=n_rejected)
                result.batches.append(
                    BatchRecord(
                        batch_time=t,
                        n_pending=len(batch_tasks),
                        n_available=len(available),
                        n_assigned=len(plan),
                        n_accepted=n_accepted,
                        n_rejected=n_rejected,
                    )
                )
                result.n_batches += 1
                if early:
                    result.n_early_batches += 1
                    obs.counter("serve.batches.early")

        def preposition(t: float, available: list[Worker]) -> None:
            """Move idle workers toward predicted demand gaps.

            Runs after each batch: the batch's available workers still
            idle (its accepted ones are busy now) are offered to the
            forecast runtime's gap planner; accepted moves splice the
            relocation into the worker's routine, so later snapshots,
            acceptance decisions, and check-outs all see the
            repositioned worker.
            """
            from repro.forecast.dispatch import relocated_worker

            idle = [w for w in available if busy_until.get(w.worker_id, -1.0) <= t]
            moves = fruntime.plan_moves(t, idle, pending)
            for move in moves:
                moved = relocated_worker(worker_by_id[move.worker_id], move)
                worker_by_id[move.worker_id] = moved
                if move.worker_id in online:
                    online[move.worker_id] = moved
                cache.invalidate(move.worker_id)
                if dlog is not None:
                    dlog.prepositioned(move)
            if moves:
                result.n_prepositioned += len(moves)
                obs.counter("forecast.prepositioned", len(moves))

        try:
            while queue and queue.peek_time() <= horizon_end:
                event = queue.pop()
                if monitor is not None:
                    monitor.advance(event.time)
                if fruntime is not None:
                    fruntime.advance(event.time)
                if isinstance(event, TaskArrival):
                    task = event.task
                    if fruntime is not None:
                        # Every arrival is demand, even one that dies on
                        # arrival below — the forecaster models load.
                        fruntime.observe_arrival(task, event.time)
                    # Dead on arrival: a task released before the horizon
                    # whose deadline or cancellation window already passed
                    # ends without an assignment attempt.
                    if task.deadline < event.time:
                        lose(task, REASON_DEAD_ON_ARRIVAL, event.time)
                    elif (
                        cfg.assignment_window is not None
                        and event.time > task.release_time + cfg.assignment_window
                    ):
                        lose(task, REASON_CANCELLED_ON_ARRIVAL, event.time)
                    else:
                        # Deadline-aware shedding: into a full queue, the
                        # task with the least slack goes (ties: the arrival).
                        victim = None
                        if cfg.max_pending is not None and len(pending) >= cfg.max_pending:
                            victim = min([task, *pending.values()], key=lambda x: x.deadline)
                        if victim is task:
                            lose(task, REASON_SHED_QUEUE_FULL, event.time)
                        else:
                            pending[task.task_id] = task
                            if dlog is not None:
                                dlog.admitted(task, event.time)
                            if victim is not None:
                                lose(victim, REASON_SHED_DEADLINE_SLACK, event.time)
                            if watch:
                                arrival_at[task.task_id] = event.time
                        if trigger.should_fire_early(event.time, last_batch, pending):
                            tick_generation += 1
                            queue.push(BatchTick(time=event.time, generation=tick_generation))
                elif isinstance(event, BatchTick):
                    if event.generation == tick_generation:
                        early = event.time - last_batch < cfg.batch_window - 1e-9
                        available = [
                            worker_by_id[w_id]
                            for w_id in sorted(online, key=self._worker_pos.__getitem__)
                            if busy_until.get(w_id, -1.0) <= event.time
                        ]
                        run_batch(event.time, early, available)
                        if fruntime is not None and cfg.forecast.prepositioning:
                            preposition(event.time, available)
                        tick_generation += 1
                        queue.push(
                            BatchTick(
                                time=trigger.next_tick(event.time), generation=tick_generation
                            )
                        )
                    # else: superseded by an early fire
                elif isinstance(event, (TaskDeadline, TaskCancel)) and event.task_id in pending:
                    deadline = isinstance(event, TaskDeadline)
                    reason = REASON_EXPIRED_DEADLINE if deadline else REASON_CANCELLED
                    lose(pending[event.task_id], reason, event.time)
                elif isinstance(event, WorkerCheckIn):
                    online[event.worker.worker_id] = event.worker
                elif isinstance(event, WorkerCheckOut):
                    online.pop(event.worker_id, None)

            # Tasks still pending at the horizon's end expire there.
            for task in list(pending.values()):
                lose(task, REASON_EXPIRED_HORIZON, t_end)
            if dlog is not None:
                result.n_decisions = len(dlog.records)
            result.cache_hits = cache.stats.hits
            result.cache_misses = cache.stats.misses
            result.cache_invalidations = cache.stats.invalidations
            if fruntime is not None:
                fruntime.finish()
                result.forecast_mae = fruntime.mae()
                result.forecast_cell_mae = fruntime.cell_mae() or None
            if monitor is not None:
                monitor.advance(t_end)
                monitor.finish(t_end)
                result.n_monitor_samples = len(monitor.samples)
                if monitor.calibration is not None:
                    result.calibration = monitor.calibration.summary()
                    result.n_drift_events = len(monitor.calibration.drift_events)
            return result
        finally:
            # Close monitor and decision-log sinks (both idempotent;
            # closing the decision log also merges shard spools) and
            # restore the recorder even when the run unwinds on an
            # exception.
            if monitor is not None:
                monitor.finish(t_end)
            if dlog is not None:
                dlog.close()
            if restore_to is not None:
                obs.set_recorder(restore_to)
