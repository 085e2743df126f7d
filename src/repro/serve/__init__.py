"""repro.serve — event-driven streaming assignment engine.

The repository's one online loop: a heap-based event loop over task
arrivals, deadlines, cancellations, and worker check-in/check-out.
``ServeConfig()`` is the paper's fixed-window batch loop; pluggable
batch triggers, bounded pending queues with deadline-aware shedding, a
uniform-grid candidate index feeding sparse PPI/KM, and a TTL
prediction cache with check-in deviation invalidation are opt-in.  See
``docs/SERVING.md``.

Online monitoring is opt-in through ``ServeConfig.monitor``
(:class:`repro.obs.monitor.MonitorConfig`): periodic metric samples
into a JSONL time series, OpenMetrics exposition, and calibration
tracking of predicted completion probabilities — see the streaming
monitoring section of ``docs/OBSERVABILITY.md``.
"""

from repro.serve.adapters import result_signature
from repro.serve.engine import CandidateAssignFn, ServeConfig, ServeEngine, ServeResult
from repro.serve.events import (
    BatchTick,
    Event,
    EventPhase,
    EventQueue,
    TaskArrival,
    TaskCancel,
    TaskDeadline,
    WorkerCheckIn,
    WorkerCheckOut,
)
from repro.serve.prediction_cache import CacheStats, PredictionCache
from repro.serve.spatial_index import (
    UniformGridIndex,
    build_candidates,
    cells_in_radius,
    latest_horizon,
)
from repro.serve.streams import (
    DeadReckoningProvider,
    HotCellBurstConfig,
    RushHourConfig,
    StreamConfig,
    WorkerChurnConfig,
    make_churn_worker_fleet,
    make_hot_cell_task_stream,
    make_rush_hour_task_stream,
    make_task_stream,
    make_worker_fleet,
)
from repro.serve.triggers import DemandAdaptiveTrigger, FixedWindowTrigger

__all__ = [
    "BatchTick",
    "CacheStats",
    "CandidateAssignFn",
    "DeadReckoningProvider",
    "DemandAdaptiveTrigger",
    "Event",
    "EventPhase",
    "EventQueue",
    "FixedWindowTrigger",
    "HotCellBurstConfig",
    "PredictionCache",
    "RushHourConfig",
    "WorkerChurnConfig",
    "ServeConfig",
    "ServeEngine",
    "ServeResult",
    "StreamConfig",
    "TaskArrival",
    "TaskCancel",
    "TaskDeadline",
    "UniformGridIndex",
    "WorkerCheckIn",
    "WorkerCheckOut",
    "build_candidates",
    "cells_in_radius",
    "latest_horizon",
    "make_churn_worker_fleet",
    "make_hot_cell_task_stream",
    "make_rush_hour_task_stream",
    "make_task_stream",
    "make_worker_fleet",
    "result_signature",
]
