"""The platform's contract with the online loop.

The online stage of Figure 1 runs in :class:`repro.serve.engine.ServeEngine`
(its default :class:`~repro.serve.engine.ServeConfig` is the paper's
2-minute batch loop).  This module holds what that loop consumes and
produces: the snapshot-provider and assignment-function signatures, the
plan validation applied to every batch, and the per-batch and per-run
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.assignment.plan import AssignmentPlan
# Re-exported so the benchmark's trace table can patch it by this path.
from repro.sc.acceptance import evaluate_acceptance  # noqa: F401
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.metrics import AssignmentMetrics

SnapshotProvider = Callable[[Worker, float], WorkerSnapshot]
AssignFn = Callable[[Sequence[SpatialTask], Sequence[WorkerSnapshot], float], AssignmentPlan]


def validate_plan(
    plan: AssignmentPlan,
    pending_task_ids: set[int] | dict[int, SpatialTask],
    known_worker_ids: set[int] | dict[int, Worker],
) -> None:
    """Check an ``assign_fn`` result before the platform acts on it.

    An assignment function is user-pluggable, so a buggy one used to
    surface as an opaque ``KeyError`` deep inside the acceptance loop.
    This validates the three invariants the platform relies on — each
    task and worker appears at most once, every task is currently
    pending, every worker exists — and raises a ``ValueError`` naming
    the offending pair.
    """
    seen_tasks: set[int] = set()
    seen_workers: set[int] = set()
    for pair in plan:
        if pair.task_id in seen_tasks:
            raise ValueError(
                f"invalid assignment plan: task {pair.task_id} assigned more than once"
            )
        if pair.worker_id in seen_workers:
            raise ValueError(
                f"invalid assignment plan: worker {pair.worker_id} assigned more than once"
            )
        if pair.task_id not in pending_task_ids:
            raise ValueError(
                f"invalid assignment plan: task {pair.task_id} is not pending in this batch"
            )
        if pair.worker_id not in known_worker_ids:
            raise ValueError(
                f"invalid assignment plan: worker {pair.worker_id} is unknown to the platform"
            )
        seen_tasks.add(pair.task_id)
        seen_workers.add(pair.worker_id)


@dataclass
class BatchRecord:
    """What happened in one batch window."""

    batch_time: float
    n_pending: int
    n_available: int
    n_assigned: int
    n_accepted: int
    n_rejected: int


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated horizon.

    ``algorithm_seconds`` times the assignment calls only;
    ``prediction_seconds`` times snapshot building (where predictive
    providers run their model rollouts).  The paper's "time" metric is
    the platform's whole per-batch cost, so :meth:`metrics` reports
    their sum as ``running_seconds``.
    """

    n_tasks: int
    n_completed: int
    n_assignments: int
    n_rejections: int
    n_expired: int
    detours_km: list[float] = field(default_factory=list)
    algorithm_seconds: float = 0.0
    prediction_seconds: float = 0.0
    batches: list[BatchRecord] = field(default_factory=list)
    completed_task_ids: set[int] = field(default_factory=set)

    def metrics(self) -> AssignmentMetrics:
        return AssignmentMetrics.compute(
            n_tasks=self.n_tasks,
            n_completed=self.n_completed,
            n_assignments=self.n_assignments,
            n_rejections=self.n_rejections,
            detours_km=self.detours_km,
            running_seconds=self.algorithm_seconds + self.prediction_seconds,
        )
