"""Online matching-rate recalibration (extension beyond the paper).

The paper estimates each worker's matching rate ``MR`` offline on
held-out windows and keeps it fixed all day.  But the online stage
continuously observes the very event MR models — whether a worker
really could serve a task matched against their predicted trajectory.
This module closes that loop: a Beta-Bernoulli tracker treats each
accept/reject as a draw of the completion probability Theorem 2 ties
to MR, and blends the posterior mean with the offline estimate.

Workers whose offline MR was optimistic (their day deviates from their
history) get demoted within the day; reliable workers get promoted —
sharpening exactly the signal PPI's stage ordering consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.prediction import PredictiveSnapshotProvider
from repro.sc.entities import Worker, WorkerSnapshot


@dataclass
class MatchingRateTracker:
    """Per-worker Beta-Bernoulli posterior over acceptance.

    ``strength`` is the pseudo-count weight of the offline prior: the
    offline MR enters as ``Beta(strength * mr, strength * (1 - mr))``,
    so early in the day the offline estimate dominates and the observed
    outcomes take over as evidence accumulates.
    """

    strength: float = 8.0
    _accepts: dict[int, int] = field(default_factory=dict)
    _rejects: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.strength <= 0:
            raise ValueError("prior strength must be positive")

    def record(self, worker_id: int, accepted: bool) -> None:
        book = self._accepts if accepted else self._rejects
        book[worker_id] = book.get(worker_id, 0) + 1

    def posterior(self, worker_id: int, offline_mr: float) -> float:
        """Posterior mean acceptance probability for the worker."""
        if not 0.0 <= offline_mr <= 1.0:
            raise ValueError("offline MR must lie in [0, 1]")
        alpha = self.strength * offline_mr + self._accepts.get(worker_id, 0)
        beta = self.strength * (1.0 - offline_mr) + self._rejects.get(worker_id, 0)
        return alpha / (alpha + beta)

    def observations(self, worker_id: int) -> tuple[int, int]:
        return self._accepts.get(worker_id, 0), self._rejects.get(worker_id, 0)


@dataclass
class AdaptiveMRSnapshotProvider:
    """Wraps a predictive provider, substituting recalibrated MRs.

    Wire the same instance as both the engine's snapshot provider and
    (via :meth:`outcome_listener`) its outcome listener::

        provider = AdaptiveMRSnapshotProvider(base_provider)
        engine = ServeEngine(workers, provider, ServeConfig(), assign_fn=assign_fn)
        engine.run(tasks, t0, t1, outcome_listener=provider.outcome_listener)
    """

    base: PredictiveSnapshotProvider
    tracker: MatchingRateTracker = field(default_factory=MatchingRateTracker)

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        snapshot = self.base(worker, t)
        snapshot.matching_rate = self.tracker.posterior(
            worker.worker_id, snapshot.matching_rate
        )
        return snapshot

    def outcome_listener(self, task_id: int, worker_id: int, accepted: bool, t: float) -> None:
        self.tracker.record(worker_id, accepted)
