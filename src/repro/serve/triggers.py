"""Batch trigger policies: when does the next assignment round fire?

The paper's platform fires every ``batch_window`` minutes regardless of
load.  Demand-adaptive batching (cf. DATA-WA's dynamic availability
windows) keeps that cadence as an upper bound but pulls a batch forward
when pending work piles up or a deadline is about to be missed —
trading a little matching quality (smaller batches) for latency when
the stream runs hot.

A policy answers two questions:

* :meth:`next_tick` — given the batch that just ran, when is the next
  *scheduled* one?
* :meth:`should_fire_early` — after a task arrival, should a batch run
  right now instead of waiting for the scheduled tick?

``next_tick`` advances by repeated addition from the previous tick
(never by multiplying an index), so batch times carry the same
floating-point error as a fixed-step ``t += window`` scan and stay
batch-for-batch comparable with one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.sc.entities import SpatialTask


@dataclass(frozen=True, slots=True)
class FixedWindowTrigger:
    """The paper's policy: a batch every ``window`` minutes, no more."""

    window: float = 2.0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("batch window must be positive")

    def next_tick(self, last_tick: float) -> float:
        return last_tick + self.window

    def should_fire_early(
        self,
        now: float,
        last_batch: float,
        pending: Mapping[int, SpatialTask],
    ) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class DemandAdaptiveTrigger(FixedWindowTrigger):
    """Fire early under queue pressure or deadline pressure.

    Attributes
    ----------
    pending_threshold:
        Fire as soon as this many tasks are pending (``None`` disables).
    deadline_slack:
        Fire when some pending task's deadline is within this many
        minutes (``None`` disables) — waiting a full window would risk
        expiring it unserved.
    min_interval:
        Refractory period: never fire two batches closer than this,
        bounding worst-case assignment load under a task flood.
    """

    pending_threshold: int | None = None
    deadline_slack: float | None = None
    min_interval: float = 0.25

    def __post_init__(self) -> None:
        # Explicit base call: zero-arg super() breaks under
        # dataclass(slots=True), which rebuilds the class object.
        FixedWindowTrigger.__post_init__(self)
        if self.pending_threshold is not None and self.pending_threshold < 1:
            raise ValueError("pending threshold must be at least 1")
        if self.deadline_slack is not None and self.deadline_slack < 0:
            raise ValueError("deadline slack must be non-negative")
        if self.min_interval <= 0:
            raise ValueError("minimum trigger interval must be positive")

    def should_fire_early(
        self,
        now: float,
        last_batch: float,
        pending: Mapping[int, SpatialTask],
    ) -> bool:
        if now - last_batch < self.min_interval:
            return False
        if self.pending_threshold is not None and len(pending) >= self.pending_threshold:
            return True
        if self.deadline_slack is not None and any(
            task.deadline - now <= self.deadline_slack for task in pending.values()
        ):
            return True
        return False
