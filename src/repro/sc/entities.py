"""Domain entities: spatial tasks, crowd workers, and the platform's view.

Definitions 1-2 of the paper.  :class:`Worker` holds ground truth (the
actual routine, hidden from the platform); :class:`WorkerSnapshot` is
what the platform sees in one assignment batch — current location,
predicted future points, and the worker's mobility-model matching rate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geo.point import Point
from repro.geo.trajectory import Trajectory


def _check_budget_and_speed(worker_id: int, detour_budget_km: float, speed_km_per_min: float) -> None:
    """Refuse a budget or speed no route can be scored with, naming the worker."""
    if not (math.isfinite(detour_budget_km) and detour_budget_km >= 0):
        raise ValueError(
            f"worker {worker_id}: detour_budget_km must be finite and non-negative, got {detour_budget_km}"
        )
    if not (math.isfinite(speed_km_per_min) and speed_km_per_min > 0):
        raise ValueError(
            f"worker {worker_id}: speed_km_per_min must be finite and positive, got {speed_km_per_min}"
        )


@dataclass(frozen=True, slots=True)
class SpatialTask:
    """Definition 1: a target location with a deadline.

    ``release_time`` is when the task reaches the platform; it becomes
    assignable in the first batch window at or after that time and
    expires at ``deadline`` (both in minutes).
    """

    task_id: int
    location: Point
    release_time: float
    deadline: float

    def __post_init__(self) -> None:
        for name, value in (
            ("location", self.location.x),
            ("location", self.location.y),
            ("release_time", self.release_time),
            ("deadline", self.deadline),
        ):
            if not math.isfinite(value):
                raise ValueError(
                    f"task {self.task_id}: {name} must be finite, got {getattr(self, name)!r}"
                )
        if self.deadline <= self.release_time:
            raise ValueError(f"task {self.task_id}: deadline must follow release")

    @property
    def valid_minutes(self) -> float:
        return self.deadline - self.release_time


@dataclass(slots=True)
class Worker:
    """Definition 2: a crowd worker with a hidden daily routine.

    The platform never reads ``routine`` directly — only the worker's
    current location (shared while online) and whatever the mobility
    model predicts.  ``detour_budget_km`` is ``w.d``; the worker accepts
    a task only if serving it detours them by at most this much.

    ``available_from`` / ``available_until`` are the worker's declared
    availability window (DATA-WA-style dynamic availability); ``None``
    (the default) falls back to the routine's time span, which is what
    the serving engine has always used — so existing populations behave
    bit-identically.  A declared window may only narrow the routine
    span, never extend past it (the routine is where the worker *is*).
    """

    worker_id: int
    routine: Trajectory
    detour_budget_km: float
    speed_km_per_min: float
    history: list[Trajectory] = field(default_factory=list)
    available_from: float | None = None
    available_until: float | None = None

    def __post_init__(self) -> None:
        _check_budget_and_speed(self.worker_id, self.detour_budget_km, self.speed_km_per_min)
        if (
            self.available_from is not None
            and self.available_until is not None
            and self.available_until <= self.available_from
        ):
            raise ValueError("availability window must have positive length")

    def availability_start(self) -> float:
        """When the worker comes online (declared window, else routine)."""
        if self.available_from is None:
            return self.routine.start_time
        return max(self.available_from, self.routine.start_time)

    def availability_end(self) -> float:
        """When the worker checks out (declared window, else routine)."""
        if self.available_until is None:
            return self.routine.end_time
        return min(self.available_until, self.routine.end_time)

    def location_at(self, t: float) -> Point:
        """Ground-truth position at time ``t`` (worker-side knowledge;
        the platform sees only :meth:`last_shared_location`)."""
        return self.routine.position_at(t)

    def last_shared_location(self, t: float) -> Point:
        """The most recent location sample the worker shared with the
        platform (Section II: workers "merely share their current
        location" when reporting — between reports the platform's view
        is stale by up to one sample step)."""
        times = self.routine.times
        idx = bisect.bisect_right(times, t) - 1
        idx = max(idx, 0)
        return self.routine[idx].location


@dataclass(slots=True)
class WorkerSnapshot:
    """The platform's per-batch view of one worker.

    Attributes
    ----------
    worker_id:
        Identity, matching :attr:`Worker.worker_id`.
    current_location:
        The location the worker shared at batch time.
    predicted_xy / predicted_times:
        The mobility model's forecast ``w.r^`` — ``(n, 2)`` planar
        points and their timestamps.
    detour_budget_km:
        ``w.d`` (declared to the platform on registration).
    speed_km_per_min:
        Worker speed ``sp`` used for deadline feasibility.
    matching_rate:
        The worker's model performance ``MR`` (Def. 7), estimated
        offline on validation data.
    """

    worker_id: int
    current_location: Point
    predicted_xy: np.ndarray
    predicted_times: np.ndarray
    detour_budget_km: float
    speed_km_per_min: float
    matching_rate: float

    def __post_init__(self) -> None:
        self.predicted_xy = np.asarray(self.predicted_xy, dtype=float).reshape(-1, 2)
        self.predicted_times = np.asarray(self.predicted_times, dtype=float).ravel()
        if len(self.predicted_xy) != len(self.predicted_times):
            raise ValueError("predicted points and times must align")
        if not 0.0 <= self.matching_rate <= 1.0:
            raise ValueError("matching rate must lie in [0, 1]")
        _check_budget_and_speed(self.worker_id, self.detour_budget_km, self.speed_km_per_min)

    def with_location(self, location: Point) -> "WorkerSnapshot":
        """This snapshot with ``current_location`` replaced.

        The copy shares the forecast arrays themselves and skips
        ``__post_init__``: they were validated when this snapshot was
        built.  A prediction-cache hit is one such copy.
        """
        clone = object.__new__(WorkerSnapshot)
        clone.worker_id = self.worker_id
        clone.current_location = location
        clone.predicted_xy = self.predicted_xy
        clone.predicted_times = self.predicted_times
        clone.detour_budget_km = self.detour_budget_km
        clone.speed_km_per_min = self.speed_km_per_min
        clone.matching_rate = self.matching_rate
        return clone
