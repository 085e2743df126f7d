"""Timestamped trajectories (the paper's "routines").

A routine ``r = {(l_1, t_1), ..., (l_n, t_n)}`` is a time-ordered
polyline.  Workers move along their routine at constant speed between
samples; :meth:`Trajectory.position_at` interpolates, which is what the
acceptance model and the UB oracle use to reason about where a worker
*actually* is.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geo.point import Point, path_length


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """A single routine sample: a location with a timestamp (minutes)."""

    location: Point
    time: float

    def __iter__(self):
        yield self.location
        yield self.time


class Trajectory:
    """An immutable, time-ordered sequence of :class:`TrajectoryPoint`.

    Timestamps are minutes from the start of the simulated day and must
    be strictly increasing.
    """

    __slots__ = ("_points", "_times", "_xy")

    def __init__(self, points: Iterable[TrajectoryPoint]) -> None:
        pts = tuple(points)
        times = [p.time for p in pts]
        xy = np.array([[p.location.x, p.location.y] for p in pts], dtype=float).reshape(len(pts), 2)
        if not (np.isfinite(xy).all() and all(map(math.isfinite, times))):
            for i, p in enumerate(pts):
                if not math.isfinite(p.time):
                    raise ValueError(f"trajectory sample {i}: time must be finite, got {p.time!r}")
                if not all(map(math.isfinite, p.location)):
                    raise ValueError(
                        f"trajectory sample {i}: location must be finite, "
                        f"got ({p.location.x!r}, {p.location.y!r})"
                    )
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("trajectory timestamps must be strictly increasing")
        self._points = pts
        self._times = tuple(times)
        self._xy = xy

    @classmethod
    def from_arrays(cls, xy: np.ndarray, times: Sequence[float]) -> "Trajectory":
        """Build a trajectory from an ``(n, 2)`` array and matching times."""
        xy = np.asarray(xy, dtype=float)
        if len(xy) != len(times):
            raise ValueError("xy and times must have equal length")
        return cls(TrajectoryPoint(Point(float(x), float(y)), float(t)) for (x, y), t in zip(xy, times))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self._points)

    def __getitem__(self, idx: int) -> TrajectoryPoint:
        return self._points[idx]

    @property
    def xy(self) -> np.ndarray:
        """Locations as an ``(n, 2)`` array (shared; treat as read-only)."""
        return self._xy

    @property
    def times(self) -> Sequence[float]:
        return self._times

    @property
    def start_time(self) -> float:
        return self._times[0]

    @property
    def end_time(self) -> float:
        return self._times[-1]

    def length_km(self) -> float:
        """Total travelled distance along the polyline."""
        return path_length(self._xy)

    def duration(self) -> float:
        """Elapsed minutes from first to last sample."""
        return self.end_time - self.start_time if self._points else 0.0

    def position_at(self, t: float) -> Point:
        """Linearly interpolated position at time ``t``.

        Clamps to the endpoints outside the routine's time span, which
        models a worker idling at their first/last location.
        """
        if not self._points:
            raise ValueError("empty trajectory has no position")
        if t <= self._times[0]:
            return self._points[0].location
        if t >= self._times[-1]:
            return self._points[-1].location
        hi = bisect.bisect_right(self._times, t)
        lo = hi - 1
        t0, t1 = self._times[lo], self._times[hi]
        frac = (t - t0) / (t1 - t0)
        a = self._points[lo].location
        b = self._points[hi].location
        return Point(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))

    def slice_time(self, t_from: float, t_to: float) -> "Trajectory":
        """Sub-trajectory of samples with ``t_from <= t <= t_to``.

        Raises :class:`ValueError` when no sample falls in the window;
        callers that tolerate empty windows should catch it.
        """
        if t_to < t_from:
            raise ValueError("t_to must be >= t_from")
        selected = [p for p in self._points if t_from <= p.time <= t_to]
        if not selected:
            raise ValueError(f"no trajectory samples in [{t_from}, {t_to}]")
        return Trajectory(selected)

    def future_points(self, t: float, horizon: int) -> list[TrajectoryPoint]:
        """Up to ``horizon`` samples strictly after time ``t``."""
        start = bisect.bisect_right(self._times, t)
        return list(self._points[start : start + horizon])

    def resampled(self, step: float) -> "Trajectory":
        """Resample at a fixed time step via interpolation.

        The prediction pipeline trains on uniformly sampled sequences;
        raw generators may emit irregular timestamps.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        if len(self._points) == 1:
            return Trajectory(self._points)
        ts = np.arange(self.start_time, self.end_time + 1e-9, step)
        pts = [TrajectoryPoint(self.position_at(float(t)), float(t)) for t in ts]
        return Trajectory(pts)

    def __repr__(self) -> str:
        if not self._points:
            return "Trajectory(empty)"
        return (
            f"Trajectory(n={len(self)}, t=[{self.start_time:.1f}, {self.end_time:.1f}], "
            f"len={self.length_km():.2f}km)"
        )
