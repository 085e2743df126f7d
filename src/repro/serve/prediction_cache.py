"""TTL cache of worker snapshots keyed by worker id.

The paper's loop re-predicts every available worker every batch — with
a 2-minute window and a 10-minute prediction sample step, five
consecutive batches recompute what is essentially the same rollout.
The cache keeps each worker's last snapshot alive for ``ttl`` minutes
of simulated time and serves it back with only the (cheap)
``current_location`` refreshed.

A cached forecast is dropped early when the worker's *check-in
deviates* from it: the platform compares the location the worker just
shared against the cached trajectory's predicted position for that
time, and a gap beyond ``deviation_km`` means the worker broke from the
predicted route, so the stale rollout would poison assignment.  With
``ttl=0`` (the engine default) the cache is a passthrough: every
request calls the provider, the paper's predict-every-batch
behaviour.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.geo.point import Point
from repro.sc.entities import Worker, WorkerSnapshot
from repro.sc.platform import SnapshotProvider


#: The ``serve.cache.*`` counters, in :meth:`CacheStats.counts` order.
_COUNTERS = ("serve.cache.hits", "serve.cache.misses", "serve.cache.invalidations")


@dataclass
class CacheStats:
    """Hit/miss accounting, published as ``serve.cache.*`` counters.

    The counters go out once per batch (:meth:`publish_since`), not on
    every lookup.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "invalidations": float(self.invalidations),
            "hit_rate": self.hit_rate,
        }

    def counts(self) -> tuple[int, int, int]:
        """A ``(hits, misses, invalidations)`` mark for :meth:`publish_since`."""
        return (self.hits, self.misses, self.invalidations)

    def publish_since(self, mark: tuple[int, int, int]) -> None:
        """Add the lookups since a :meth:`counts` mark to the counters.

        A counter that did not move is not touched, so it appears in
        the registry only once it has counted something.
        """
        for name, before, now in zip(_COUNTERS, mark, self.counts()):
            if now > before:
                obs.counter(name, now - before)

    def snapshot(self) -> tuple[int, int]:
        """A (hits, requests) mark for :meth:`window_hit_rate`."""
        return (self.hits, self.requests)

    def window_hit_rate(self, since: tuple[int, int] | None) -> float | None:
        """Hit rate over the lookups since a :meth:`snapshot` mark.

        The per-batch signal behind decision-log records
        (:mod:`repro.obs.decisions`): the aggregate :attr:`hit_rate`
        smears the warm-up misses over the whole run, while a window
        says what the *current* batch actually paid.  ``None`` when no
        lookup happened in the window (or ``since`` is ``None``).
        """
        if since is None:
            return None
        requests = self.requests - since[1]
        return (self.hits - since[0]) / requests if requests else None


@dataclass
class _Entry:
    snapshot: WorkerSnapshot
    created: float


@dataclass
class PredictionCache:
    """Wraps a :data:`SnapshotProvider` with TTL + deviation caching.

    Attributes
    ----------
    provider:
        The underlying (expensive) snapshot builder.
    ttl:
        How long a snapshot stays fresh, in simulated minutes.  ``0``
        disables caching entirely.
    deviation_km:
        Invalidate when the worker's shared location is further than
        this from the cached prediction for the current time (``None``
        disables the check).
    """

    provider: SnapshotProvider
    ttl: float = 0.0
    deviation_km: float | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[int, _Entry] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError("cache ttl must be non-negative")
        if self.deviation_km is not None and self.deviation_km < 0:
            raise ValueError("deviation threshold must be non-negative")

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        return self.get(worker, t)

    def get(self, worker: Worker, t: float) -> WorkerSnapshot:
        key = worker.worker_id
        if self.ttl > 0:
            entry = self._entries.get(key)
            if entry is not None and t - entry.created <= self.ttl + 1e-9:
                here = worker.last_shared_location(t)
                if self._deviated(entry.snapshot, here, t):
                    self.stats.invalidations += 1
                    del self._entries[key]
                else:
                    self.stats.hits += 1
                    return entry.snapshot.with_location(here)
            elif entry is not None:
                # Expired by TTL; drop silently (counted as a miss below).
                del self._entries[key]

        self.stats.misses += 1
        snapshot = self.provider(worker, t)
        if self.ttl > 0:
            self._entries[key] = _Entry(snapshot=snapshot, created=t)
        return snapshot

    def invalidate(self, worker_id: int) -> None:
        """Explicitly drop one worker's cached snapshot."""
        self._entries.pop(worker_id, None)

    def _deviated(self, snapshot: WorkerSnapshot, here: Point, t: float) -> bool:
        """Has the check-in ``here`` broken from the cached forecast?"""
        if self.deviation_km is None:
            return False
        predicted = self._predicted_position(snapshot, t)
        if predicted is None:
            return False
        gap = float(np.hypot(predicted[0] - here.x, predicted[1] - here.y))
        return gap > self.deviation_km

    @staticmethod
    def _predicted_position(snapshot: WorkerSnapshot, t: float) -> tuple[float, float] | None:
        """Where the cached forecast says the worker is at time ``t``.

        Interpolates between the snapshot's origin (current location at
        creation) and its predicted points; ``None`` when the forecast
        has no points.  A forecast has a handful of points, so this is
        float arithmetic on ``tolist()`` values, which rounds exactly as
        the elementwise array form.  Times ascend, so ``bisect_left``
        leaves ``t0 < t <= t1`` even across duplicate timestamps.
        """
        times = snapshot.predicted_times.tolist()
        if not times:
            return None
        if t < times[0]:
            origin = snapshot.current_location
            return origin.x, origin.y
        xy = snapshot.predicted_xy
        idx = bisect_left(times, t)
        if idx == 0:
            return tuple(xy[0].tolist())
        if idx == len(times):
            return tuple(xy[-1].tolist())
        t0, t1 = times[idx - 1], times[idx]
        (x0, y0), (x1, y1) = xy[idx - 1 : idx + 1].tolist()
        frac = (t - t0) / (t1 - t0)
        return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
