"""The metrics registry: counters, gauges, and histograms.

Metrics are named with dotted lowercase paths mirroring the module that
emits them (``maml.inner_loop_steps``, ``ppi.stage1.assigned``,
``km.solve_seconds`` — see ``docs/OBSERVABILITY.md`` for the naming
conventions).  Histograms keep raw observations and summarise to
count/sum/min/max plus p50/p90/p99 on demand, which is cheap at the
scales a single experiment run produces (thousands of observations).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Matches ``numpy.percentile``'s default method; implemented in plain
    Python so the observability layer has no array dependency.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: list[float], q: float) -> float:
    """:func:`percentile` of an already-sorted, non-empty list."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass
class Counter:
    """A monotonically increasing count (events, steps, assignments)."""

    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for signed values")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins value (tree depth, current queue length)."""

    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


@dataclass
class Histogram:
    """Raw observations with percentile summaries."""

    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A NaN would silently poison every percentile computed from
            # this histogram; fail at the observation site instead.
            raise ValueError(f"histogram observation must be finite, got {value}")
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def summary(self) -> dict[str, float]:
        """count/sum/mean/min/max/p50/p90/p99 of what was observed."""
        return self.window_summary(0)

    def window_summary(self, start: int) -> dict[str, float]:
        """:meth:`summary` restricted to observations from index ``start``.

        The monitor's rolling windows are cursors into the observation
        list: summarising ``values[start:]`` gives "what happened since
        the last sample" without copying or resetting the histogram.
        """
        if start < 0:
            raise ValueError("window start must be non-negative")
        window = self.values[start:] if start else self.values
        if not window:
            return {"count": 0}
        total = float(sum(window))
        ordered = sorted(window)
        return {
            "count": len(window),
            "sum": total,
            "mean": total / len(window),
            "min": float(min(window)),
            "max": float(max(window)),
            "p50": _sorted_percentile(ordered, 50.0),
            "p90": _sorted_percentile(ordered, 90.0),
            "p99": _sorted_percentile(ordered, 99.0),
        }


def labelled(base: str, **labels) -> str:
    """Render a label-style metric name: ``base{k=v,k2=v2}``.

    Label-style names keep one logical metric family per base name
    (``dist.shard.pairs{shard=3}``) instead of minting a new dotted
    path per shard id, so OpenMetrics exposition can group them into a
    single family with proper labels rather than exploding the
    namespace at high shard counts.  Labels are sorted for a canonical
    form; values must not contain ``,``, ``=``, ``{`` or ``}``.
    """
    if "{" in base or "}" in base:
        raise ValueError(f"label base {base!r} contains a reserved character")
    if not labels:
        return base
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if any(ch in value for ch in ',={}') or any(ch in key for ch in ',={}'):
            raise ValueError(f"label {key}={value!r} contains a reserved character")
        parts.append(f"{key}={value}")
    return base + "{" + ",".join(parts) + "}"


def split_labels(name: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`labelled`: ``base{k=v}`` → ``(base, {k: v})``."""
    if not name.endswith("}") or "{" not in name:
        return name, {}
    base, _, body = name.partition("{")
    labels = {}
    for pair in body[:-1].split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels


class MetricsRegistry:
    """Holds every metric of one recording session, keyed by name.

    A name is bound to a single metric kind for the registry's
    lifetime; re-using ``maml.inner_loop_steps`` as a gauge after it
    was a counter raises, catching instrumentation typos early.

    Creation, the kind check, and :meth:`snapshot` hold an internal
    lock: the OpenMetrics exposition thread and the monitor's sampler
    read the registry while the engine thread (and shard-server feeder
    threads) mutate it.  Updates on an already-created metric
    (``Counter.add`` etc.) are single bytecode-level mutations and are
    left unlocked on purpose — the lock guards the dict structure, not
    every observation, keeping the hot path at its pre-lock cost.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.RLock()

    def _check_unique(self, name: str, kind: dict) -> None:
        for registry in (self.counters, self.gauges, self.histograms):
            if registry is not kind and name in registry:
                raise ValueError(f"metric '{name}' already registered with a different kind")

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            with self._lock:
                metric = self.counters.get(name)
                if metric is None:
                    self._check_unique(name, self.counters)
                    metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self.gauges.get(name)
                if metric is None:
                    self._check_unique(name, self.gauges)
                    metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self.histograms.get(name)
                if metric is None:
                    self._check_unique(name, self.histograms)
                    metric = self.histograms[name] = Histogram()
        return metric

    def scalars(self) -> dict:
        """Counter and gauge values, name-sorted.

        :meth:`snapshot` without the histogram summaries, which sort
        each histogram's whole history.
        """
        with self._lock:
            counters = sorted(self.counters.items())
            gauges = sorted(self.gauges.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
        }

    def snapshot(self) -> dict:
        """A JSON-ready view of every metric's current state."""
        with self._lock:
            view = self.scalars()
            histograms = sorted(self.histograms.items())
        view["histograms"] = {name: h.summary() for name, h in histograms}
        return view
