"""Online monitoring: periodic metric snapshots for a live run.

``repro.obs`` so far captured *end-of-run* state: one metrics snapshot
flushed when the recorder finishes, spans read back post hoc.  A
streaming engine (:mod:`repro.serve`) runs continuously, so operators
need the time axis: queue pressure over the run, batch latency as the
stream loads up, whether the predictor's completion probabilities are
still calibrated (see :mod:`repro.obs.calibration`).

:class:`MetricsMonitor` samples a :class:`~repro.obs.metrics.MetricsRegistry`
on a configurable cadence — simulated event time or wall clock — into
an append-only JSONL **time series**.  Each sample carries:

* cumulative counter values plus **windowed deltas** (what happened
  since the previous sample — the rate signal);
* current gauge values;
* **rolling histogram summaries** over the observations that arrived
  in the window (cursors into the histogram, no copying/resetting).

An OpenMetrics exposition target (file and/or stdlib HTTP endpoint,
:mod:`repro.obs.openmetrics`) lets external scrapers watch the run
live.  Scrapers read on the wall clock, so the exposition follows the
wall clock too, not the sample cadence: it is refreshed on the first
sample, on any later sample at least :data:`EXPOSE_INTERVAL_S` (1 s of
``time.monotonic()``) after the previous refresh, and always at
:meth:`MetricsMonitor.finish`.  An event-clock run that takes hundreds
of samples a second rewrites the file about once a second; a
``clock="wall"`` monitor with a cadence of 1 s or more refreshes on
every sample.  Only a refresh summarises whole histograms; a sample
summarises its own window.  A calibration monitor, when
configured, streams its drift events into the same series file and
appends a final ``calibration`` record at close.

Everything here is opt-in: the serving engine only instantiates a
monitor when :class:`MonitorConfig` is present on its config, and the
no-op default path is untouched.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.obs.calibration import CalibrationConfig, CalibrationMonitor
from repro.obs.metrics import MetricsRegistry, labelled
from repro.obs.openmetrics import ExpositionServer, render_openmetrics, write_openmetrics
from repro.obs.sinks import JsonlSink

#: Wall seconds between OpenMetrics refreshes (file and HTTP text); see
#: :meth:`MetricsMonitor._expose`.
EXPOSE_INTERVAL_S = 1.0


# ----------------------------------------------------------------------
# Service-level objectives over the sampled series.

@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective over monitor samples.

    Two kinds, mirroring the two signals the sampler produces:

    * ``ratio`` — a good-events / total-events objective over counter
      *deltas* per window, e.g. ``assign_rate = serve.accepted /
      serve.assignments >= 0.95``.  A window's **bad fraction** is
      ``1 - good/total`` (clamped to [0, 1]) weighted by ``total``;
      windows with no traffic carry no weight.
    * ``quantile`` — a windowed histogram-summary threshold, e.g.
      ``p99(serve.batch.latency_s) <= 0.5``.  A window is wholly good
      or wholly bad (the summary either meets the threshold or not),
      weighted by the window's observation count.

    Alerting uses the multi-window burn-rate idiom: the **burn rate**
    is the weighted-average bad fraction divided by the error budget
    (``1 - target`` for ratios; ``budget`` for quantile objectives,
    default 5% of windows), so burn 1.0 exactly spends the budget.  An
    alert fires on the rising edge of *both* the short window (fast
    signal) and the long window (debounce) exceeding
    ``burn_threshold``; it re-arms once either window recovers.
    """

    name: str
    kind: str
    target: float
    numerator: str | None = None
    denominator: str | None = None
    metric: str | None = None
    quantile: str = "p99"
    budget: float | None = None
    short_window: int = 3
    long_window: int = 12
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "quantile"):
            raise ValueError("SLO kind must be 'ratio' or 'quantile'")
        if self.kind == "ratio":
            if not self.numerator or not self.denominator:
                raise ValueError("ratio SLO needs numerator and denominator metrics")
            if not 0.0 < self.target <= 1.0:
                raise ValueError("ratio SLO target must be in (0, 1]")
        else:
            if not self.metric:
                raise ValueError("quantile SLO needs a histogram metric")
            if self.quantile not in ("p50", "p90", "p99", "mean", "max"):
                raise ValueError("SLO quantile must be one of p50/p90/p99/mean/max")
        if self.budget is not None and not 0.0 < self.budget <= 1.0:
            raise ValueError("SLO budget must be in (0, 1]")
        if self.short_window < 1 or self.long_window < self.short_window:
            raise ValueError("SLO windows must satisfy 1 <= short <= long")
        if self.burn_threshold <= 0:
            raise ValueError("SLO burn threshold must be positive")

    def resolved_budget(self) -> float:
        if self.budget is not None:
            return self.budget
        if self.kind == "ratio":
            return max(1.0 - self.target, 1e-9)
        return 0.05

    def describe(self) -> str:
        if self.kind == "ratio":
            return f"{self.numerator}/{self.denominator} >= {self.target:g}"
        return f"{self.quantile}({self.metric}) <= {self.target:g}"


_SLO_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z0-9_.-]+)\s*=\s*(?P<body>.+?)\s*(?P<op>>=|<=)\s*"
    r"(?P<value>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*$"
)
_SLO_QUANTILE_RE = re.compile(
    r"^(?P<q>p50|p90|p99|mean|max)\s*\(\s*(?P<metric>[^()\s]+)\s*\)$"
)


def parse_slo(text: str) -> SLOSpec:
    """Parse the CLI objective grammar into an :class:`SLOSpec`.

    Two forms::

        assign_rate = serve.accepted / serve.assignments >= 0.95
        batch_p99 = p99(serve.batch.latency_s) <= 0.5

    whitespace optional throughout.
    """
    match = _SLO_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse SLO {text!r}; expected 'name=num/den>=target' "
            "or 'name=p99(metric)<=threshold'"
        )
    name, body, op, value = (
        match["name"], match["body"].strip(), match["op"], float(match["value"])
    )
    quantile = _SLO_QUANTILE_RE.match(body)
    if quantile is not None:
        if op != "<=":
            raise ValueError(f"quantile SLO {name!r} must use '<='")
        return SLOSpec(
            name=name, kind="quantile", target=value,
            metric=quantile["metric"], quantile=quantile["q"],
        )
    if "/" in body:
        if op != ">=":
            raise ValueError(f"ratio SLO {name!r} must use '>='")
        numerator, _, denominator = body.partition("/")
        return SLOSpec(
            name=name, kind="ratio", target=value,
            numerator=numerator.strip(), denominator=denominator.strip(),
        )
    raise ValueError(
        f"cannot parse SLO body {body!r}; expected 'num/den' or 'p99(metric)'"
    )


class SLOEvaluator:
    """Evaluates a set of :class:`SLOSpec` sample by sample.

    Pure over the sample stream — :meth:`observe` consumes monitor
    sample records (live from :class:`MetricsMonitor`, or replayed from
    a series file by ``serve-report``) and returns each objective's
    burn-rate status plus any newly fired alert events, so a replay
    reconstructs exactly the alerts the live run emitted.
    """

    def __init__(self, specs: Sequence[SLOSpec]) -> None:
        self.specs = tuple(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("SLO names must be unique")
        self._history: dict[str, deque] = {
            s.name: deque(maxlen=s.long_window) for s in self.specs
        }
        self._alerting: dict[str, bool] = {s.name: False for s in self.specs}
        self.alerts: list[dict] = []

    def observe(self, sample: dict) -> tuple[dict, list[dict]]:
        """One sample in; per-SLO status and newly fired alerts out."""
        status: dict[str, dict] = {}
        fired: list[dict] = []
        for spec in self.specs:
            self._history[spec.name].append(self._bad_fraction(spec, sample))
            burn_short = self._burn(spec, spec.short_window)
            burn_long = self._burn(spec, spec.long_window)
            alerting = (
                burn_short is not None
                and burn_long is not None
                and burn_short >= spec.burn_threshold
                and burn_long >= spec.burn_threshold
            )
            rising = alerting and not self._alerting[spec.name]
            self._alerting[spec.name] = alerting
            status[spec.name] = {
                "burn_short": burn_short,
                "burn_long": burn_long,
                "alerting": alerting,
            }
            if rising:
                event = {
                    "type": "slo_alert",
                    "slo": spec.name,
                    "objective": spec.describe(),
                    "t": sample.get("t"),
                    "seq": sample.get("seq"),
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "burn_threshold": spec.burn_threshold,
                }
                self.alerts.append(event)
                fired.append(event)
        return status, fired

    @staticmethod
    def _bad_fraction(spec: SLOSpec, sample: dict) -> tuple[float, float] | None:
        """This window's ``(bad_fraction, weight)``; ``None`` if idle."""
        if spec.kind == "ratio":
            deltas = sample.get("counter_deltas") or {}
            total = float(deltas.get(spec.denominator, 0.0))
            if total <= 0:
                return None
            good = float(deltas.get(spec.numerator, 0.0))
            return (min(max(1.0 - good / total, 0.0), 1.0), total)
        window = (sample.get("histograms") or {}).get(spec.metric)
        if not window or not window.get("count"):
            return None
        observed = window.get(spec.quantile)
        if observed is None:
            return None
        return (1.0 if observed > spec.target else 0.0, float(window["count"]))

    def _burn(self, spec: SLOSpec, n: int) -> float | None:
        entries = [e for e in list(self._history[spec.name])[-n:] if e is not None]
        if not entries:
            return None
        weight = sum(w for _b, w in entries)
        if weight <= 0:
            return None
        bad = sum(b * w for b, w in entries) / weight
        return bad / spec.resolved_budget()


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the online monitor.

    Attributes
    ----------
    cadence:
        Sampling period: simulated minutes when ``clock="event"``,
        seconds when ``clock="wall"``.
    clock:
        ``"event"`` samples on the run's own time axis (deterministic,
        the default for simulated streams); ``"wall"`` samples on
        ``time.monotonic()`` (for live deployments).
    series_path:
        JSONL time-series target (``None`` keeps samples in memory
        only — tests and in-process dashboards).
    openmetrics_path:
        When set, the monitor atomically rewrites this OpenMetrics
        exposition file on the first sample, then at most once per
        :data:`EXPOSE_INTERVAL_S` of wall time (scrapers read on the
        wall clock), and always at :meth:`MetricsMonitor.finish`.
    http_port:
        When set (0 = ephemeral), an :class:`ExpositionServer` serves
        the latest exposition at ``/metrics`` for the monitor's
        lifetime; its text is refreshed together with the file, on the
        same wall-time rule.
    prefix:
        OpenMetrics namespace prefix.
    calibration:
        Calibration-monitor knobs; ``None`` disables calibration
        tracking entirely.
    slos:
        Declarative objectives (:class:`SLOSpec`, or their string
        grammar — see :func:`parse_slo`) evaluated at every sample;
        burn-rate status lands in the sample records and alert events
        stream into the series.  Empty disables SLO tracking.
    """

    cadence: float = 2.0
    clock: str = "event"
    series_path: str | None = None
    openmetrics_path: str | None = None
    http_port: int | None = None
    prefix: str = "repro"
    calibration: CalibrationConfig | None = field(default_factory=CalibrationConfig)
    slos: tuple = ()

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise ValueError("monitor cadence must be positive")
        if self.clock not in ("event", "wall"):
            raise ValueError("monitor clock must be 'event' or 'wall'")
        if self.http_port is not None and not 0 <= self.http_port <= 65535:
            raise ValueError(f"http_port must lie in 0..65535, got {self.http_port}")
        object.__setattr__(
            self,
            "slos",
            tuple(parse_slo(s) if isinstance(s, str) else s for s in self.slos),
        )


class MetricsMonitor:
    """Samples a metrics registry on a cadence into a JSONL time series.

    Drive it with :meth:`start` once, :meth:`advance` on every event
    (cheap: one float comparison until a sample boundary is crossed),
    and :meth:`finish` at the end of the run.  Samples accumulate in
    :attr:`samples` and stream to ``config.series_path`` when set.
    """

    def __init__(self, config: MonitorConfig, registry: MetricsRegistry) -> None:
        self.config = config
        self.registry = registry
        self.samples: list[dict] = []
        self.calibration = (
            CalibrationMonitor(config.calibration) if config.calibration is not None else None
        )
        self.slo: SLOEvaluator | None = SLOEvaluator(config.slos) if config.slos else None
        self.server: ExpositionServer | None = None
        self._sink: JsonlSink | None = None
        self._seq = 0
        self._last_t: float | None = None
        self._next_sample = 0.0
        self._last_counters: dict[str, float] = {}
        self._hist_cursors: dict[str, int] = {}
        #: ``time.monotonic()`` of the last exposition refresh.
        self._last_expose: float | None = None
        self._finished = False

    # -- lifecycle -----------------------------------------------------
    def start(self, t: float | None = None) -> None:
        """Open sinks and anchor the sampling clock at ``t``."""
        if self.config.series_path is not None:
            self._sink = JsonlSink(self.config.series_path)
        if self.config.http_port is not None:
            self.server = ExpositionServer(port=self.config.http_port)
        t0 = self._now(t)
        self._last_t = t0
        self._next_sample = t0 + self.config.cadence
        self._write({"type": "monitor_start", "t": t0, "wall_unix": time.time(),
                     "cadence": self.config.cadence, "clock": self.config.clock})
        for spec in self.config.slos:
            self._write({"type": "slo_spec", "slo": spec.name,
                         "objective": spec.describe(), **asdict(spec)})

    def advance(self, t: float | None = None) -> None:
        """Clock tick: emit samples for every cadence boundary crossed.

        With the event clock, an idle stretch longer than one cadence
        emits one sample per boundary (so the series has a row for
        every window, even empty ones); the registry state is the same
        for each, only the window bounds differ.
        """
        now = self._now(t)
        while not self._finished and now >= self._next_sample - 1e-9:
            self._sample(at=self._next_sample)
            self._next_sample += self.config.cadence

    def observe_outcome(self, predicted: float, accepted: bool, t: float) -> None:
        """Feed one assignment outcome to the calibration monitor.

        Drift events stream into the series file as they fire.
        """
        if self.calibration is None:
            return
        event = self.calibration.observe(predicted, accepted, t)
        if event is not None:
            self.registry.counter("serve.calibration.drift").add(1.0)
            self._write(dict(event, wall_unix=time.time()))

    def finish(self, t: float | None = None) -> None:
        """Final sample, calibration summary, and sink close."""
        if self._finished:
            return
        self._sample(at=self._now(t), final=True)
        if self.calibration is not None:
            self._write({"type": "calibration", "wall_unix": time.time(),
                         **self.calibration.summary()})
        self._finished = True
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if self.server is not None:
            self.server.close()
            self.server = None

    # -- internals -----------------------------------------------------
    def _now(self, t: float | None) -> float:
        if self.config.clock == "wall":
            return time.monotonic()
        if t is None:
            raise ValueError("event-clock monitor needs an explicit time")
        return t

    def _sample(self, at: float, final: bool = False) -> None:
        # Counters and gauges plus each histogram's own window: a sample
        # never summarises a histogram's whole history (only a refresh
        # of the exposition does, in :meth:`_expose`).
        scalars = self.registry.scalars()
        counters = scalars["counters"]
        deltas = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in counters.items()
        }
        windows: dict[str, dict] = {}
        # Take the histogram listing under the registry lock: feeder
        # threads (shard-server flushes, the exposition server) may be
        # creating metrics while this sampler iterates.
        with self.registry._lock:
            hist_items = sorted(self.registry.histograms.items())
        for name, hist in hist_items:
            cursor = self._hist_cursors.get(name, 0)
            windows[name] = hist.window_summary(cursor)
            self._hist_cursors[name] = len(hist.values)
        last_t = self._last_t if self._last_t is not None else at
        record = {
            "type": "sample",
            "seq": self._seq,
            "t": at,
            "wall_unix": time.time(),
            "window": at - last_t,
            "counters": counters,
            "counter_deltas": deltas,
            "gauges": scalars["gauges"],
            "histograms": windows,
        }
        if final:
            record["final"] = True
        if self.calibration is not None and self.calibration.n:
            record["calibration"] = {
                "n_samples": self.calibration.n,
                "brier": self.calibration.brier,
                "ece": self.calibration.expected_calibration_error,
                "n_drift_events": len(self.calibration.drift_events),
            }
        alerts: list[dict] = []
        if self.slo is not None:
            status, alerts = self.slo.observe(record)
            record["slos"] = status
            # Mirror burn rates / alert firings into the registry so
            # OpenMetrics scrapers see them; gauges set here land in
            # the *next* sample's record (this one is already read).
            for name, st in status.items():
                if st["burn_long"] is not None:
                    self.registry.gauge(
                        labelled("serve.slo.burn_rate", slo=name)
                    ).set(st["burn_long"])
            for event in alerts:
                self.registry.counter(
                    labelled("serve.slo.alerts", slo=event["slo"])
                ).add(1.0)
        self._seq += 1
        self._last_t = at
        self._last_counters = dict(counters)
        self.samples.append(record)
        self._write(record)
        for event in alerts:
            self._write(dict(event, wall_unix=time.time()))
        self._expose(final)

    def _expose(self, final: bool) -> None:
        """Refresh the OpenMetrics file and HTTP text, paced by wall time.

        A scraper reads on its own wall-clock schedule, so refreshing
        more than once per :data:`EXPOSE_INTERVAL_S` only rewrites what
        nobody reads.  Refreshes happen on the first sample, on any
        sample at least that long (``time.monotonic()``) after the last
        refresh, and always at the final sample.
        """
        if self.config.openmetrics_path is None and self.server is None:
            return
        now = time.monotonic()
        if not (
            final
            or self._last_expose is None
            or now - self._last_expose >= EXPOSE_INTERVAL_S
        ):
            return
        self._last_expose = now
        snapshot = self.registry.snapshot()
        if self.config.openmetrics_path is not None:
            write_openmetrics(self.config.openmetrics_path, snapshot, prefix=self.config.prefix)
        if self.server is not None:
            self.server.publish(render_openmetrics(snapshot, prefix=self.config.prefix))

    def _write(self, record: dict) -> None:
        if self._sink is not None:
            self._sink.emit(record)
            self._sink.flush()
