"""Observability for the TAMP pipeline: spans, metrics, manifests.

Three pieces (see ``docs/OBSERVABILITY.md``):

* a **tracer** of nested wall-time spans with JSONL and in-memory
  sinks (:mod:`repro.obs.recorder`, :mod:`repro.obs.sinks`);
* a **metrics registry** of counters, gauges, and p50/p90/p99
  histograms (:mod:`repro.obs.metrics`);
* **run manifests** capturing config, seed, git SHA, and final
  metrics per run (:mod:`repro.obs.manifest`).

The default recorder is a no-op singleton, so instrumented hot paths
cost nothing unless :func:`recording` (or :func:`set_recorder`)
activates tracing.  Typical use::

    from repro import obs

    with obs.recording(obs.JsonlSink("run.trace.jsonl")):
        with obs.span("experiment.run_assignment", algorithm="ppi"):
            ...
"""

from repro.obs.calibration import (
    CalibrationConfig,
    CalibrationMonitor,
    PageHinkley,
)
from repro.obs.dashboard import (
    aggregate_series,
    forecast_cell_errors,
    reason_breakdown,
    render_serve_report,
)
from repro.obs.decisions import (
    DecisionConfig,
    DecisionLog,
    decision_records,
    diff_decisions,
    explain_task,
    find_decision_log,
    read_decisions,
    reconcile,
    render_explain,
    render_run_diff,
)
from repro.obs.dist import (
    RoundAttribution,
    attribute_rounds,
    current_context,
    merge_spools,
    render_distributed_report,
)
from repro.obs.format import Reporter
from repro.obs.manifest import RunManifest, git_sha, manifest_path_for, read_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled,
    percentile,
    split_labels,
)
from repro.obs.monitor import (
    MetricsMonitor,
    MonitorConfig,
    SLOEvaluator,
    SLOSpec,
    parse_slo,
)
from repro.obs.openmetrics import (
    ExpositionServer,
    metric_name,
    render_openmetrics,
    write_openmetrics,
)
from repro.obs.recorder import (
    NOOP,
    NULL_SPAN,
    MetricsRecorder,
    NoopRecorder,
    Span,
    TraceRecorder,
    counter,
    enabled,
    gauge,
    get_recorder,
    histogram,
    new_trace_id,
    recording,
    set_recorder,
    span,
)
from repro.obs.report import TraceReport, aggregate, render_report
from repro.obs.sinks import JsonlSink, MemorySink, read_jsonl

__all__ = [
    "CalibrationConfig",
    "CalibrationMonitor",
    "PageHinkley",
    "aggregate_series",
    "forecast_cell_errors",
    "reason_breakdown",
    "render_serve_report",
    "DecisionConfig",
    "DecisionLog",
    "decision_records",
    "diff_decisions",
    "explain_task",
    "find_decision_log",
    "read_decisions",
    "reconcile",
    "render_explain",
    "render_run_diff",
    "RoundAttribution",
    "attribute_rounds",
    "current_context",
    "merge_spools",
    "render_distributed_report",
    "Reporter",
    "RunManifest",
    "git_sha",
    "manifest_path_for",
    "read_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "labelled",
    "percentile",
    "split_labels",
    "MetricsMonitor",
    "MonitorConfig",
    "SLOEvaluator",
    "SLOSpec",
    "parse_slo",
    "ExpositionServer",
    "metric_name",
    "render_openmetrics",
    "write_openmetrics",
    "NOOP",
    "NULL_SPAN",
    "MetricsRecorder",
    "NoopRecorder",
    "Span",
    "TraceRecorder",
    "counter",
    "enabled",
    "gauge",
    "get_recorder",
    "histogram",
    "new_trace_id",
    "recording",
    "set_recorder",
    "span",
    "TraceReport",
    "aggregate",
    "render_report",
    "JsonlSink",
    "MemorySink",
    "read_jsonl",
]
