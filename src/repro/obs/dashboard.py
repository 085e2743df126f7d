"""Render a monitor time series as a per-phase text dashboard.

Backs ``python -m repro.cli serve-report <series>``: the JSONL time
series written by :class:`repro.obs.monitor.MetricsMonitor` is split
into contiguous *phases* (three by default — ramp-up / steady / drain,
the canonical shape of a bounded streaming run), and every metric is
aggregated per phase:

* counters: windowed deltas summed per phase (plus a sparkline over
  every window, so bursts are visible at sample resolution);
* gauges: per-phase mean of the sampled values plus the final value;
* histograms: per-phase merged count/mean/max of the window summaries;
* calibration: reliability bins, Brier/ECE, and drift events, rendered
  from the series' ``calibration`` and ``drift`` records;
* distributed runs: label-style ``dist.shard.*{shard=N}`` series
  (see :func:`repro.obs.metrics.labelled`) pivot into one per-shard
  table instead of one dashboard row per shard-metric pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import split_labels

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """A unicode block sparkline of ``values`` (empty string when flat-empty)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    span = hi - lo
    return "".join(_SPARK[min(int((v - lo) / span * len(_SPARK)), len(_SPARK) - 1)] for v in values)


@dataclass
class Phase:
    """One contiguous stretch of samples."""

    name: str
    t0: float
    t1: float
    samples: list[dict]

    def counter_delta(self, name: str) -> float:
        return sum(s.get("counter_deltas", {}).get(name, 0.0) for s in self.samples)

    def gauge_mean(self, name: str) -> float | None:
        values = [s["gauges"][name] for s in self.samples if name in s.get("gauges", {})]
        return sum(values) / len(values) if values else None

    def histogram_merge(self, name: str) -> dict:
        """Merge the phase's window summaries (count/sum/max merge exactly).

        Tolerant of partial summaries (a truncated series can leave a
        window with a count but no ``max``): missing fields contribute
        nothing rather than crashing the report.
        """
        count, total, peak = 0, 0.0, None
        for s in self.samples:
            w = s.get("histograms", {}).get(name)
            if not w or not w.get("count"):
                continue
            count += w["count"]
            total += w.get("sum", 0.0)
            w_max = w.get("max")
            if w_max is not None:
                peak = w_max if peak is None else max(peak, w_max)
        return {"count": count, "sum": total, "mean": total / count if count else 0.0, "max": peak}


def _shard_sort_key(shard: str) -> tuple:
    return (0, int(shard)) if shard.isdigit() else (1, shard)


def per_shard_metrics(counters: dict, gauges: dict) -> dict[str, dict[str, float]]:
    """Pivot label-style ``...{shard=N}`` series into one row per shard.

    Returns ``{shard: {base_name: value}}`` over the union of the final
    counter totals and gauge values; metrics without a ``shard`` label
    are ignored.  Backs the dashboard's distributed section.
    """
    table: dict[str, dict[str, float]] = {}
    for name, value in {**counters, **gauges}.items():
        base, labels = split_labels(name)
        shard = labels.get("shard")
        if shard is not None:
            table.setdefault(shard, {})[base] = value
    return table


#: Counter families whose labels the dashboard pivots into a
#: per-reason breakdown (see ``repro.serve.engine``'s labelled
#: ``serve.shed.tasks{reason=...}`` / ``serve.task.expired{phase=...}``).
_REASON_BASES = ("serve.shed.tasks", "serve.task.expired")


def reason_breakdown(counters: dict) -> dict[str, dict[str, float]]:
    """Pivot labelled shed/expiry counters into ``{base: {label: n}}``."""
    table: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        base, labels = split_labels(name)
        if base in _REASON_BASES and labels:
            label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            table.setdefault(base, {})[label] = value
    return table


def forecast_cell_errors(gauges: dict) -> list[tuple[str, float]]:
    """Per-cell demand-forecast error, worst first.

    Pivot of the ``forecast.mae{cell=i-j}`` labelled gauges the serve
    engine's forecast runtime emits (running mean absolute error per
    grid cell); ties break on cell id so the table is deterministic.
    Backs the dashboard's "worst forecast cells" section.
    """
    rows = []
    for name, value in gauges.items():
        base, labels = split_labels(name)
        if base == "forecast.mae" and "cell" in labels:
            rows.append((labels["cell"], value))
    return sorted(rows, key=lambda r: (-r[1], r[0]))


_PHASE_NAMES = {3: ("ramp-up", "steady", "drain")}


def split_phases(samples: list[dict], n_phases: int = 3) -> list[Phase]:
    """Split the sample sequence into ``n_phases`` contiguous stretches."""
    if not samples:
        return []
    n_phases = max(1, min(n_phases, len(samples)))
    names = _PHASE_NAMES.get(n_phases) or tuple(f"phase {i + 1}" for i in range(n_phases))
    per = len(samples) / n_phases
    phases = []
    for i in range(n_phases):
        chunk = samples[int(round(i * per)):int(round((i + 1) * per))]
        if not chunk:
            continue
        t0 = chunk[0]["t"] - chunk[0].get("window", 0.0)
        phases.append(Phase(name=names[i], t0=t0, t1=chunk[-1]["t"], samples=chunk))
    return phases


def aggregate_series(records: list[dict], n_phases: int = 3) -> dict:
    """The JSON-ready aggregate view of one series (``--json`` payload)."""
    samples = [r for r in records if r.get("type") == "sample"]
    drift = [r for r in records if r.get("type") == "drift"]
    calibration = next((r for r in records if r.get("type") == "calibration"), None)
    start = next((r for r in records if r.get("type") == "monitor_start"), None)
    slo_specs = {r.get("slo"): r for r in records if r.get("type") == "slo_spec"}
    slo_alerts = [r for r in records if r.get("type") == "slo_alert"]
    last_slos = samples[-1].get("slos", {}) if samples else {}
    phases = split_phases(samples, n_phases)
    counters = sorted(samples[-1].get("counters", {})) if samples else []
    gauges = sorted(samples[-1].get("gauges", {})) if samples else []
    histograms = sorted({n for s in samples for n in s.get("histograms", {})})
    return {
        "n_samples": len(samples),
        "t_span": [samples[0]["t"] - samples[0].get("window", 0.0), samples[-1]["t"]]
        if samples else None,
        "cadence": start.get("cadence") if start else None,
        "clock": start.get("clock") if start else None,
        "phases": [
            {
                "name": p.name,
                "t0": p.t0,
                "t1": p.t1,
                "counters": {n: p.counter_delta(n) for n in counters},
                "gauges": {n: p.gauge_mean(n) for n in gauges},
                "histograms": {n: p.histogram_merge(n) for n in histograms},
            }
            for p in phases
        ],
        "totals": dict(samples[-1].get("counters", {})) if samples else {},
        "final_gauges": dict(samples[-1].get("gauges", {})) if samples else {},
        "per_shard": per_shard_metrics(
            samples[-1].get("counters", {}), samples[-1].get("gauges", {})
        ) if samples else {},
        "reasons": reason_breakdown(samples[-1].get("counters", {})) if samples else {},
        "forecast_cells": forecast_cell_errors(samples[-1].get("gauges", {}))
        if samples else [],
        "slos": {
            name: {
                "objective": (slo_specs.get(name) or {}).get("objective"),
                "burn_short": (last_slos.get(name) or {}).get("burn_short"),
                "burn_long": (last_slos.get(name) or {}).get("burn_long"),
                "alerting": bool((last_slos.get(name) or {}).get("alerting")),
                "n_alerts": sum(1 for a in slo_alerts if a.get("slo") == name),
            }
            for name in sorted(set(slo_specs) | set(last_slos))
        },
        "slo_alerts": slo_alerts,
        "drift_events": drift,
        "calibration": {k: v for k, v in calibration.items() if k not in ("type", "wall_unix")}
        if calibration else None,
    }


def render_serve_report(records: list[dict], title: str = "serve report",
                        n_phases: int = 3, top_cells: int = 5) -> str:
    """The human-readable per-phase dashboard."""
    lines = [title, "=" * len(title), ""]
    samples = [r for r in records if r.get("type") == "sample"]
    if not samples:
        lines.append("no samples in series (monitor never fired — cadence longer than the run?)")
        return "\n".join(lines)
    agg = aggregate_series(records, n_phases)
    t0, t1 = agg["t_span"]
    cadence = agg["cadence"]
    lines.append(
        f"samples: {agg['n_samples']}    span: {t0:g} → {t1:g}"
        + (f"    cadence: {cadence:g} ({agg['clock']})" if cadence else "")
    )
    phases = agg["phases"]
    header = f"{'':<34}" + "".join(f"{p['name']:>12}" for p in phases) + f"{'total':>12}"
    span_row = f"{'(span)':<34}" + "".join(
        "{:>12}".format("{:g}–{:g}".format(p["t0"], p["t1"])) for p in phases
    )

    if agg["totals"]:
        lines += ["", "counters (windowed deltas per phase)", "-" * len(header), header, span_row]
        for name in sorted(agg["totals"]):
            cells = "".join(f"{p['counters'].get(name, 0.0):>12g}" for p in phases)
            lines.append(f"{name:<34}{cells}{agg['totals'][name]:>12g}")
            spark = sparkline([s.get("counter_deltas", {}).get(name, 0.0) for s in samples])
            lines.append(f"{'':<34}  {spark}")

    if agg["final_gauges"]:
        lines += ["", "gauges (phase mean, final value)", "-" * len(header), header]
        for name in sorted(agg["final_gauges"]):
            cells = ""
            for p in phases:
                mean = p["gauges"].get(name)
                cells += f"{mean:>12.3g}" if mean is not None else f"{'-':>12}"
            lines.append(f"{name:<34}{cells}{agg['final_gauges'][name]:>12g}")

    hist_names = sorted({n for p in phases for n in p["histograms"]})
    shown = [
        n for n in hist_names if any(p["histograms"][n]["count"] for p in phases)
    ]
    if shown:
        lines += ["", "histograms (per-phase count | mean)", "-" * len(header), header]
        for name in shown:
            cells = ""
            for p in phases:
                h = p["histograms"][name]
                cells += f"{h['count']:>5d}|{h['mean']:<6.3g}" if h["count"] else f"{'-':>12}"
            lines.append(f"{name:<34}{cells}")

    reasons = agg.get("reasons") or {}
    if reasons:
        lines += ["", "shed / expiry reasons (final totals)",
                  "------------------------------------"]
        for base in sorted(reasons):
            total = agg["totals"].get(base)
            suffix = f"    (unlabelled total: {total:g})" if total is not None else ""
            lines.append(f"{base}{suffix}")
            for label, value in sorted(reasons[base].items()):
                lines.append(f"  {label:<32}{value:>12g}")

    slos = agg.get("slos") or {}
    if slos:
        lines += ["", "service-level objectives", "------------------------"]
        slo_header = f"{'slo':<20} {'objective':<42} {'burn short':>10} {'burn long':>10}  status"
        lines.append(slo_header)
        for name, st in sorted(slos.items()):
            burn_short = (
                f"{st['burn_short']:.2f}" if st.get("burn_short") is not None else "n/a"
            )
            burn_long = (
                f"{st['burn_long']:.2f}" if st.get("burn_long") is not None else "n/a"
            )
            status = "ALERTING" if st.get("alerting") else "ok"
            if st.get("n_alerts"):
                status += f" ({st['n_alerts']} alert(s))"
            objective = st.get("objective") or "n/a"
            lines.append(
                f"{name:<20} {objective:<42} {burn_short:>10} {burn_long:>10}  {status}"
            )
        for alert in agg.get("slo_alerts") or []:
            t = alert.get("t")
            lines.append(
                f"alert: {alert.get('slo')} at t={t:g}" if t is not None
                else f"alert: {alert.get('slo')}"
            )

    cells = (agg.get("forecast_cells") or [])[:max(0, top_cells)]
    if cells:
        lines += ["", f"worst forecast cells (top {len(cells)} by demand MAE)",
                  "---------------------------------------------"]
        lines.append(f"{'cell':<10}{'mae':>10}")
        for cell, mae in cells:
            lines.append(f"{cell:<10}{mae:>10.3f}")

    shards = agg.get("per_shard") or {}
    if shards:
        bases = sorted({b for row in shards.values() for b in row})
        prefix = "dist.shard."
        strip = all(b.startswith(prefix) for b in bases)
        cols = [b.removeprefix(prefix) if strip else b for b in bases]
        lines += ["", "per-shard metrics (final counters / gauges)",
                  "-------------------------------------------"]
        widths = [max(12, len(c) + 2) for c in cols]
        lines.append(f"{'shard':<8}" + "".join(f"{c:>{w}}" for c, w in zip(cols, widths)))
        for shard in sorted(shards, key=_shard_sort_key):
            row = shards[shard]
            cells = "".join(
                f"{row[b]:>{w}g}" if b in row else f"{'-':>{w}}"
                for b, w in zip(bases, widths)
            )
            lines.append(f"{shard:<8}{cells}")

    cal = agg["calibration"]
    if cal:
        lines += ["", "calibration", "-----------"]
        lines.append(
            f"samples: {cal.get('n_samples', 0)}    brier: {cal.get('brier', 0.0):.4f}    "
            f"ece: {cal.get('ece', 0.0):.4f}    drift events: {cal.get('n_drift_events', 0)}"
        )
        bins = [b for b in cal.get("bins", []) if b.get("n")]
        if bins:
            lines.append(f"{'bin':<14} {'n':>6} {'predicted':>10} {'observed':>10}")
            for b in bins:
                predicted = b.get("mean_predicted")
                lines.append(
                    f"{b['lo']:.2f}–{b['hi']:.2f}    {b['n']:>6d} "
                    + (f"{predicted:>10.3f}" if predicted is not None else f"{'n/a':>10}")
                    + f" {b['frac_accepted']:>10.3f}"
                )
        for event in cal.get("drift_events", []):
            lines.append(
                f"drift at t={event['t']:g} ({event['detector']}, "
                f"statistic {event['statistic']:.3f}, n={event['n_samples']})"
            )
    return "\n".join(lines)
