"""Render a per-stage breakdown from a JSONL trace file.

Backs ``python -m repro.cli trace-report <trace>``: spans are
aggregated by their *name path* (the chain of span names from the
root, so the same helper invoked from two stages reports separately),
with per-path call counts, total/mean wall time, and self time (total
minus child time).  The final ``metrics`` record — counters, gauges,
histogram percentiles — is appended below the span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PathStats:
    """Aggregate over every span that ran at one name path."""

    path: tuple[str, ...]
    count: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0
    errors: int = 0

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def self_s(self) -> float:
        return max(self.total_s - self.child_s, 0.0)


@dataclass
class TraceReport:
    """The parsed, aggregated view of one trace file."""

    stats: dict[tuple[str, ...], PathStats] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    n_spans: int = 0

    @property
    def total_s(self) -> float:
        """Wall time covered by root spans."""
        return sum(s.total_s for s in self.stats.values() if s.depth == 0)

    def by_name(self, name: str) -> list[PathStats]:
        """Every path whose final component is ``name``."""
        return [s for s in self.stats.values() if s.name == name]

    def total_for(self, name: str) -> float:
        """Total seconds across all paths ending in ``name``."""
        return sum(s.total_s for s in self.by_name(name))


def aggregate(records: list[dict]) -> TraceReport:
    """Aggregate raw trace records into a :class:`TraceReport`."""
    spans = [r for r in records if r.get("type") == "span"]
    by_id = {r["span_id"]: r for r in spans}
    path_cache: dict[int, tuple[str, ...]] = {}

    def path_of(record: dict) -> tuple[str, ...]:
        sid = record["span_id"]
        if sid in path_cache:
            return path_cache[sid]
        parent = record.get("parent_id")
        if parent is None or parent not in by_id:
            path = (record["name"],)
        else:
            path = path_of(by_id[parent]) + (record["name"],)
        path_cache[sid] = path
        return path

    report = TraceReport(n_spans=len(spans))
    for record in spans:
        path = path_of(record)
        stat = report.stats.setdefault(path, PathStats(path=path))
        duration = float(record.get("duration_s", 0.0))
        stat.count += 1
        stat.total_s += duration
        stat.min_s = min(stat.min_s, duration)
        stat.max_s = max(stat.max_s, duration)
        if record.get("error"):
            stat.errors += 1
        parent = record.get("parent_id")
        if parent is not None and parent in by_id:
            parent_path = path_of(by_id[parent])
            parent_stat = report.stats.setdefault(parent_path, PathStats(path=parent_path))
            parent_stat.child_s += duration

    for record in records:
        if record.get("type") == "metrics":
            report.metrics = {k: v for k, v in record.items() if k != "type"}
    return report


def _ordered_paths(stats: dict[tuple[str, ...], PathStats]) -> list[PathStats]:
    """Pre-order traversal with siblings sorted by total time, descending."""
    children: dict[tuple[str, ...], list[PathStats]] = {}
    roots: list[PathStats] = []
    for stat in stats.values():
        if len(stat.path) == 1:
            roots.append(stat)
        else:
            children.setdefault(stat.path[:-1], []).append(stat)

    out: list[PathStats] = []

    def visit(stat: PathStats) -> None:
        out.append(stat)
        for child in sorted(children.get(stat.path, []), key=lambda s: -s.total_s):
            visit(child)

    for root in sorted(roots, key=lambda s: -s.total_s):
        visit(root)
    return out


def render_report(report: TraceReport, title: str = "trace report") -> str:
    """The human-readable per-stage breakdown."""
    lines = [title, "=" * len(title), ""]
    total = report.total_s
    lines.append(f"spans: {report.n_spans}    traced wall time: {total:.3f}s")
    lines.append("")
    header = f"{'span':<46} {'count':>6} {'total s':>9} {'mean s':>9} {'self s':>9} {'%':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for stat in _ordered_paths(report.stats):
        label = "  " * stat.depth + stat.name
        if len(label) > 46:
            label = label[:43] + "..."
        pct = 100.0 * stat.total_s / total if total > 0 else 0.0
        flag = f"  !{stat.errors} err" if stat.errors else ""
        lines.append(
            f"{label:<46} {stat.count:>6d} {stat.total_s:>9.3f} {stat.mean_s:>9.4f} "
            f"{stat.self_s:>9.3f} {pct:>6.1f}{flag}"
        )

    counters = report.metrics.get("counters", {})
    gauges = report.metrics.get("gauges", {})
    histograms = report.metrics.get("histograms", {})
    if counters or gauges:
        lines += ["", "counters / gauges", "-----------------"]
        for name, value in sorted({**counters, **gauges}.items()):
            lines.append(f"{name:<46} {value:>12g}")
    if histograms:
        lines += ["", "histograms", "----------"]
        head = f"{'name':<40} {'count':>6} {'mean':>10} {'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}"
        lines.append(head)
        for name, s in sorted(histograms.items()):
            if not s.get("count"):
                continue
            lines.append(
                f"{name:<40} {s['count']:>6d} {s['mean']:>10.4g} {s['p50']:>10.4g} "
                f"{s['p90']:>10.4g} {s['p99']:>10.4g} {s['max']:>10.4g}"
            )
    return "\n".join(lines)
