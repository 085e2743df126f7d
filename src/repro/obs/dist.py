"""Cross-process observability: trace context, spools, merge, attribution.

The recorder in :mod:`repro.obs.recorder` is process-local — spans and
metrics recorded inside a shard server die with that process.  This
module carries telemetry across the process boundary in three moves:

**Trace context propagation.**  :func:`current_context` captures the
active trace id and innermost span id as a compact wire dict; the
coordinator injects it into every shard-server command frame (a fourth
tuple element, present *only* when tracing is active, so the disabled
path's frames stay byte-identical).  Server spans record the
coordinator span they were sent under as ``remote_parent``, which the
merge step below turns back into a real parent edge.

**Per-shard telemetry spooling.**  Each shard server installs a real
:class:`~repro.obs.recorder.TraceRecorder` writing to an append-only
JSONL *spool* (``spool-shard3-12345.jsonl``), reusing the crash-safe
sink machinery — a server killed mid-write leaves a truncated final
line that the tolerant reader skips, and a respawned server (new pid)
opens a fresh spool file next to its predecessor's.  Spools are flushed
on round boundaries (the ``obs_flush`` command) and start with a
``spool_start`` header naming the process and trace.

**Merged timeline & attribution.**  :func:`merge_spools` aligns each
spool of the coordinator's trace onto the coordinator's clock
(per-process offset estimated as the minimum observed ``recv_unix -
sent_unix`` over command spans — the one-way-latency-is-nonnegative
bound), rewrites server span ids into a per-process namespace
(``shard0-12345:7``), re-parents top-level server spans onto the
coordinator spans that issued them, and returns one unified record list
that :func:`repro.obs.report.aggregate` consumes unchanged.
:func:`attribute_rounds` then splits every serving round into
prepare / solve / merge on the coordinator side and per-shard busy vs
IPC-wait inside the solve, naming the straggler (the busiest shard)
per round; :func:`render_distributed_report` prints the table and the
critical-path summary behind ``trace-report --distributed``.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.recorder import TraceRecorder, get_recorder
from repro.obs.sinks import JsonlSink, read_jsonl

#: Span name prefix for shard-server command execution in workers.
CMD_SPAN_PREFIX = "dist.cmd."
#: Coordinator-side span names for one sharded serving round.
ROUND_SPAN = "dist.server.round"
PREPARE_SPAN = "dist.server.prepare"
SOLVE_SPAN = "dist.server.solve"
MERGE_SPAN = "dist.server.merge"


# ----------------------------------------------------------------------
# trace context: coordinator -> worker
# ----------------------------------------------------------------------
def current_context() -> dict | None:
    """The active trace context as a wire dict, or ``None`` untraced.

    Returns ``None`` unless a :class:`TraceRecorder` is installed, so
    the disabled path costs one attribute probe and callers can keep
    their wire frames unchanged (context is *appended*, never an empty
    placeholder).
    """
    rec = get_recorder()
    trace = getattr(rec, "trace_id", None)
    if trace is None:
        return None
    span = rec.current_span
    return {
        "trace": trace,
        "parent": span.span_id if span is not None else None,
        "sent_unix": time.time(),
    }


# ----------------------------------------------------------------------
# worker-side telemetry
# ----------------------------------------------------------------------
def spool_path(spool_dir: str | Path, role: str, ident: int | str) -> Path:
    """Where one worker process spools: ``spool-{role}{ident}-{pid}.jsonl``.

    The pid is part of the name so a respawned shard server (same
    shard id, new process) opens a *fresh* spool instead of appending
    to — or truncating — its crashed predecessor's file.
    """
    return Path(spool_dir) / f"spool-{role}{ident}-{os.getpid()}.jsonl"


class WorkerTelemetry:
    """One shard server's recorder, spool, and per-round accounting.

    Created lazily on the first command frame that carries a trace
    context (so an untraced run never touches the filesystem), it
    installs a :class:`TraceRecorder` spooling to an append-only JSONL
    file, counts rounds (advanced by ``obs_flush``), and accumulates
    per-command busy seconds for the flush reply.
    """

    def __init__(self, spool_dir: str | Path, role: str, ident: int | str, trace_id: str) -> None:
        self.path = spool_path(spool_dir, role, ident)
        self.sink = JsonlSink(self.path, append=True)
        self.recorder = TraceRecorder(self.sink, trace_id=trace_id)
        self.round = 0
        self.busy_s: dict[str, float] = {}
        self.sink.emit(
            {
                "type": "spool_start",
                "pid": os.getpid(),
                "role": role,
                "ident": ident,
                "trace_id": trace_id,
                "start_unix": time.time(),
            }
        )
        self.sink.flush()

    def command_span(self, name: str, ctx: dict, **attrs):
        """The span timing one command, parented back to the coordinator."""
        return self.recorder.span(
            name,
            round=self.round,
            remote_parent=ctx.get("parent"),
            sent_unix=ctx.get("sent_unix"),
            recv_unix=time.time(),
            **attrs,
        )

    def account(self, command: str, seconds: float) -> None:
        self.busy_s[command] = self.busy_s.get(command, 0.0) + seconds

    def flush(self) -> dict:
        """Close out the round: durable spool and busy summary."""
        reply = {
            "round": self.round,
            "pid": os.getpid(),
            "busy_s": round(sum(self.busy_s.values()), 9),
            "by_command": {k: round(v, 9) for k, v in sorted(self.busy_s.items())},
        }
        self.sink.flush()
        self.busy_s = {}
        self.round += 1
        return reply

    def close(self) -> None:
        try:
            self.recorder.finish(strict=False)
        except Exception:
            pass


# ----------------------------------------------------------------------
# coordinator-side merge
# ----------------------------------------------------------------------
def list_spools(spool_dir: str | Path) -> list[Path]:
    return sorted(Path(spool_dir).glob("spool-*.jsonl"))


def clock_offset(records: list[dict]) -> float:
    """Estimate this process's clock offset against the coordinator.

    Every command span carries the coordinator's ``sent_unix`` and the
    worker's ``recv_unix``; their difference is (clock offset + one-way
    pipe latency).  Latency is non-negative, so the minimum difference
    over all commands bounds the offset from above — with the pipe
    round-trips a serving run produces, it is a tight estimate.
    Returns 0.0 when no span carries both stamps.
    """
    best = None
    for record in records:
        if record.get("type") != "span":
            continue
        attrs = record.get("attrs") or {}
        sent, recv = attrs.get("sent_unix"), attrs.get("recv_unix")
        if sent is None or recv is None:
            continue
        delta = float(recv) - float(sent)
        if best is None or delta < best:
            best = delta
    return best if best is not None else 0.0


def align_spool(records: list[dict], source: str) -> list[dict]:
    """One spool's records, clock-aligned and id-namespaced for merging.

    Span ids become ``"{source}:{id}"`` strings (unique across
    processes; :func:`repro.obs.report.aggregate` accepts any hashable
    id), top-level spans are re-parented onto their ``remote_parent``
    coordinator span, start times shift by the estimated clock offset,
    and each record is stamped with its ``process`` of origin.  Metrics
    snapshots are retagged ``worker_metrics`` so they never shadow the
    coordinator's final snapshot during aggregation.
    """
    offset = clock_offset(records)
    out: list[dict] = []
    for record in records:
        kind = record.get("type")
        if kind == "spool_start":
            entry = dict(record)
            entry["clock_offset_s"] = offset
            out.append(entry)
            continue
        if kind == "metrics":
            entry = dict(record)
            entry["type"] = "worker_metrics"
            entry["process"] = source
            out.append(entry)
            continue
        if kind != "span":
            out.append(dict(record))
            continue
        entry = dict(record)
        entry["attrs"] = dict(record.get("attrs") or {})
        entry["span_id"] = f"{source}:{record['span_id']}"
        parent = record.get("parent_id")
        if parent is not None:
            entry["parent_id"] = f"{source}:{parent}"
        else:
            entry["parent_id"] = entry["attrs"].pop("remote_parent", None)
        if entry.get("start_unix"):
            entry["start_unix"] = float(entry["start_unix"]) - offset
        entry["process"] = source
        out.append(entry)
    return out


def merge_spools(
    records: list[dict], spool_dir: str | Path, strict: bool = False
) -> list[dict]:
    """The unified timeline: coordinator records plus its trace's spools.

    ``records`` is the coordinator's own trace (as read from its JSONL
    trace file or a memory sink); every ``spool-*.jsonl`` under
    ``spool_dir`` is read tolerantly (truncated tails from crashed
    workers are skipped with a warning), aligned, and appended.  When
    the coordinator trace names its trace id (the ``trace_start``
    header :func:`repro.obs.recorder.recording` writes), spools whose
    ``spool_start`` header names another trace — left behind by an
    earlier run into the same directory — are skipped with a warning;
    span ids restart at 1 in every recorder, so merging them would
    re-parent their spans onto this run's.  The result feeds
    :func:`repro.obs.report.aggregate`, :func:`attribute_rounds`, and
    :func:`render_distributed_report` directly.
    """
    trace_id = next(
        (r.get("trace_id") for r in records if r.get("type") == "trace_start"), None
    )
    merged = list(records)
    stale: list[str] = []
    for path in list_spools(spool_dir):
        spool = read_jsonl(path, strict=strict)
        header = spool[0] if spool and spool[0].get("type") == "spool_start" else None
        if trace_id is not None and header is not None and header.get("trace_id") != trace_id:
            stale.append(path.name)
            continue
        merged.extend(align_spool(spool, source=path.stem.removeprefix("spool-")))
    if stale:
        warnings.warn(
            f"skipped {len(stale)} spool(s) of another trace in {spool_dir}: "
            + ", ".join(stale),
            stacklevel=2,
        )
    return merged


# ----------------------------------------------------------------------
# straggler & critical-path attribution
# ----------------------------------------------------------------------
@dataclass
class RoundAttribution:
    """Where one sharded serving round's wall time went."""

    round: int
    t: float | None = None
    wall_s: float = 0.0
    prepare_s: float = 0.0
    solve_s: float = 0.0
    merge_s: float = 0.0
    #: per-shard busy seconds inside the solve (worker-reported)
    shard_busy_s: dict[int, float] = field(default_factory=dict)

    @property
    def straggler(self) -> int | None:
        if not self.shard_busy_s:
            return None
        return max(self.shard_busy_s, key=lambda s: self.shard_busy_s[s])

    @property
    def critical_busy_s(self) -> float:
        """The straggler's busy time — the solve's lower bound."""
        return max(self.shard_busy_s.values(), default=0.0)

    def ipc_wait_s(self, shard: int) -> float:
        """Solve-window time shard ``shard`` spent idle or in transit."""
        return max(self.solve_s - self.shard_busy_s.get(shard, 0.0), 0.0)


def attribute_rounds(records: list[dict]) -> list[RoundAttribution]:
    """Per-round, per-shard breakdown from a merged timeline.

    Coordinator :data:`ROUND_SPAN` spans define the rounds; their
    prepare / solve / merge children split the coordinator's wall time;
    worker command spans whose (re-)parent lands inside a round's solve
    span supply the per-shard busy seconds — anything left of the solve
    window is IPC wait (pickle, pipe, and scheduling).
    """
    spans = [r for r in records if r.get("type") == "span"]
    rounds: dict[object, RoundAttribution] = {}
    solve_to_round: dict[object, RoundAttribution] = {}

    for record in spans:
        if record.get("name") != ROUND_SPAN:
            continue
        attrs = record.get("attrs") or {}
        att = RoundAttribution(
            round=int(attrs.get("round", len(rounds))),
            t=attrs.get("t"),
            wall_s=float(record.get("duration_s", 0.0)),
        )
        rounds[record["span_id"]] = att

    for record in spans:
        parent = record.get("parent_id")
        if parent not in rounds:
            continue
        att = rounds[parent]
        name = record.get("name")
        duration = float(record.get("duration_s", 0.0))
        if name == PREPARE_SPAN:
            att.prepare_s += duration
        elif name == SOLVE_SPAN:
            att.solve_s += duration
            solve_to_round[record["span_id"]] = att
        elif name == MERGE_SPAN:
            att.merge_s += duration

    for record in spans:
        if not str(record.get("name", "")).startswith(CMD_SPAN_PREFIX):
            continue
        att = solve_to_round.get(record.get("parent_id"))
        if att is None:
            # Flush commands land outside any solve window.
            continue
        attrs = record.get("attrs") or {}
        shard = attrs.get("shard")
        if shard is None:
            continue
        shard = int(shard)
        duration = float(record.get("duration_s", 0.0))
        att.shard_busy_s[shard] = att.shard_busy_s.get(shard, 0.0) + duration

    return sorted(rounds.values(), key=lambda a: a.round)


def render_distributed_report(records: list[dict], title: str = "distributed rounds") -> str:
    """The ``trace-report --distributed`` section: rounds and stragglers."""
    attributions = attribute_rounds(records)
    lines = [title, "=" * len(title), ""]
    if not attributions:
        lines.append("no coordinator round spans found (was the run sharded and traced?)")
        return "\n".join(lines)

    header = (
        f"{'round':>5} {'wall s':>8} {'prep s':>8} {'solve s':>8} {'merge s':>8} "
        f"{'straggler':>9} {'busy s':>8} {'ipc wait s':>10}"
    )
    lines += [header, "-" * len(header)]
    shard_busy: dict[int, float] = {}
    shard_wait: dict[int, float] = {}
    shard_straggles: dict[int, int] = {}
    critical = 0.0
    for att in attributions:
        straggler = att.straggler
        critical += att.critical_busy_s
        for shard, busy in att.shard_busy_s.items():
            shard_busy[shard] = shard_busy.get(shard, 0.0) + busy
            shard_wait[shard] = shard_wait.get(shard, 0.0) + att.ipc_wait_s(shard)
        if straggler is not None:
            shard_straggles[straggler] = shard_straggles.get(straggler, 0) + 1
        lines.append(
            f"{att.round:>5d} {att.wall_s:>8.4f} {att.prepare_s:>8.4f} "
            f"{att.solve_s:>8.4f} {att.merge_s:>8.4f} "
            f"{('shard ' + str(straggler)) if straggler is not None else '-':>9} "
            f"{att.critical_busy_s:>8.4f} "
            f"{(att.ipc_wait_s(straggler) if straggler is not None else 0.0):>10.4f}"
        )

    lines += ["", "per-shard totals", "----------------"]
    head = f"{'shard':>5} {'busy s':>9} {'ipc wait s':>10} {'straggled':>9}"
    lines += [head]
    for shard in sorted(shard_busy):
        lines.append(
            f"{shard:>5d} {shard_busy[shard]:>9.4f} {shard_wait[shard]:>10.4f} "
            f"{shard_straggles.get(shard, 0):>9d}"
        )

    wall = sum(a.wall_s for a in attributions)
    solve = sum(a.solve_s for a in attributions)
    lines += [
        "",
        "critical path",
        "-------------",
        f"rounds: {len(attributions)}    round wall time: {wall:.4f}s",
        f"solve window: {solve:.4f}s    straggler busy (critical path): {critical:.4f}s",
        f"ipc/scheduling overhead inside solve: {max(solve - critical, 0.0):.4f}s",
    ]
    return "\n".join(lines)
