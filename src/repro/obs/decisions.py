"""Decision provenance: one compact lifecycle record per served task.

The serving stack can say how fast it ran (:mod:`repro.obs.dist`) and
how well-calibrated its Theorem-2 probabilities are
(:mod:`repro.obs.calibration`), but not *why* an individual task ended
up assigned, shed, or expired.  This module closes that gap: with
``ServeConfig.decisions`` set, :class:`repro.serve.engine.ServeEngine`
feeds a :class:`DecisionLog` at every decision site — admission
(queued / shed, with a reason code), candidate generation (index
candidate count, Theorem-2 prune count, batch cache hit rate),
matching (offers, the accepted worker, the warm-start tier, the
predicted completion probability), and the terminal state — and the
log appends one JSON record per task as it reaches its terminal.

The on-disk format is append-only JSONL with a ``decisions_start``
header, written through :class:`repro.obs.sinks.JsonlSink` in terminal
order and read back with the same tolerance as every other sidecar
(:func:`repro.obs.sinks.read_jsonl`): a truncated final record is
skipped with a warning, and duplicate records for one task (a
crash-replayed coordinator re-emitting its tail) keep the last copy
only, so nothing is double-counted.  :func:`read_decisions` returns
the records sorted by task id.  Sharded engines write the same single
log; each record's ``shard`` field names the stripe that owned the
task.

Consumers:

* :func:`render_explain` — one task's decision path as text
  (``repro-tamp explain RUN --task ID``);
* :func:`diff_decisions` / :func:`render_run_diff` — join two runs'
  logs on (deterministic) task ids and attribute the completion-ratio
  delta to reason-code transitions, each joined task contributing its
  completion change to exactly one ``(reason A → reason B)`` bucket,
  so the transition table accounts for 100% of the delta;
* :func:`reconcile` — per-terminal counts checked against
  ``SimulationResult`` totals (``completed == n_completed``,
  ``shed == n_shed``, ``cancelled + expired == n_expired``).

Reason-code taxonomy (``terminal`` / ``reason``):

=========== ============================== ==============================
terminal    reason                         meaning
=========== ============================== ==============================
completed   ``completed``                  assigned and accepted
shed        ``shed:queue_full``            arrived into a full queue and
                                           had the least deadline slack
shed        ``shed:deadline_slack``        displaced from the queue by a
                                           later arrival with more slack
cancelled   ``cancelled:requester``        cancellation window closed
                                           while pending
cancelled   ``cancelled:window_closed``    window already closed when the
                                           task arrived (dead on arrival)
expired     ``expired:dead_on_arrival``    deadline already passed when
                                           the task arrived
expired     ``expired:deadline``           deadline fired while pending
expired     ``expired:horizon``            still pending when the run's
                                           horizon ended
=========== ============================== ==============================

``SimulationResult`` folds every cancelled/expired variant into
``n_expired``; the log keeps them distinct.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.obs.sinks import JsonlSink, read_jsonl

# Admission states.
ADMIT_QUEUED = "queued"
ADMIT_SHED = "shed"
ADMIT_DEAD = "dead_on_arrival"

# Terminal states (the reconciliation buckets).
TERMINAL_COMPLETED = "completed"
TERMINAL_SHED = "shed"
TERMINAL_CANCELLED = "cancelled"
TERMINAL_EXPIRED = "expired"

# Full reason codes.
REASON_COMPLETED = "completed"
REASON_SHED_QUEUE_FULL = "shed:queue_full"
REASON_SHED_DEADLINE_SLACK = "shed:deadline_slack"
REASON_CANCELLED = "cancelled:requester"
REASON_CANCELLED_ON_ARRIVAL = "cancelled:window_closed"
REASON_DEAD_ON_ARRIVAL = "expired:dead_on_arrival"
REASON_EXPIRED_DEADLINE = "expired:deadline"
REASON_EXPIRED_HORIZON = "expired:horizon"

#: Reason code on ``type == "preposition"`` records: a forecast-driven
#: idle-worker move toward a predicted demand gap (not a task
#: lifecycle record — readers that join on tasks skip them).
REASON_PREPOSITION = "preposition:predicted_gap"

#: Warm-start tiers, best to worst (see ``assignment/hungarian.py``).
WARM_TIERS = ("identical", "warm", "cold")

#: Marker for tasks present in only one side of a run diff.
ABSENT = "absent"


@dataclass(frozen=True)
class DecisionConfig:
    """Tunables of the decision log (``ServeConfig.decisions``).

    Attributes
    ----------
    path:
        JSONL target (``None`` keeps records in memory only — tests
        and in-process analysis).
    """

    path: str | None = None


def _new_record(task, arrival_t: float | None) -> dict:
    return {
        "type": "decision",
        "task": task.task_id,
        "release_t": task.release_time,
        "deadline": task.deadline,
        "arrival_t": arrival_t,
        "admission": ADMIT_QUEUED,
        "batches": 0,
        "candidates": None,
        "pruned": None,
        "cache_hit_rate": None,
        "offers": 0,
        "worker": None,
        "assigned_t": None,
        "warm_tier": None,
        "predicted_p": None,
        "terminal": None,
        "reason": None,
        "t": None,
        "shard": None,
    }


class DecisionLog:
    """Accumulates one lifecycle record per task; appends at terminal.

    Driven by the engine's decision sites (:meth:`admitted`,
    :meth:`dead_on_arrival`, :meth:`shed`, :meth:`considered`,
    :meth:`offered`, :meth:`cancelled`, :meth:`expired`); records land
    in :attr:`records` (terminal order) and, when ``config.path`` is
    set, stream to the JSONL sink as they close.  ``shard_of`` (when
    provided, e.g. by :class:`repro.dist.serve.ShardedEngine`) maps a
    task id to the stripe that owned it, stored in each record's
    ``shard`` field.
    """

    def __init__(
        self,
        config: DecisionConfig | None = None,
        shard_of: Callable[[int], int | None] | None = None,
    ) -> None:
        self.config = config if config is not None else DecisionConfig()
        self.records: list[dict] = []
        #: Pre-position move records (``type == "preposition"``), kept
        #: apart from the per-task lifecycle ``records`` so terminal
        #: reconciliation never sees them.
        self.moves: list[dict] = []
        self._open: dict[int, dict] = {}
        self._shard_of = shard_of
        self._sink: JsonlSink | None = None
        if self.config.path is not None:
            self._sink = JsonlSink(self.config.path)
            self._sink.emit({"type": "decisions_start"})

    # -- decision sites -------------------------------------------------
    def admitted(self, task, t: float) -> None:
        """Task arrived and joined the pending queue."""
        self._open[task.task_id] = _new_record(task, t)

    def dead_on_arrival(self, task, t: float, cancelled: bool) -> None:
        """Task arrived past its deadline or cancellation window."""
        rec = _new_record(task, t)
        rec["admission"] = ADMIT_DEAD
        if cancelled:
            self._terminal(rec, TERMINAL_CANCELLED, REASON_CANCELLED_ON_ARRIVAL, t)
        else:
            self._terminal(rec, TERMINAL_EXPIRED, REASON_DEAD_ON_ARRIVAL, t)

    def shed_on_arrival(self, task, t: float) -> None:
        """Task arrived into a full queue and was itself the victim."""
        rec = _new_record(task, t)
        rec["admission"] = ADMIT_SHED
        self._terminal(rec, TERMINAL_SHED, REASON_SHED_QUEUE_FULL, t)

    def displaced(self, task_id: int, t: float) -> None:
        """Pending task shed to make room for a later, tighter arrival."""
        rec = self._open.pop(task_id, None)
        if rec is not None:
            self._terminal(rec, TERMINAL_SHED, REASON_SHED_DEADLINE_SLACK, t)

    def considered(
        self,
        task_ids: Iterable[int],
        n_available: int,
        candidates: dict[int, list[int]] | None,
        cache_hit_rate: float | None,
    ) -> None:
        """One batch put these pending tasks in front of the matcher."""
        for tid in task_ids:
            rec = self._open.get(tid)
            if rec is None:
                continue
            rec["batches"] += 1
            rec["cache_hit_rate"] = cache_hit_rate
            if candidates is not None:
                n_cand = len(candidates.get(tid, ()))
                rec["candidates"] = n_cand
                rec["pruned"] = n_available - n_cand
            else:
                rec["candidates"] = n_available
                rec["pruned"] = 0

    def offered(
        self,
        task_id: int,
        worker_id: int,
        t: float,
        accepted: bool,
        predicted_p: float | None = None,
        warm_tier: str | None = None,
    ) -> None:
        """The matcher proposed (task, worker); the worker decided."""
        rec = self._open.get(task_id)
        if rec is None:
            return
        rec["offers"] += 1
        if accepted:
            rec["worker"] = worker_id
            rec["assigned_t"] = t
            rec["warm_tier"] = warm_tier
            rec["predicted_p"] = predicted_p
            self._open.pop(task_id)
            self._terminal(rec, TERMINAL_COMPLETED, REASON_COMPLETED, t)

    def prepositioned(self, move) -> None:
        """A forecast-driven pre-position of an idle worker.

        ``move`` is a :class:`repro.forecast.dispatch.Move`; the record
        lands in :attr:`moves` and the sink, not in the per-task
        lifecycle stream.
        """
        rec = {
            "type": "preposition",
            "worker": move.worker_id,
            "t": move.depart_t,
            "arrive_t": move.arrive_t,
            "cell": list(move.cell),
            "distance_km": move.distance_km,
            "gap": move.gap,
            "reason": REASON_PREPOSITION,
            "shard": None,
        }
        self.moves.append(rec)
        self._emit(rec)

    def cancelled(self, task_id: int, t: float) -> None:
        rec = self._open.pop(task_id, None)
        if rec is not None:
            self._terminal(rec, TERMINAL_CANCELLED, REASON_CANCELLED, t)

    def expired(self, task_id: int, t: float, horizon: bool = False) -> None:
        rec = self._open.pop(task_id, None)
        if rec is not None:
            reason = REASON_EXPIRED_HORIZON if horizon else REASON_EXPIRED_DEADLINE
            self._terminal(rec, TERMINAL_EXPIRED, reason, t)

    # -- internals ------------------------------------------------------
    def _terminal(self, rec: dict, terminal: str, reason: str, t: float) -> None:
        rec["terminal"] = terminal
        rec["reason"] = reason
        rec["t"] = t
        if self._shard_of is not None:
            rec["shard"] = self._shard_of(rec["task"])
        self.records.append(rec)
        self._emit(rec)

    def _emit(self, rec: dict) -> None:
        if self._sink is not None:
            self._sink.emit(rec)

    def close(self) -> None:
        """Flush and close the sink.

        Idempotent, so engines can call it from a ``finally`` block.
        """
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def terminal_counts(self) -> dict[str, int]:
        return dict(Counter(r["terminal"] for r in self.records))


# ----------------------------------------------------------------------
# Reading and reconciling.

def decision_records(records: Iterable[dict]) -> list[dict]:
    """Filter to ``decision`` records and de-duplicate per task.

    A crash-replayed run can append the same terminal record twice; the
    last copy per task id wins, with a warning, so counts stay exact.
    The result is sorted by task id — a deterministic order shared by
    every reader, which is what makes run diffs and reconciliations
    independent of the terminal order the log was written in.
    """
    by_task: dict[int, dict] = {}
    duplicates = 0
    for rec in records:
        if rec.get("type") != "decision":
            continue
        tid = rec.get("task")
        if tid in by_task:
            duplicates += 1
        by_task[tid] = rec
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate decision record(s) dropped "
            "(crash-replayed log?); keeping the last copy per task",
            stacklevel=2,
        )
    return [by_task[tid] for tid in sorted(by_task)]


def read_decisions(path: str | Path) -> list[dict]:
    """Load one decision log, tolerant of a truncated final record."""
    return decision_records(read_jsonl(path))


def reconcile(records: Sequence[dict], result) -> dict:
    """Check per-terminal counts against ``SimulationResult`` totals.

    ``SimulationResult`` folds cancellations and dead-on-arrival
    expiries into ``n_expired``; the log keeps them distinct, so the
    contract is ``completed == n_completed``, ``shed == n_shed``, and
    ``cancelled + expired == n_expired``.  Returns the comparison as a
    dict with an ``ok`` flag (callers decide whether to raise).
    """
    counts = Counter(r["terminal"] for r in records)
    expected = {
        TERMINAL_COMPLETED: result.n_completed,
        TERMINAL_SHED: getattr(result, "n_shed", 0),
        TERMINAL_CANCELLED + "+" + TERMINAL_EXPIRED: result.n_expired,
    }
    observed = {
        TERMINAL_COMPLETED: counts.get(TERMINAL_COMPLETED, 0),
        TERMINAL_SHED: counts.get(TERMINAL_SHED, 0),
        TERMINAL_CANCELLED + "+" + TERMINAL_EXPIRED: (
            counts.get(TERMINAL_CANCELLED, 0) + counts.get(TERMINAL_EXPIRED, 0)
        ),
    }
    return {
        "ok": observed == expected,
        "observed": observed,
        "expected": expected,
        "terminals": dict(counts),
        "reasons": dict(Counter(r["reason"] for r in records)),
        "n_records": len(records),
    }


# ----------------------------------------------------------------------
# Locating a log from a run directory / manifest.

def find_decision_log(target: str | Path) -> Path:
    """Resolve ``target`` to a decision-log path.

    Accepts the log file itself, a run manifest (whose ``artifacts``
    field names the log — see :class:`repro.obs.manifest.RunManifest`),
    or a run directory holding manifests or ``*.decisions.jsonl``
    sidecars.  Raises :class:`FileNotFoundError` with the candidates it
    inspected when nothing resolves.
    """
    target = Path(target)
    if target.is_dir():
        candidates: list[Path] = []
        for manifest in sorted(target.glob("*.manifest.json")):
            try:
                found = _log_from_manifest(manifest)
            except (ValueError, FileNotFoundError):
                continue
            if found is not None:
                candidates.append(found)
        if not candidates:
            candidates = sorted(target.glob("*.decisions.jsonl"))
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise FileNotFoundError(
                f"no decision log under {target} (run with --decisions?)"
            )
        names = ", ".join(str(c) for c in candidates)
        raise FileNotFoundError(
            f"multiple decision logs under {target}; pass one explicitly: {names}"
        )
    if target.name.endswith(".manifest.json") or target.suffix == ".json":
        found = _log_from_manifest(target)
        if found is None:
            raise FileNotFoundError(f"manifest {target} records no decision log")
        return found
    if not target.exists():
        raise FileNotFoundError(f"no decision log at {target}")
    return target


def _log_from_manifest(path: Path) -> Path | None:
    data = json.loads(path.read_text())
    recorded = (data.get("artifacts") or {}).get("decisions")
    if not recorded:
        return None
    candidate = Path(recorded)
    if candidate.exists():
        return candidate
    # Artifact paths are recorded as given at run time; fall back to
    # resolving the file name next to the manifest (moved run dirs).
    sibling = path.parent / candidate.name
    if sibling.exists():
        return sibling
    raise FileNotFoundError(f"decision log {recorded} (from {path}) does not exist")


# ----------------------------------------------------------------------
# Consumer 1: explain one task.

def explain_task(records: Sequence[dict], task_id: int) -> dict:
    for rec in records:
        if rec.get("task") == task_id:
            return rec
    raise KeyError(f"no decision record for task {task_id}")


def render_explain(rec: dict) -> str:
    """One task's decision path as a small text story."""
    lines = [f"task {rec['task']}", "-" * len(f"task {rec['task']}")]
    lines.append(
        f"release t={rec['release_t']:g}    deadline t={rec['deadline']:g}"
        + (f"    arrived t={rec['arrival_t']:g}" if rec.get("arrival_t") is not None else "")
    )
    admission = rec.get("admission", ADMIT_QUEUED)
    if admission == ADMIT_QUEUED:
        lines.append("admission: queued")
    elif admission == ADMIT_SHED:
        lines.append(f"admission: shed on arrival ({rec['reason']})")
    else:
        lines.append(f"admission: dead on arrival ({rec['reason']})")
    if rec.get("batches"):
        cand = rec.get("candidates")
        pruned = rec.get("pruned")
        hit = rec.get("cache_hit_rate")
        detail = f"considered in {rec['batches']} batch(es)"
        if cand is not None:
            detail += f"; last batch: {cand} candidate worker(s)"
            if pruned:
                detail += f", {pruned} pruned by the index (Theorem 2)"
        if hit is not None:
            detail += f"; cache hit rate {hit:.2f}"
        lines.append(detail)
    elif admission == ADMIT_QUEUED:
        lines.append("never reached a batch (no batch fired while pending)")
    offers = rec.get("offers", 0)
    if offers:
        rejected = offers - (1 if rec.get("worker") is not None else 0)
        detail = f"offers: {offers}"
        if rejected:
            detail += f" ({rejected} rejected by workers)"
        lines.append(detail)
    if rec.get("worker") is not None:
        detail = f"assigned to worker {rec['worker']} at t={rec['assigned_t']:g}"
        if rec.get("warm_tier"):
            detail += f" (warm-start tier: {rec['warm_tier']})"
        lines.append(detail)
        if rec.get("predicted_p") is not None:
            lines.append(f"predicted completion probability: {rec['predicted_p']:.3f}")
    shard = rec.get("shard")
    terminal = f"terminal: {rec['reason']} at t={rec['t']:g}"
    if shard is not None:
        terminal += f" (shard {shard})"
    lines.append(terminal)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Consumer 2: diff two runs.

def diff_decisions(records_a: Sequence[dict], records_b: Sequence[dict]) -> dict:
    """Attribute the completion delta of B vs A to reason transitions.

    Joins on task id (scenario-registry runs share deterministic ids).
    Each joined task falls in exactly one ``(reason A, reason B)``
    bucket and contributes ``completed(B) - completed(A)`` ∈ {-1, 0, 1}
    to it; tasks present in only one run join an ``absent`` bucket the
    same way.  The bucket deltas therefore sum to the total completion
    delta — the table attributes 100% of it by construction.
    """
    a_by_task = {r["task"]: r for r in records_a}
    b_by_task = {r["task"]: r for r in records_b}
    transitions: dict[tuple[str, str], dict] = {}
    for tid in sorted(a_by_task.keys() | b_by_task.keys()):
        ra = a_by_task.get(tid)
        rb = b_by_task.get(tid)
        reason_a = ra["reason"] if ra is not None else ABSENT
        reason_b = rb["reason"] if rb is not None else ABSENT
        done_a = ra is not None and ra["terminal"] == TERMINAL_COMPLETED
        done_b = rb is not None and rb["terminal"] == TERMINAL_COMPLETED
        bucket = transitions.setdefault(
            (reason_a, reason_b), {"count": 0, "delta": 0, "tasks": []}
        )
        bucket["count"] += 1
        bucket["delta"] += int(done_b) - int(done_a)
        if len(bucket["tasks"]) < 5:
            bucket["tasks"].append(tid)
    completed_a = sum(1 for r in records_a if r["terminal"] == TERMINAL_COMPLETED)
    completed_b = sum(1 for r in records_b if r["terminal"] == TERMINAL_COMPLETED)
    rows = [
        {
            "from": reason_a,
            "to": reason_b,
            "count": bucket["count"],
            "delta": bucket["delta"],
            "tasks": bucket["tasks"],
        }
        for (reason_a, reason_b), bucket in transitions.items()
    ]
    rows.sort(key=lambda r: (-abs(r["delta"]), r["from"], r["to"]))
    return {
        "n_a": len(records_a),
        "n_b": len(records_b),
        "completed_a": completed_a,
        "completed_b": completed_b,
        "delta_completed": completed_b - completed_a,
        "attributed_delta": sum(r["delta"] for r in rows),
        "transitions": rows,
    }


def render_run_diff(diff: dict, label_a: str = "A", label_b: str = "B") -> str:
    """The reason-transition table of :func:`diff_decisions` as text."""
    title = f"run diff: {label_a} → {label_b}"
    lines = [title, "=" * len(title)]
    lines.append(
        f"completed: {diff['completed_a']} → {diff['completed_b']} "
        f"(delta {diff['delta_completed']:+d}; "
        f"{diff['attributed_delta']:+d} attributed below)"
    )
    moved = [r for r in diff["transitions"] if r["from"] != r["to"]]
    if not moved:
        lines.append("no reason-code transitions (identical decision paths)")
        return "\n".join(lines)
    width = max(
        [len("reason (A)")]
        + [max(len(r["from"]), len(r["to"])) for r in moved]
    )
    header = f"{'reason (A)':<{width}}  {'reason (B)':<{width}} {'tasks':>6} {'Δdone':>6}  example task ids"
    lines += [header, "-" * len(header)]
    for r in moved:
        examples = ",".join(str(t) for t in r["tasks"])
        if r["count"] > len(r["tasks"]):
            examples += ",…"
        lines.append(
            f"{r['from']:<{width}}  {r['to']:<{width}} {r['count']:>6d} {r['delta']:>+6d}  {examples}"
        )
    unchanged = sum(r["count"] for r in diff["transitions"] if r["from"] == r["to"])
    if unchanged:
        lines.append(f"({unchanged} task(s) kept their reason code)")
    return "\n".join(lines)
