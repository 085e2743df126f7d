"""Long-lived shard server processes for streaming candidate generation.

A shard *server* is a persistent process that owns its stripe's state
(pending-task mirror and worker snapshots) across batches, so instead
of shipping a stripe's entire working set — every owned task and every
halo snapshot — on every batch, the coordinator ships only the
**deltas**: tasks that arrived or left the stripe, and snapshots whose
predicted track actually changed (the prediction cache shares the array
object across hits, so "changed" is an identity check on the
coordinator).

Protocol
--------
One duplex ``multiprocessing`` pipe per server.  Requests are
``(seq, command, payload)`` tuples — plus an optional fourth element,
the :mod:`repro.obs.dist` trace context, appended **only** when the
coordinator is tracing, so untraced frames stay byte-identical to the
three-tuple wire format.  Responses are ``(seq, status, result)``.
Commands are looked up in a fixed registry and run against the server's
state dict:

* ``apply`` — upsert/remove tasks and snapshots (the per-batch delta);
* ``build`` — run :func:`repro.serve.spatial_index.build_candidates`
  over the stripe's current state for the member ids given, returning
  the stripe's candidate graph;
* ``obs_flush`` — round boundary for the server's telemetry spool:
  flushes buffered spans to disk and returns the round's per-command
  busy seconds;
* ``reset`` / ``ping`` / ``crash`` — lifecycle and test hooks.

When the coordinator's :class:`~repro.dist.serve.DistConfig` sets a
``spool_dir``, each server lazily installs a
:class:`~repro.obs.dist.WorkerTelemetry` on the first traced frame it
sees and records one span per command, parented (via the propagated
context) under the coordinator span that issued it.

Crash recovery
--------------
Every state-*changing* command is appended to a JSONL log **before** it
is sent (payloads are JSON-serializable by construction — entities go
through the codec below).  When the pipe to a server breaks, the handle
respawns the process, replays the log in order, and retries the request
that failed; the rebuilt state is exactly the old one because the log is
the complete sequence of mutations.  The log lives in memory by default
and in ``log_dir`` (one ``shard-{id}.jsonl`` per server) when durability
across coordinator restarts matters; the file is written through
:class:`~repro.obs.sinks.JsonlSink` (flushed per command) and loaded
with :func:`~repro.obs.sinks.read_jsonl`, so a coordinator killed
mid-append leaves a truncated final line that the next handle skips —
that command was logged but never sent.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.geo.point import Point
from repro.obs import dist as obs_dist
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve.spatial_index import build_candidates


class ShardServerError(RuntimeError):
    """A command failed inside a shard server (the server survives)."""


# ----------------------------------------------------------------------
# JSON codec: entities <-> log-safe dicts
# ----------------------------------------------------------------------
def encode_task(task: SpatialTask) -> dict:
    return {
        "task_id": task.task_id,
        "x": task.location.x,
        "y": task.location.y,
        "release_time": task.release_time,
        "deadline": task.deadline,
    }


def decode_task(data: dict) -> SpatialTask:
    return SpatialTask(
        task_id=data["task_id"],
        location=Point(data["x"], data["y"]),
        release_time=data["release_time"],
        deadline=data["deadline"],
    )


def encode_snapshot(snap: WorkerSnapshot) -> dict:
    return {
        "worker_id": snap.worker_id,
        "x": snap.current_location.x,
        "y": snap.current_location.y,
        "predicted_xy": snap.predicted_xy.tolist(),
        "predicted_times": snap.predicted_times.tolist(),
        "detour_budget_km": snap.detour_budget_km,
        "speed_km_per_min": snap.speed_km_per_min,
        "matching_rate": snap.matching_rate,
    }


def decode_snapshot(data: dict) -> WorkerSnapshot:
    return WorkerSnapshot(
        worker_id=data["worker_id"],
        current_location=Point(data["x"], data["y"]),
        predicted_xy=np.asarray(data["predicted_xy"], dtype=float).reshape(-1, 2),
        predicted_times=np.asarray(data["predicted_times"], dtype=float),
        detour_budget_km=data["detour_budget_km"],
        speed_km_per_min=data["speed_km_per_min"],
        matching_rate=data["matching_rate"],
    )


# ----------------------------------------------------------------------
# server-side command handlers
# ----------------------------------------------------------------------
def _cmd_ping(state: dict, payload: Any) -> str:
    return "pong"


def _cmd_reset(state: dict, payload: Any) -> None:
    state["tasks"] = {}
    state["snaps"] = {}


def _cmd_apply(state: dict, payload: dict) -> dict:
    """Apply one batch's delta to the stripe's mirrored state."""
    tasks = state.setdefault("tasks", {})
    snaps = state.setdefault("snaps", {})
    for encoded in payload.get("tasks_add", ()):
        task = decode_task(encoded)
        tasks[task.task_id] = task
    for task_id in payload.get("tasks_remove", ()):
        tasks.pop(task_id, None)
    for encoded in payload.get("snaps_add", ()):
        snap = decode_snapshot(encoded)
        snaps[snap.worker_id] = snap
    for worker_id in payload.get("snaps_remove", ()):
        snaps.pop(worker_id, None)
    return {"n_tasks": len(tasks), "n_snaps": len(snaps)}


def _cmd_build(state: dict, payload: dict) -> dict[int, list[int]]:
    """Build this stripe's candidate graph from mirrored state.

    ``member_ids`` arrives in *global snapshot order*, which is what
    keeps per-task candidate order identical to the dense build after
    the coordinator merges the stripes.
    """
    tasks = state.get("tasks", {})
    snaps = state.get("snaps", {})
    members = [snaps[wid] for wid in payload["member_ids"] if wid in snaps]
    return build_candidates(
        list(tasks.values()),
        members,
        payload["t"],
        cell_km=payload["cell_km"],
        max_candidates=payload["max_candidates"],
        horizon=payload["horizon"],
    )


def _cmd_crash(state: dict, payload: Any) -> None:  # pragma: no cover - exits
    os._exit(1)


_COMMANDS: dict[str, Callable[[dict, Any], Any]] = {
    "ping": _cmd_ping,
    "reset": _cmd_reset,
    "apply": _cmd_apply,
    "build": _cmd_build,
    "crash": _cmd_crash,
}

#: Commands that mutate server state and therefore go in the replay log.
LOGGED_COMMANDS = frozenset({"apply", "reset"})


def serve_shard(conn, shard_id: int, spool_dir: str | None = None) -> None:
    """The server process main loop: recv, dispatch, respond.

    With a ``spool_dir``, the first frame carrying a trace context
    installs a :class:`~repro.obs.dist.WorkerTelemetry` whose recorder
    spools one span per command.  Untraced frames (and servers without
    a spool directory) run the exact pre-observability dispatch.
    """
    state: dict = {"tasks": {}, "snaps": {}}
    telemetry: obs_dist.WorkerTelemetry | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        seq, command, payload, *rest = message
        ctx = rest[0] if rest else None
        try:
            if spool_dir is not None and ctx is not None:
                if telemetry is None:
                    telemetry = obs_dist.WorkerTelemetry(
                        spool_dir, role="shard", ident=shard_id, trace_id=ctx["trace"]
                    )
                if command == "obs_flush":
                    result = telemetry.flush()
                else:
                    started = time.perf_counter()
                    with telemetry.command_span(
                        obs_dist.CMD_SPAN_PREFIX + command, ctx, shard=shard_id
                    ):
                        result = _COMMANDS[command](state, payload)
                    telemetry.account(command, time.perf_counter() - started)
            elif command == "obs_flush":
                result = {"round": None, "pid": os.getpid(), "busy_s": 0.0, "by_command": {}}
            else:
                result = _COMMANDS[command](state, payload)
            conn.send((seq, "ok", result))
        except Exception as exc:  # report, don't die: the state survives
            conn.send((seq, "err", f"{type(exc).__name__}: {exc}"))
    if telemetry is not None:
        telemetry.close()
    conn.close()


# ----------------------------------------------------------------------
# coordinator-side handle
# ----------------------------------------------------------------------
class ShardServerHandle:
    """One shard server: process lifecycle, request pipe, replay log."""

    def __init__(
        self,
        shard_id: int,
        start_method: str = "fork",
        log_path: str | None = None,
        spool_dir: str | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.start_method = start_method
        self.log_path = log_path
        #: telemetry spool directory (or None), handed to the server
        #: process at every (re)spawn.
        self.spool_dir = spool_dir
        #: JSON lines, so in-memory and file-backed replays send the
        #: same JSON-normalised payloads.
        self._log: list[str] = []
        self._sink: JsonlSink | None = None
        self._proc: multiprocessing.Process | None = None
        self._conn = None
        self._seq = 0
        #: bumped on every respawn; in-flight requests from an older
        #: epoch never reached the new process and must be re-issued.
        self._epoch = 0
        self.restarts = 0
        if log_path is not None and os.path.exists(log_path):
            self._log = [json.dumps(entry) for entry in read_jsonl(log_path)]

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=serve_shard, args=(child, self.shard_id, self.spool_dir), daemon=True
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent

    def ensure_running(self) -> None:
        """Spawn (or respawn) the server, replaying the log into it.

        Replay also covers the *first* spawn: with a file-backed log
        from an earlier coordinator, the fresh server starts from the
        logged state — the durability half of crash recovery.
        """
        if self._proc is not None and self._proc.is_alive():
            return
        if self._proc is not None:  # died underneath us: count it
            self.restarts += 1
            self._epoch += 1
        self._spawn_and_replay()

    def _respawn_and_replay(self) -> None:
        """Crash path: new process, then the whole mutation log in order."""
        self.restarts += 1
        self._epoch += 1
        self._spawn_and_replay()

    def _spawn_and_replay(self) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            self._proc.join(timeout=1.0)
        self._spawn()
        for line in self._log:
            entry = json.loads(line)
            # Replayed mutations are marked in the trace context so the
            # merged timeline can attribute crash-recovery cost.
            self._roundtrip(entry["command"], entry["payload"], replay=True)

    # -- request/response ----------------------------------------------
    def _send_frame(self, seq: int, command: str, payload: Any, replay: bool = False) -> None:
        """One request frame; trace context appended only when tracing."""
        ctx = obs_dist.current_context(replay=replay)
        if ctx is None:
            self._conn.send((seq, command, payload))
        else:
            self._conn.send((seq, command, payload, ctx))

    def _roundtrip(self, command: str, payload: Any, replay: bool = False) -> Any:
        self._seq += 1
        seq = self._seq
        self._send_frame(seq, command, payload, replay=replay)
        reply_seq, status, result = self._conn.recv()
        if reply_seq != seq:
            raise ShardServerError(
                f"shard {self.shard_id}: reply {reply_seq} for request {seq}"
            )
        if status != "ok":
            raise ShardServerError(f"shard {self.shard_id}: {result}")
        return result

    def request(self, command: str, payload: Any = None) -> Any:
        """Run one command, logging mutations and surviving one crash."""
        self.ensure_running()
        if command in LOGGED_COMMANDS:
            self._append_log(command, payload)
        try:
            return self._roundtrip(command, payload)
        except (BrokenPipeError, EOFError, ConnectionResetError, OSError):
            self._respawn_and_replay()
            # Logged commands were already replayed from the log; the
            # rest (builds, pings) are idempotent reads — retry once.
            if command in LOGGED_COMMANDS:
                return None
            return self._roundtrip(command, payload)

    def send_async(self, command: str, payload: Any = None) -> tuple[int, int]:
        """Send without waiting; pair with :meth:`recv_async`.

        Returns an ``(epoch, seq)`` token.  Tokens from before a respawn
        are recognised as lost and their requests re-issued on receive.
        """
        self.ensure_running()
        if command in LOGGED_COMMANDS:
            self._append_log(command, payload)
        self._seq += 1
        try:
            self._send_frame(self._seq, command, payload)
        except (BrokenPipeError, OSError):
            self._respawn_and_replay()
            self._seq += 1
            self._send_frame(self._seq, command, payload)
        return (self._epoch, self._seq)

    def recv_async(self, token: tuple[int, int], command: str, payload: Any = None) -> Any:
        epoch, seq = token
        if epoch != self._epoch:
            # The server was respawned after this send: mutations were
            # re-applied from the log, reads must be re-issued.
            if command in LOGGED_COMMANDS:
                return None
            return self._roundtrip(command, payload)
        try:
            reply_seq, status, result = self._conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            self._respawn_and_replay()
            if command in LOGGED_COMMANDS:
                return None
            return self._roundtrip(command, payload)
        if reply_seq != seq:
            raise ShardServerError(
                f"shard {self.shard_id}: reply {reply_seq} for request {seq}"
            )
        if status != "ok":
            raise ShardServerError(f"shard {self.shard_id}: {result}")
        return result

    def _append_log(self, command: str, payload: Any) -> None:
        entry = {"command": command, "payload": payload}
        self._log.append(json.dumps(entry))
        if self.log_path is not None:
            if self._sink is None:
                self._sink = JsonlSink(self.log_path, append=True)
            self._sink.emit(entry)
            self._sink.flush()

    @property
    def log_length(self) -> int:
        return len(self._log)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=2.0)
            if self._proc.is_alive():  # pragma: no cover - stuck server
                self._proc.terminate()
            self._proc = None
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def scatter(
    handles: Sequence[ShardServerHandle],
    requests: Sequence[tuple[str, Any]],
) -> list[Any]:
    """Send one request per handle, then collect replies in order.

    All servers work concurrently — the coordinator blocks only on the
    slowest stripe instead of the sum of stripes.
    """
    tokens = [
        handle.send_async(command, payload)
        for handle, (command, payload) in zip(handles, requests)
    ]
    return [
        handle.recv_async(token, command, payload)
        for handle, token, (command, payload) in zip(handles, tokens, requests)
    ]


class ShardServerBackend:
    """``shards`` long-lived stateful server processes (one per stripe).

    The pool of handles :class:`repro.dist.serve.ShardedEngine` feeds
    with per-batch deltas.  Servers spawn lazily on first use and
    survive across batches; a crashed server is respawned and its state
    rebuilt by replaying the append-only JSONL command log (one
    ``shard-{id}.jsonl`` per server under ``log_dir``, when given).
    With a ``spool_dir`` each server spools its telemetry there while
    the coordinator traces.
    """

    def __init__(
        self,
        shards: int,
        start_method: str = "fork",
        log_dir: str | None = None,
        spool_dir: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard server")
        multiprocessing.get_context(start_method)  # unknown methods fail here
        for directory in (log_dir, spool_dir):
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
        self.handles = [
            ShardServerHandle(
                shard_id=s,
                start_method=start_method,
                log_path=(
                    os.path.join(log_dir, f"shard-{s}.jsonl")
                    if log_dir is not None
                    else None
                ),
                spool_dir=spool_dir,
            )
            for s in range(shards)
        ]

    def scatter_commands(self, requests: Sequence[tuple[str, Any]]) -> list[Any]:
        """One ``(command, payload)`` per server, replies in shard order."""
        return scatter(self.handles, requests)

    @property
    def total_restarts(self) -> int:
        return sum(h.restarts for h in self.handles)

    def close(self) -> None:
        for handle in self.handles:
            handle.close()

    def __enter__(self) -> "ShardServerBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def batch_step(
    handles: Sequence[ShardServerHandle],
    deltas: Sequence[dict],
    builds: Sequence[dict],
) -> list[dict[int, list[int]]]:
    """One serving batch across all servers: delta then build, pipelined.

    Both commands are sent to every server before any reply is awaited,
    so stripes apply and build concurrently.  A crash anywhere is
    absorbed by the handle: the delta is already in the replay log and
    the build is re-issued against the rebuilt state.
    """
    apply_tokens = [
        handle.send_async("apply", delta) for handle, delta in zip(handles, deltas)
    ]
    build_tokens = [
        handle.send_async("build", build) for handle, build in zip(handles, builds)
    ]
    for handle, token, delta in zip(handles, apply_tokens, deltas):
        handle.recv_async(token, "apply", delta)
    return [
        handle.recv_async(token, "build", build)
        for handle, token, build in zip(handles, build_tokens, builds)
    ]
