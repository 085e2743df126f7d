"""Stateless shard server processes for streaming candidate generation.

A shard *server* is a long-lived process that builds one stripe's
candidate graph per batch.  It holds no state between requests: each
``build`` request carries everything the stripe's build reads, as plain
numpy arrays (:class:`BuildRequest`) — the stripe's owned tasks, the
predicted points of its halo, and the snapshot worker ids — and the
server runs the one index pass,
:func:`repro.serve.spatial_index.candidates_from_points`, on them.

Protocol
--------
One duplex ``multiprocessing`` pipe per server.  Requests are
``(seq, command, payload)`` tuples — plus an optional fourth element,
the :mod:`repro.obs.dist` trace context, appended **only** when the
coordinator is tracing, so untraced frames stay byte-identical to the
three-tuple wire format.  Responses are ``(seq, status, result)``.
Commands are looked up in a fixed registry:

* ``build`` — the stripe's candidate graph from a :class:`BuildRequest`;
* ``obs_flush`` — round boundary for the server's telemetry spool:
  flushes buffered spans to disk and returns the round's per-command
  busy seconds;
* ``ping`` / ``crash`` — lifecycle and test hooks.

When the coordinator's :class:`~repro.dist.serve.DistConfig` sets a
``spool_dir``, each server lazily installs a
:class:`~repro.obs.dist.WorkerTelemetry` on the first traced frame it
sees and records one span per command, parented (via the propagated
context) under the coordinator span that issued it.

Crash recovery
--------------
Every command is a pure function of its payload, so recovery needs no
log: when the pipe to a server breaks, the handle respawns the process
and re-sends the request that failed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.obs import dist as obs_dist
from repro.serve.spatial_index import PredictedPoints, candidates_from_points


class ShardServerError(RuntimeError):
    """A command failed inside a shard server (the server survives)."""


class BuildRequest(NamedTuple):
    """One stripe's ``build`` payload: the arguments of the index pass."""

    #: ``(T,)`` ids of the tasks the stripe owns, in batch order.
    task_ids: np.ndarray
    #: ``(T, 2)`` their locations.
    task_xy: np.ndarray
    #: the predicted points of the stripe's halo, in snapshot order;
    #: ``owner`` is a position in ``worker_ids``.
    points: PredictedPoints
    #: ``(W,)`` the worker id of every snapshot position in the batch.
    worker_ids: np.ndarray
    cell_km: float
    max_candidates: int | None


# ----------------------------------------------------------------------
# server-side command handlers
# ----------------------------------------------------------------------
def _cmd_ping(payload: Any) -> str:
    return "pong"


def _cmd_build(request: BuildRequest) -> dict[int, list[int]]:
    """This stripe's candidate graph (per-task worker order is global
    snapshot order, so the coordinator's merge equals the dense build)."""
    return candidates_from_points(
        request.task_ids,
        request.task_xy,
        request.points,
        request.worker_ids,
        request.cell_km,
        request.max_candidates,
    )


def _cmd_crash(payload: Any) -> None:  # pragma: no cover - exits
    os._exit(1)


_COMMANDS: dict[str, Callable[[Any], Any]] = {
    "ping": _cmd_ping,
    "build": _cmd_build,
    "crash": _cmd_crash,
}


def serve_shard(conn, shard_id: int, spool_dir: str | None = None) -> None:
    """The server process main loop: recv, dispatch, respond.

    With a ``spool_dir``, the first frame carrying a trace context
    installs a :class:`~repro.obs.dist.WorkerTelemetry` whose recorder
    spools one span per command.  Untraced frames (and servers without
    a spool directory) run the exact pre-observability dispatch.
    """
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
                        result = _COMMANDS[command](payload)
                    telemetry.account(command, time.perf_counter() - started)
            elif command == "obs_flush":
                result = {"round": None, "pid": os.getpid(), "busy_s": 0.0, "by_command": {}}
            else:
                result = _COMMANDS[command](payload)
            conn.send((seq, "ok", result))
        except Exception as exc:  # report, don't die
            conn.send((seq, "err", f"{type(exc).__name__}: {exc}"))
    if telemetry is not None:
        telemetry.close()
    conn.close()


# ----------------------------------------------------------------------
# coordinator-side handle
# ----------------------------------------------------------------------
_PIPE_ERRORS = (BrokenPipeError, EOFError, ConnectionResetError, OSError)


class ShardServerHandle:
    """One shard server: process lifecycle and request pipe."""

    def __init__(
        self,
        shard_id: int,
        start_method: str = "fork",
        spool_dir: str | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.start_method = start_method
        #: telemetry spool directory (or None), handed to the server
        #: process at every (re)spawn.
        self.spool_dir = spool_dir
        self._proc: multiprocessing.Process | None = None
        self._conn = None
        self._seq = 0
        #: bumped on every respawn; in-flight requests from an older
        #: epoch never reached the new process and must be re-issued.
        self._epoch = 0
        #: replies that arrived while a later request's was awaited.
        self._early: dict[int, tuple[str, Any]] = {}
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------
    def ensure_running(self) -> None:
        """Spawn the server, or respawn it if it died underneath us."""
        if self._proc is not None and self._proc.is_alive():
            return
        if self._proc is not None:
            self._respawn()
        else:
            self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context(self.start_method)
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=serve_shard, args=(child, self.shard_id, self.spool_dir), daemon=True
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent

    def _respawn(self) -> None:
        """Crash path: count it, then a fresh process on a fresh pipe."""
        self.restarts += 1
        self._epoch += 1
        self._early.clear()
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            self._proc.join(timeout=1.0)
        self._spawn()

    # -- request/response ----------------------------------------------
    def _send_frame(self, seq: int, command: str, payload: Any) -> None:
        """One request frame; trace context appended only when tracing."""
        ctx = obs_dist.current_context()
        if ctx is None:
            self._conn.send((seq, command, payload))
        else:
            self._conn.send((seq, command, payload, ctx))

    def _receive(self, seq: int) -> Any:
        """The reply to request ``seq``.

        A pipe answers in order, but a request re-sent after a respawn
        can queue behind one sent to the new process earlier; replies
        to such earlier requests are kept for their own receive.
        """
        reply = self._early.pop(seq, None)
        while reply is None:
            reply_seq, status, result = self._conn.recv()
            if reply_seq == seq:
                reply = (status, result)
            elif reply_seq < seq:
                self._early[reply_seq] = (status, result)
            else:
                raise ShardServerError(
                    f"shard {self.shard_id}: reply {reply_seq} for request {seq}"
                )
        status, result = reply
        if status != "ok":
            raise ShardServerError(f"shard {self.shard_id}: {result}")
        return result

    def _roundtrip(self, command: str, payload: Any) -> Any:
        self._seq += 1
        self._send_frame(self._seq, command, payload)
        return self._receive(self._seq)

    def request(self, command: str, payload: Any = None) -> Any:
        """Run one command, surviving one crash by respawn and resend."""
        self.ensure_running()
        try:
            return self._roundtrip(command, payload)
        except _PIPE_ERRORS:
            self._respawn()
            return self._roundtrip(command, payload)

    def send_async(self, command: str, payload: Any = None) -> tuple[int, int]:
        """Send without waiting; pair with :meth:`recv_async`.

        Returns an ``(epoch, seq)`` token.  Tokens from before a respawn
        are recognised as lost and their requests re-issued on receive.
        """
        self.ensure_running()
        self._seq += 1
        try:
            self._send_frame(self._seq, command, payload)
        except _PIPE_ERRORS:
            self._respawn()
            self._seq += 1
            self._send_frame(self._seq, command, payload)
        return (self._epoch, self._seq)

    def recv_async(self, token: tuple[int, int], command: str, payload: Any = None) -> Any:
        epoch, seq = token
        if epoch != self._epoch:
            # The server was respawned after this send: re-issue.
            return self._roundtrip(command, payload)
        try:
            return self._receive(seq)
        except _PIPE_ERRORS:
            self._respawn()
            return self._roundtrip(command, payload)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(None)
            except _PIPE_ERRORS:
                pass
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=2.0)
            if self._proc.is_alive():  # pragma: no cover - stuck server
                self._proc.terminate()
            self._proc = None


def scatter_send(
    handles: Sequence[ShardServerHandle],
    requests: Sequence[tuple[str, Any]],
) -> list[tuple[int, int]]:
    """The send half of :func:`scatter`: one token per request.

    A handle may appear more than once; its requests queue on its pipe
    in list order and are answered in that order.
    """
    return [
        handle.send_async(command, payload)
        for handle, (command, payload) in zip(handles, requests)
    ]


def scatter_receive(
    handles: Sequence[ShardServerHandle],
    tokens: Sequence[tuple[int, int]],
    requests: Sequence[tuple[str, Any]],
) -> list[Any]:
    """The receive half of :func:`scatter`: replies in request order."""
    return [
        handle.recv_async(token, command, payload)
        for handle, token, (command, payload) in zip(handles, tokens, requests)
    ]


def scatter(
    handles: Sequence[ShardServerHandle],
    requests: Sequence[tuple[str, Any]],
) -> list[Any]:
    """Send one request per handle, then collect replies in order.

    All servers work concurrently — the coordinator blocks only on the
    slowest stripe instead of the sum of stripes.
    """
    return scatter_receive(handles, scatter_send(handles, requests), requests)


class ShardServerBackend:
    """``shards`` long-lived stateless server processes (one per stripe).

    The pool of handles :class:`repro.dist.serve.ShardedEngine` sends
    each batch's stripe builds to.  Servers spawn lazily on first use
    and survive across batches; a crashed server is respawned and its
    request re-sent.  With a ``spool_dir`` each server spools its
    telemetry there while the coordinator traces.
    """

    def __init__(
        self,
        shards: int,
        start_method: str = "fork",
        spool_dir: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard server")
        multiprocessing.get_context(start_method)  # unknown methods fail here
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
        self.handles = [
            ShardServerHandle(shard_id=s, start_method=start_method, spool_dir=spool_dir)
            for s in range(shards)
        ]

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
