"""Execution backends: where `repro.dist` runs its work.

A :class:`Backend` is deliberately tiny — one ordered map over picklable
payloads — because the parity guarantee of the fan-out entry point
(sweep cells) rests on one invariant: *the work is a pure function of
its payload, and the reduction consumes results in payload order*.
Under that invariant the serial backend and a process pool are
interchangeable bit for bit, so sweeps are tested by swapping backends
and comparing outputs exactly.

``SerialBackend`` runs jobs inline (the default everywhere: zero new
processes).  ``ProcessBackend`` fans jobs across a ``multiprocessing``
pool; ``Pool.map`` already returns results in submission order, which
is the ordered-reduction half of the invariant.  Payload purity is the
caller's half — the cell function of :mod:`repro.scenarios.sweep`
takes explicit seeds and frozen specs, never ambient state.

``ShardServerBackend`` is not an ordered map: it owns one long-lived,
stateful server per stripe that only :class:`repro.dist.serve.ShardedEngine`
feeds, through the command surface of :mod:`repro.dist.server`.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

T = TypeVar("T")
R = TypeVar("R")

#: Start methods the process backend accepts.  ``spawn`` re-imports the
#: code in each worker and therefore requires every payload attribute to
#: be picklable — the property ``tests/test_picklable.py`` pins down;
#: ``fork`` (POSIX default) is cheaper to start.
START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True, slots=True)
class DistConfig:
    """Knobs of sharded serving (:class:`repro.dist.serve.ShardedEngine`).

    Attributes
    ----------
    backend:
        ``"serial"`` (every shard inline, the default) or
        ``"shard_server"`` (one long-lived stateful process per shard,
        see :mod:`repro.dist.server`).
    shards:
        Spatial shard count for candidate generation / serving.
    start_method:
        ``multiprocessing`` start method for the shard servers.
    warm_start:
        Carry :class:`repro.assignment.hungarian.WarmStartState` across
        batches in the matcher (see :mod:`repro.dist.shard`).
    server_log_dir:
        Where shard servers append their JSONL replay logs; ``None``
        keeps the logs in coordinator memory.
    spool_dir:
        Where shard servers spool their telemetry while the coordinator
        traces (see :mod:`repro.obs.dist`); ``None`` (the default) keeps
        the servers telemetry-free.  Only the ``"shard_server"`` backend
        spools, so any other backend rejects it.
    """

    backend: str = "serial"
    shards: int = 1
    start_method: str = "fork"
    warm_start: bool = False
    server_log_dir: str | None = None
    spool_dir: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "shard_server"):
            raise ValueError(
                f"DistConfig.backend must be 'serial' or 'shard_server', got {self.backend!r}"
            )
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.start_method not in START_METHODS:
            raise ValueError(f"start_method must be one of {START_METHODS}")
        if self.spool_dir is not None and self.backend != "shard_server":
            raise ValueError(
                f"spool_dir needs backend 'shard_server' (got {self.backend!r}): "
                "only shard servers spool telemetry"
            )


@runtime_checkable
class Backend(Protocol):
    """An ordered map over picklable payloads."""

    def map_ordered(self, fn: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every payload; results in payload order."""
        ...

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""
        ...


class SerialBackend:
    """Run jobs inline, in order.  The reference reduction."""

    workers = 1

    def map_ordered(self, fn: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        return [fn(p) for p in payloads]

    def close(self) -> None:  # nothing pooled
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessBackend:
    """Fan jobs across a ``multiprocessing`` pool, results in order.

    The pool is created lazily on first use and reused across calls, so
    a serving run pays the fork/spawn cost once, not per batch.  Chunk
    size 1 keeps the payload-to-worker mapping independent of the pool
    size — irrelevant for correctness (jobs are pure) but it makes
    latency attribution per job honest.
    """

    def __init__(self, workers: int, start_method: str = "fork") -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if start_method not in START_METHODS:
            raise ValueError(f"start_method must be one of {START_METHODS}")
        self.workers = workers
        self.start_method = start_method
        self._pool: multiprocessing.pool.Pool | None = None

    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(processes=self.workers)
        return self._pool

    def map_ordered(self, fn: Callable[[T], R], payloads: Sequence[T]) -> list[R]:
        if not payloads:
            return []
        if len(payloads) == 1:  # no point shipping a single job out
            return [fn(payloads[0])]
        return self._ensure_pool().map(fn, payloads, chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # belt and braces; close() is the API
        try:
            self.close()
        except Exception:
            pass


class ShardServerBackend:
    """``shards`` long-lived stateful server processes (one per stripe).

    Exposes the stateful delta/build command surface of
    :class:`repro.dist.server.ShardServerHandle` that
    :class:`repro.dist.serve.ShardedEngine` feeds with per-batch
    deltas.  Servers spawn lazily on first use and survive across
    batches; a crashed server is respawned and its state rebuilt by
    replaying the append-only JSONL command log.  With a ``spool_dir``
    each server spools its telemetry there while the coordinator traces.
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
        if start_method not in START_METHODS:
            raise ValueError(f"start_method must be one of {START_METHODS}")
        from repro.dist.server import ShardServerHandle

        for directory in (log_dir, spool_dir):
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
        self.shards = shards
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

    def request(self, shard_id: int, command: str, payload=None):
        """One stateful command on one server (see :mod:`repro.dist.server`)."""
        return self.handles[shard_id].request(command, payload)

    def scatter_commands(self, requests: Sequence[tuple[str, object]]) -> list:
        """One ``(command, payload)`` per server, replies in shard order."""
        from repro.dist.server import scatter

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


def resolve_backend(config: DistConfig | None) -> Backend | ShardServerBackend:
    """Build the backend a :class:`DistConfig` asks for.

    ``None`` and the default config both resolve to the serial backend.
    """
    if config is None or config.backend == "serial":
        return SerialBackend()
    return ShardServerBackend(
        config.shards,
        config.start_method,
        log_dir=config.server_log_dir,
        spool_dir=config.spool_dir,
    )


def available_cpus() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
