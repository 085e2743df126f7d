"""Sharded streaming serve: ``ServeEngine`` with per-shard candidate builds.

:class:`ShardedEngine` keeps the event loop, triggers, cache, queue
bound, and acceptance bookkeeping of :class:`repro.serve.engine.ServeEngine`
untouched and overrides exactly two hooks:

* ``_build_candidates`` — each batch's candidate graph is built stripe
  by stripe on long-lived, stateless shard servers
  (``DistConfig.backend = "shard_server"``), each sent one array
  request per batch (:func:`stripe_build_requests`), or, on the serial
  transport, once in process by
  :func:`repro.dist.shard.sharded_build_candidates` with the same
  per-stripe accounting.  Either way it provably equals the dense
  graph, so every downstream plan — and therefore
  :func:`repro.serve.adapters.result_signature` — is unchanged at any
  shard count;
* ``_make_decision_log`` — decision records carry, in their ``shard``
  field, the stripe that owns (or is nearest to) their task's cell
  column under the most recent batch's layout; the log itself is the
  engine's one ``config.path`` file, written as tasks reach their
  terminal.

Boundary workers — snapshots whose halo spans more than one stripe —
are counted per batch in :attr:`ShardedEngine.batch_stats`; they are the
reconciliation cost of sharding (the same snapshot's points are shipped
to every stripe they can reach, and the merge de-duplicates nothing
because task ownership is disjoint).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.obs.decisions import DecisionConfig, DecisionLog
from repro.obs.dist import (
    MERGE_SPAN,
    PREPARE_SPAN,
    ROUND_SPAN,
    SOLVE_SPAN,
    current_context,
)
from repro.obs.metrics import labelled
from repro.assignment.plan import AssignmentPlan
from repro.dist.server import BuildRequest, ShardServerBackend, scatter_receive, scatter_send
from repro.dist.shard import (
    ComponentMatcher,
    ShardLayout,
    ShardPlanner,
    ShardStats,
    WarmMatchCache,
    fill_shard_stats,
    sharded_build_candidates,
    stripe_members,
    stripe_ranges,
)
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.platform import AssignFn, SnapshotProvider
from repro.serve.engine import CandidateAssignFn, ServeConfig, ServeEngine, ServeResult
from repro.serve.spatial_index import (
    PredictedPoints,
    latest_horizon,
    predicted_points,
    task_arrays,
)


#: ``multiprocessing`` start methods a shard server accepts.  ``spawn``
#: re-imports the code in each server and therefore requires every
#: payload to be picklable — the property ``tests/test_picklable.py``
#: pins down; ``fork`` (POSIX default) is cheaper to start.
START_METHODS = ("fork", "spawn", "forkserver")


@dataclass(frozen=True, slots=True)
class DistConfig:
    """Knobs of sharded serving (:class:`ShardedEngine`).

    A policy document's ``dist`` block sets ``backend``, ``shards`` and
    ``warm_start`` (see :mod:`repro.scenarios.specs`); the rest are
    per-run settings.

    Attributes
    ----------
    backend:
        ``"serial"`` (every shard inline, the default) or
        ``"shard_server"`` (one long-lived stateless process per shard,
        see :mod:`repro.dist.server`).
    shards:
        Spatial shard count for candidate generation / serving.
    start_method:
        ``multiprocessing`` start method for the shard servers.
    warm_start:
        Carry :class:`repro.assignment.hungarian.WarmStartState` across
        batches in the matcher (see :mod:`repro.dist.shard`).
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


def component_candidate_assign(
    assign: Callable[..., AssignmentPlan],
    warm_start: bool = False,
) -> CandidateAssignFn:
    """``assign`` with its KM solves decomposed by connected component.

    ``assign`` is an assignment entry point taking a candidate graph
    and a ``matcher`` keyword (:func:`repro.assignment.ppi.ppi_assign`,
    :func:`repro.assignment.baselines.km_assign`, or a
    :func:`functools.partial` of one fixing its config).  The result is
    a drop-in for the engine's candidate path with the same plans (the
    component decomposition is exact under a unique optimum, see
    :mod:`repro.dist.shard`), each matching split into its connected
    components.

    ``warm_start`` keeps a :class:`~repro.dist.shard.WarmMatchCache` in
    the closure: successive batches seed each component's solve with the
    previous duals, and unchanged components skip the solve outright.
    The cache is per-closure state, so build one closure per engine.
    """
    warm = WarmMatchCache() if warm_start else None
    matcher = ComponentMatcher(warm=warm)

    def decomposed(
        tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
        candidates: dict[int, list[int]],
    ) -> AssignmentPlan:
        if warm is not None:
            warm.begin_round()
        return assign(tasks, snapshots, t, candidates, matcher=matcher)

    decomposed.warm_cache = warm  # type: ignore[attr-defined]
    return decomposed


def stripe_build_requests(
    layout: ShardLayout,
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    t: float,
    max_candidates: int | None = None,
) -> tuple[dict[int, BuildRequest], list[list[int]], list[int]]:
    """Cut one batch into shard-server ``build`` requests.

    Returns a :class:`~repro.dist.server.BuildRequest` per stripe that
    owns tasks and has halo points (stripe id -> request), plus each
    stripe's halo members and task count for the accounting.  The
    predicted points are stacked once and each point's stripe range
    computed once; the halo memberships read the same ranges.  Merging
    the requests' graphs gives the dense
    :func:`~repro.serve.spatial_index.build_candidates` graph.
    """
    n_shards = len(layout)
    points = predicted_points(snapshots, latest_horizon(tasks, t))
    first, last = stripe_ranges(layout, points)
    members = stripe_members(points, first, last, n_shards)

    task_ids, task_xy = task_arrays(tasks)
    task_stripe = layout.shards_for_x(task_xy[:, 0])
    # A task id belongs to the lowest stripe holding one of its rows,
    # and that stripe's halo reaches up to the highest: a batch
    # repeating an id across stripes still merges to the dense graph,
    # which counts the rows as one task.
    _, id_of_row = np.unique(task_ids, return_inverse=True)
    id_lo = np.full(len(task_ids), n_shards)
    id_hi = np.full(len(task_ids), -1)
    np.minimum.at(id_lo, id_of_row, task_stripe)
    np.maximum.at(id_hi, id_of_row, task_stripe)
    owner, reach_hi = id_lo[id_of_row], id_hi[id_of_row]

    worker_ids = np.array([snap.worker_id for snap in snapshots])
    requests: dict[int, BuildRequest] = {}
    for s in range(n_shards):
        rows = np.flatnonzero(owner == s)
        if not len(rows):
            continue
        halo = (first <= reach_hi[rows].max()) & (last >= s)
        if not halo.any():
            continue
        requests[s] = BuildRequest(
            task_ids[rows],
            task_xy[rows],
            PredictedPoints(points.xy[halo], points.owner[halo], points.radius[halo]),
            worker_ids,
            layout.cell_km,
            max_candidates,
        )
    return requests, members, np.bincount(task_stripe, minlength=n_shards).tolist()


class ShardedEngine(ServeEngine):
    """Route one stream through per-stripe candidate generation.

    Parameters are those of :class:`ServeEngine` plus the dist knobs;
    ``config.use_index`` is forced on (sharding *is* an index strategy)
    and a ``candidate_assign_fn`` is therefore required.  ``dist``
    controls both the stripe count and where stripe builds run:
    ``"serial"`` (in process, the parity reference) or
    ``"shard_server"``.  On the latter the engine owns its shard
    servers (:attr:`backend`) and :meth:`close` stops them.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        snapshot_provider: SnapshotProvider,
        config: ServeConfig | None = None,
        assign_fn: AssignFn | None = None,
        candidate_assign_fn: CandidateAssignFn | None = None,
        dist: DistConfig | None = None,
    ) -> None:
        cfg = config if config is not None else ServeConfig()
        if not cfg.use_index:
            cfg = replace(cfg, use_index=True)
        super().__init__(
            workers,
            snapshot_provider,
            config=cfg,
            assign_fn=assign_fn,
            candidate_assign_fn=candidate_assign_fn,
        )
        self.dist = dist if dist is not None else DistConfig()
        #: The shard servers on the ``shard_server`` transport, ``None``
        #: on the serial one.
        self.backend: ShardServerBackend | None = None
        if self.dist.backend == "shard_server":
            self.backend = ShardServerBackend(
                self.dist.shards,
                self.dist.start_method,
                spool_dir=self.dist.spool_dir,
            )
        #: One :class:`ShardStats` per batch of the latest run, in batch order.
        self.batch_stats: list[ShardStats] = []
        self._planner = ShardPlanner(
            shards=self.dist.shards, cell_km=self.config.index_cell_km
        )
        #: The stripe layout of the latest batch (``None`` before a run's first).
        self._layout: ShardLayout | None = None
        self._task_col: dict[int, int] = {}
        #: serving-round index (one per shard-server build).
        self._round = 0

    def run(
        self,
        tasks: Sequence[SpatialTask],
        t_start: float,
        t_end: float,
        outcome_listener: Callable[[int, int, bool, float], None] | None = None,
    ) -> ServeResult:
        # Stripe attribution and batch accounting are per run; the
        # planner's sticky layout persists.
        self.batch_stats = []
        self._layout = None
        cell_km = self.config.index_cell_km
        self._task_col = {
            task.task_id: math.floor(task.location.x / cell_km) for task in tasks
        }
        return super().run(tasks, t_start, t_end, outcome_listener)

    # ------------------------------------------------------------------
    def _build_candidates(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
    ) -> dict[int, list[int]]:
        stats = ShardStats()
        if self.backend is not None:
            graph = self._server_build(batch_tasks, snapshots, t, stats)
        else:
            graph = sharded_build_candidates(
                batch_tasks,
                snapshots,
                t,
                self._planner,
                max_candidates=self.config.max_candidates,
                stats=stats,
            )
        self._layout = self._planner._layout
        self.batch_stats.append(stats)
        obs.counter("dist.serve.boundary_workers", stats.n_boundary_workers)
        return graph

    def _server_build(
        self,
        batch_tasks: Sequence[SpatialTask],
        snapshots: Sequence[WorkerSnapshot],
        t: float,
        stats: ShardStats,
    ) -> dict[int, list[int]]:
        """One batch on the shard servers: one ``build`` per active stripe
        (see :func:`stripe_build_requests`), sent concurrently, merged."""
        round_idx = self._round
        self._round += 1
        with obs.span(ROUND_SPAN, round=round_idx, t=t):
            with obs.span(PREPARE_SPAN):
                layout = self._planner.layout_for(batch_tasks)
                if layout is None:
                    return {}
                requests, members, tasks_per_shard = stripe_build_requests(
                    layout, batch_tasks, snapshots, t, self.config.max_candidates
                )

            handles = [self.backend.handles[s] for s in requests]
            calls = [("build", request) for request in requests.values()]
            n_builds = len(calls)
            # Flush the server spools only when a spool directory is set
            # *and* a trace is active: servers install telemetry lazily
            # off the propagated context, so flushing an untraced run
            # would be wasted work.
            flush = self.dist.spool_dir is not None and current_context() is not None
            if flush:
                # Each server's flush queues behind its build on the
                # same pipe: one send pass and one receive pass serve
                # both, and every server is flushed, active or not.
                handles += self.backend.handles
                calls += [("obs_flush", None)] * len(self.backend.handles)
            with obs.span(SOLVE_SPAN, shards=len(layout)):
                solve_started = time.perf_counter()
                tokens = scatter_send(handles, calls)
                graphs = scatter_receive(
                    handles[:n_builds], tokens[:n_builds], calls[:n_builds]
                )
                solve_seconds = time.perf_counter() - solve_started

            with obs.span(MERGE_SPAN):
                started = time.perf_counter()
                merged: dict[int, list[int]] = {}
                for graph in graphs:
                    merged.update(graph)
                merge_seconds = time.perf_counter() - started
            obs.histogram("dist.merge.seconds", merge_seconds)

            pairs = [0] * len(layout)
            for s, graph in zip(requests, graphs):
                pairs[s] = sum(len(v) for v in graph.values())
            fill_shard_stats(stats, tasks_per_shard, members, pairs, merge_seconds)
            if flush:
                self._attribute_stragglers(
                    scatter_receive(
                        handles[n_builds:], tokens[n_builds:], calls[n_builds:]
                    ),
                    solve_seconds,
                )
        return merged

    def _attribute_stragglers(self, replies: list, solve_seconds: float) -> None:
        """Round boundary: attribute the stragglers from the flush replies.

        Flush replies carry each server's busy seconds for the round;
        the gap to the solve window is that shard's IPC wait, and the
        busiest shard is the round's straggler.
        """
        busy: dict[int, float] = {}
        for shard_id, reply in enumerate(replies):
            if not isinstance(reply, dict):
                continue
            busy[shard_id] = float(reply.get("busy_s") or 0.0)
        if not busy:
            return
        straggler = max(busy, key=lambda s: busy[s])
        for shard_id, busy_s in busy.items():
            obs.gauge(labelled("dist.shard.busy_s", shard=shard_id), busy_s)
            obs.gauge(
                labelled("dist.shard.ipc_wait_s", shard=shard_id),
                max(solve_seconds - busy_s, 0.0),
            )
        obs.gauge("dist.shard.straggler", straggler)
        obs.counter(labelled("dist.shard.straggler_rounds", shard=straggler))

    # ------------------------------------------------------------------
    def _shard_for_column(self, col: int | None) -> int | None:
        """The stripe owning (or nearest to) a cell column, or ``None``.

        The layout's own total column map: columns outside every stripe
        clamp to the nearest one; ``None`` before the run's first batch
        lays stripes out.
        """
        if col is None or self._layout is None:
            return None
        return self._layout.shard_for_column(col)

    def _make_decision_log(self, config: DecisionConfig) -> DecisionLog:
        return DecisionLog(
            config, shard_of=lambda task_id: self._shard_for_column(self._task_col.get(task_id))
        )

    # ------------------------------------------------------------------
    @property
    def boundary_workers_total(self) -> int:
        """Boundary-worker shipments summed over every batch so far."""
        return sum(s.n_boundary_workers for s in self.batch_stats)

    def close(self) -> None:
        """Stop the shard servers, if any (safe to call twice)."""
        if self.backend is not None:
            self.backend.close()
