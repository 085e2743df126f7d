"""Stateless shard servers: array builds, crash recovery, engine parity.

The contract under test: a shard server builds its stripe's candidate
graph from the plain arrays of one ``build`` request, the stripes'
graphs merge to the dense ``build_candidates`` graph, a crashed server
is respawned and re-sent the same request, and a serving run that loses
servers mid-stream still reproduces the dense engine's
``result_signature``.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.dist import (
    DistConfig,
    ShardedEngine,
    ShardLayout,
    ShardPlanner,
    ShardServerBackend,
    ShardServerError,
    component_candidate_assign,
    make_shards,
)
from repro.dist.serve import stripe_build_requests
from repro.dist.server import BuildRequest, ShardServerHandle, scatter
from repro.geo.point import Point
from repro.obs import MemorySink
from repro.obs.metrics import labelled
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)
from repro.serve.spatial_index import (
    build_candidates,
    latest_horizon,
    predicted_points,
    task_arrays,
)


def sample_task(task_id=0, x=1.0, y=1.0):
    return SpatialTask(task_id=task_id, location=Point(x, y), release_time=0.0, deadline=30.0)


def sample_snapshot(worker_id=0, x=1.5, y=1.5):
    return WorkerSnapshot(
        worker_id=worker_id,
        current_location=Point(x, y),
        predicted_xy=np.array([[x, y], [x + 1.0, y]]),
        predicted_times=np.array([5.0, 10.0]),
        detour_budget_km=4.0,
        speed_km_per_min=1.0,
        matching_rate=0.8,
    )


def whole_batch_request(tasks, snaps, t=0.0, cell_km=1.0, max_candidates=None):
    """One build request holding the whole batch (a one-stripe layout)."""
    task_ids, task_xy = task_arrays(tasks)
    return BuildRequest(
        task_ids,
        task_xy,
        predicted_points(snaps, latest_horizon(tasks, t)),
        np.array([snap.worker_id for snap in snaps]),
        cell_km,
        max_candidates,
    )


class TestShardServerHandle:
    def test_build_from_arrays_equals_dense(self):
        tasks = [sample_task(0), sample_task(1, 2.2, 1.4)]
        snaps = [sample_snapshot(0), sample_snapshot(4, 2.0, 2.0)]
        handle = ShardServerHandle(0)
        try:
            assert handle.request("ping") == "pong"
            graph = handle.request("build", whole_batch_request(tasks, snaps))
        finally:
            handle.close()
        assert graph == build_candidates(tasks, snaps, 0.0)
        assert graph  # non-trivial
        # Ids come back as plain ints, not numpy scalars.
        assert all(type(k) is int for k in graph)
        assert all(type(w) is int for ws in graph.values() for w in ws)

    def test_unknown_command_reports_without_dying(self):
        handle = ShardServerHandle(0)
        try:
            with pytest.raises(ShardServerError):
                handle.request("no-such-command")
            assert handle.request("ping") == "pong"
            assert handle.restarts == 0
        finally:
            handle.close()

    def test_crash_respawn_resends_the_build(self):
        request = whole_batch_request([sample_task(0)], [sample_snapshot(0)])
        handle = ShardServerHandle(0)
        try:
            before = handle.request("build", request)
            assert before
            os.kill(handle._proc.pid, signal.SIGKILL)
            handle._proc.join(timeout=2.0)
            assert handle.request("build", request) == before
            assert handle.restarts == 1
            # A server killed between send and receive is re-sent too.
            token = handle.send_async("build", request)
            os.kill(handle._proc.pid, signal.SIGKILL)
            handle._proc.join(timeout=2.0)
            assert handle.recv_async(token, "build", request) == before
            assert handle.restarts == 2
        finally:
            handle.close()

    def test_pipelined_replies_reach_their_own_receive(self):
        """Two requests queued on one pipe: awaiting the later one first
        keeps the earlier reply for its own receive."""
        request = whole_batch_request([sample_task(0)], [sample_snapshot(0)])
        handle = ShardServerHandle(0)
        try:
            expected = handle.request("build", request)
            ping = handle.send_async("ping")
            build = handle.send_async("build", request)
            assert handle.recv_async(build, "build", request) == expected
            assert handle.recv_async(ping, "ping") == "pong"
            assert scatter([handle, handle], [("build", request), ("ping", None)]) == [
                expected, "pong"
            ]
            assert handle.restarts == 0
        finally:
            handle.close()

    def test_spawn_started_server_builds_from_arrays(self):
        tasks = [sample_task(0), sample_task(1, 2.2, 1.4)]
        snaps = [sample_snapshot(0), sample_snapshot(4, 2.0, 2.0)]
        handle = ShardServerHandle(0, start_method="spawn")
        try:
            graph = handle.request("build", whole_batch_request(tasks, snaps, max_candidates=1))
        finally:
            handle.close()
        assert graph == build_candidates(tasks, snaps, 0.0, max_candidates=1)


# ----------------------------------------------------------------------
# parity property: merged stripe graphs == the dense graph
# ----------------------------------------------------------------------
@st.composite
def sharded_batches(draw):
    """Random batches under random stripe layouts, with the cases a
    stripe build must survive: duplicate task ids (across stripes too),
    stripes owning no tasks, stripes with no halo points, and snapshots
    with no points or a zero radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    extent = draw(st.sampled_from([6.0, 20.0, 40.0]))
    cell_km = draw(st.sampled_from([0.7, 1.0, 2.5]))
    n_tasks = draw(st.integers(0, 30))
    tasks = [
        SpatialTask(i, Point(*rng.uniform(0.0, extent, 2)), 0.0, float(rng.uniform(0.5, 40.0)))
        for i in range(n_tasks)
    ]
    if n_tasks > 1 and draw(st.booleans()):
        # Reuse some ids, wherever their rows happen to lie.
        for i in rng.choice(n_tasks, size=n_tasks // 3, replace=False):
            tasks[i] = SpatialTask(
                int(rng.integers(0, n_tasks)), tasks[i].location, 0.0, tasks[i].deadline
            )
    snaps = []
    for w in range(draw(st.integers(0, 15))):
        n_pts = int(rng.choice([0, 1, 3, 6]))
        snaps.append(
            WorkerSnapshot(
                worker_id=1000 - 3 * w,
                current_location=Point(0.0, 0.0),
                predicted_xy=rng.uniform(0.0, extent, size=(n_pts, 2)),
                predicted_times=10.0 * np.arange(1, n_pts + 1),
                detour_budget_km=float(rng.choice([0.0, 1.0, rng.uniform(0.5, 10.0)])),
                speed_km_per_min=float(rng.uniform(0.1, 1.5)),
                matching_rate=0.5,
            )
        )
    # The layout may come from another batch (a sticky layout), so some
    # stripes can own no tasks of this one.
    layout_tasks = tasks
    if draw(st.booleans()) or not tasks:
        layout_tasks = [
            SpatialTask(i, Point(*rng.uniform(0.0, extent, 2)), 0.0, 1.0) for i in range(12)
        ]
    specs = make_shards(layout_tasks, draw(st.integers(1, 4)), cell_km)
    layout = ShardLayout.from_specs(specs, cell_km)
    max_candidates = draw(st.one_of(st.none(), st.integers(1, 3)))
    t = draw(st.floats(0.0, 5.0))
    return tasks, snaps, layout, max_candidates, t


@pytest.fixture(scope="module")
def four_servers():
    with ShardServerBackend(shards=4) as backend:
        yield backend


class TestMergedServerGraphParity:
    @settings(max_examples=120, deadline=None)
    @given(batch=sharded_batches())
    def test_merged_server_graphs_equal_dense(self, four_servers, batch):
        tasks, snaps, layout, max_candidates, t = batch
        requests, members, tasks_per_shard = stripe_build_requests(
            layout, tasks, snaps, t, max_candidates
        )
        graphs = scatter(
            [four_servers.handles[s] for s in requests],
            [("build", request) for request in requests.values()],
        )
        merged = {}
        for graph in graphs:
            assert not merged.keys() & graph.keys()  # each id has one owner
            merged.update(graph)
        dense = build_candidates(
            tasks, snaps, t, cell_km=layout.cell_km, max_candidates=max_candidates
        )
        assert merged == dense  # keys, worker lists, AND list order
        planner = ShardPlanner(len(layout), cell_km=layout.cell_km)
        assert members == planner.memberships(layout, snaps, latest_horizon(tasks, t))
        assert sum(tasks_per_shard) == len(tasks)

    def test_empty_stripes_get_no_request(self):
        """A stripe that owns no tasks, and one whose tasks no halo
        point reaches, are not sent a build."""
        tasks = [sample_task(0, 0.5, 0.5), sample_task(1, 9.5, 0.5)]
        layout = ShardLayout.from_specs(
            make_shards(tasks + [sample_task(2, 5.5, 0.5)], 3, 1.0), 1.0
        )
        snaps = [sample_snapshot(7, 0.5, 0.5)]
        requests, members, tasks_per_shard = stripe_build_requests(layout, tasks, snaps, 0.0)
        assert list(requests) == [0]
        assert tasks_per_shard == [1, 0, 1]
        assert members == [[0], [0], []]  # stripe 1's halo, but no tasks


class TestShardServerBackend:
    def test_shard_server_engine_owns_its_servers(self):
        _, workers = scenario(0)
        engine = ShardedEngine(
            workers,
            DeadReckoningProvider(seed=0),
            ServeConfig(),
            assign_fn=ppi_assign,
            candidate_assign_fn=component_candidate_assign(ppi_assign),
            dist=DistConfig(backend="shard_server", shards=2),
        )
        try:
            assert isinstance(engine.backend, ShardServerBackend)
            assert len(engine.backend.handles) == 2
        finally:
            engine.close()

    def test_distconfig_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            DistConfig(backend="threads")


def scenario(seed, n_workers=30, n_tasks=60, t_end=60.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


def run_reference(tasks, workers, seed, **config_kwargs):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(use_index=True, **config_kwargs),
        assign_fn=ppi_assign,
        candidate_assign_fn=ppi_assign,
    )
    return engine.run(tasks, 0.0, 60.0)


def run_with_servers(tasks, workers, seed, shards, warm_start=False, provider=None, **kw):
    engine = ShardedEngine(
        workers,
        provider if provider is not None else DeadReckoningProvider(seed=seed),
        ServeConfig(**kw),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign(ppi_assign, warm_start=warm_start),
        dist=DistConfig(backend="shard_server", shards=shards, warm_start=warm_start),
    )
    try:
        return engine.run(tasks, 0.0, 60.0), engine
    finally:
        engine.close()


class _CrashingProvider:
    """Wraps a snapshot provider; SIGKILLs one shard server mid-run."""

    def __init__(self, inner, kill_at_call):
        self.inner = inner
        self.kill_at_call = kill_at_call
        self.calls = 0
        self.engine = None
        self.killed = False

    def __call__(self, worker, t):
        self.calls += 1
        if not self.killed and self.calls >= self.kill_at_call and self.engine is not None:
            handle = self.engine.backend.handles[0]
            if handle._proc is not None and handle._proc.is_alive():
                os.kill(handle._proc.pid, signal.SIGKILL)
                self.killed = True
        return self.inner(worker, t)


class TestShardServerEngineParity:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_signature_matches_dense_engine(self, shards):
        tasks, workers = scenario(4)
        ref = result_signature(run_reference(tasks, workers, 4))
        got, engine = run_with_servers(tasks, workers, 4, shards)
        assert result_signature(got) == ref
        assert isinstance(engine.backend, ShardServerBackend)
        assert engine.backend.total_restarts == 0

    def test_with_cache_and_warm_start(self):
        kwargs = dict(cache_ttl=4.0)
        tasks, workers = scenario(6)
        ref = result_signature(run_reference(tasks, workers, 6, **kwargs))
        got, engine = run_with_servers(tasks, workers, 6, shards=2, warm_start=True, **kwargs)
        assert result_signature(got) == ref

    def test_shard_pair_counters_match_serial_backend(self):
        """Every build path publishes ``dist.shard.pairs{shard=S}``, so
        the per-shard table reads the same for shard servers."""
        cfg = StreamConfig(n_workers=30, n_tasks=60, t_end=40.0, seed=7,
                           width_km=24.0, height_km=12.0)
        tasks, workers = make_task_stream(cfg), make_worker_fleet(cfg)

        def pair_counters(backend):
            engine = ShardedEngine(
                workers,
                DeadReckoningProvider(seed=7),
                ServeConfig(),
                assign_fn=ppi_assign,
                candidate_assign_fn=component_candidate_assign(ppi_assign),
                dist=DistConfig(backend=backend, shards=2),
            )
            sink = MemorySink()
            try:
                with obs.recording(sink):
                    engine.run(tasks, 0.0, cfg.t_end)
            finally:
                engine.close()
            totals = [sum(s.pairs_per_shard[i] for s in engine.batch_stats) for i in (0, 1)]
            counters = {
                name: value
                for name, value in sink.metrics["counters"].items()
                if name.startswith("dist.shard.pairs")
            }
            return totals, counters

        serial_totals, serial_counters = pair_counters("serial")
        server_totals, server_counters = pair_counters("shard_server")
        assert serial_totals == server_totals
        assert serial_counters == {
            labelled("dist.shard.pairs", shard=s): float(total)
            for s, total in enumerate(serial_totals)
        }
        assert server_counters == serial_counters

    def test_crash_mid_run_replays_to_dense_signature(self):
        """Kill shard 0's process partway through the stream: the
        respawned server is re-sent the batch's build and the run's
        signature still equals the dense engine's."""
        tasks, workers = scenario(5)
        ref = result_signature(run_reference(tasks, workers, 5))
        provider = _CrashingProvider(DeadReckoningProvider(seed=5), kill_at_call=200)
        engine = ShardedEngine(
            workers,
            provider,
            ServeConfig(),
            assign_fn=ppi_assign,
            candidate_assign_fn=component_candidate_assign(ppi_assign),
            dist=DistConfig(backend="shard_server", shards=3),
        )
        provider.engine = engine
        try:
            got = engine.run(tasks, 0.0, 60.0)
        finally:
            engine.close()
        assert provider.killed, "crash was never injected; raise kill_at_call"
        assert engine.backend.total_restarts >= 1
        assert result_signature(got) == ref
