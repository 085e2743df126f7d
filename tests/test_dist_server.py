"""Long-lived shard servers: state, crash recovery, and engine parity.

The contract under test: a shard server fed incremental deltas holds
exactly the state the coordinator mirrors for it, a crashed server is
rebuilt bit-identically by replaying the JSONL command log, and a
serving run that loses servers mid-stream still reproduces the dense
engine's ``result_signature``.
"""

import os
import signal

import numpy as np
import pytest

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.dist import (
    DistConfig,
    ShardedEngine,
    ShardServerBackend,
    ShardServerError,
    component_candidate_assign,
)
from repro.dist.server import (
    ShardServerHandle,
    decode_snapshot,
    decode_task,
    encode_snapshot,
    encode_task,
)
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
from repro.serve.spatial_index import build_candidates


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


def build_payload(member_ids, t=0.0, cell_km=1.0, horizon=30.0):
    return {
        "t": t,
        "cell_km": cell_km,
        "max_candidates": None,
        "horizon": horizon,
        "member_ids": member_ids,
    }


class TestCodec:
    def test_task_roundtrip(self):
        task = sample_task(7, 3.25, -1.5)
        assert decode_task(encode_task(task)) == task

    def test_snapshot_roundtrip(self):
        snap = sample_snapshot(3)
        back = decode_snapshot(encode_snapshot(snap))
        assert back.worker_id == snap.worker_id
        assert back.current_location == snap.current_location
        np.testing.assert_array_equal(back.predicted_xy, snap.predicted_xy)
        np.testing.assert_array_equal(back.predicted_times, snap.predicted_times)
        assert back.matching_rate == snap.matching_rate


class TestShardServerHandle:
    def test_apply_then_build(self):
        handle = ShardServerHandle(0)
        try:
            assert handle.request("ping") == "pong"
            handle.request("apply", {
                "tasks_add": [encode_task(sample_task(0))],
                "snaps_add": [encode_snapshot(sample_snapshot(0))],
            })
            graph = handle.request("build", build_payload([0]))
            expected = build_candidates(
                [sample_task(0)], [sample_snapshot(0)], 0.0, horizon=30.0
            )
            assert graph == expected
        finally:
            handle.close()

    def test_removals_and_reset(self):
        handle = ShardServerHandle(0)
        try:
            state = handle.request("apply", {
                "tasks_add": [encode_task(sample_task(0)), encode_task(sample_task(1))],
                "snaps_add": [encode_snapshot(sample_snapshot(0))],
            })
            assert state == {"n_tasks": 2, "n_snaps": 1}
            state = handle.request("apply", {"tasks_remove": [0]})
            assert state["n_tasks"] == 1
            handle.request("reset")
            assert handle.request("build", build_payload([0])) == {}
        finally:
            handle.close()

    def test_unknown_command_reports_without_dying(self):
        handle = ShardServerHandle(0)
        try:
            with pytest.raises(ShardServerError):
                handle.request("no-such-command")
            assert handle.request("ping") == "pong"
            assert handle.restarts == 0
        finally:
            handle.close()

    def test_crash_respawn_replays_log(self):
        handle = ShardServerHandle(0)
        try:
            handle.request("apply", {
                "tasks_add": [encode_task(sample_task(0))],
                "snaps_add": [encode_snapshot(sample_snapshot(0))],
            })
            before = handle.request("build", build_payload([0]))
            assert before  # non-trivial state to lose
            os.kill(handle._proc.pid, signal.SIGKILL)
            handle._proc.join(timeout=2.0)
            after = handle.request("build", build_payload([0]))
            assert after == before
            assert handle.restarts == 1
        finally:
            handle.close()

    def test_file_log_survives_a_new_handle(self, tmp_path):
        """Durability: a fresh handle on the same log file starts its
        server from the logged state without any new applies."""
        log = str(tmp_path / "shard-0.jsonl")
        first = ShardServerHandle(0, log_path=log)
        try:
            first.request("apply", {
                "tasks_add": [encode_task(sample_task(0))],
                "snaps_add": [encode_snapshot(sample_snapshot(0))],
            })
            expected = first.request("build", build_payload([0]))
        finally:
            first.close()
        second = ShardServerHandle(0, log_path=log)
        try:
            assert second.log_length == 1
            assert second.request("build", build_payload([0])) == expected
        finally:
            second.close()


    def test_file_log_survives_a_truncated_tail(self, tmp_path):
        """A coordinator killed mid-append leaves half a line: a command
        logged but never sent.  The next handle skips it with a warning,
        replays the intact commands, and commands it logs afterwards
        survive the restart after that."""
        log = tmp_path / "shard-0.jsonl"
        first = ShardServerHandle(0, log_path=str(log))
        try:
            first.request("reset")
            first.request("apply", {
                "tasks_add": [encode_task(sample_task(0))],
                "snaps_add": [encode_snapshot(sample_snapshot(0))],
            })
            expected = first.request("build", build_payload([0]))
        finally:
            first.close()
        with log.open("a") as fh:
            fh.write('{"command": "apply", "payload": {"tasks_add": [{"task_')
        with pytest.warns(UserWarning, match="truncated"):
            second = ShardServerHandle(0, log_path=str(log))
        try:
            assert second.log_length == 2
            second.ensure_running()
            assert second.request("build", build_payload([0])) == expected
            second.request("apply", {"tasks_add": [encode_task(sample_task(1, 1.2, 1.4))]})
            expected_after = second.request("build", build_payload([0]))
        finally:
            second.close()
        assert expected_after != expected
        with pytest.warns(UserWarning, match="truncated"):
            third = ShardServerHandle(0, log_path=str(log))
        try:
            assert third.log_length == 3
            assert third.request("build", build_payload([0])) == expected_after
        finally:
            third.close()


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
        # The delta path must actually skip re-shipping cached tracks.
        shipped = sum(len(m) for m in engine._server_preds)
        assert shipped > 0

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
        respawned server replays its JSONL log and the run's signature
        still equals the dense engine's."""
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
