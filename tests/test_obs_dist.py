"""Distributed observability: context, spools, merge, and attribution.

The contract under test (``repro.obs.dist``): a traced sharded run
spools per-process telemetry that merges into *one* timeline — worker
command spans parented under the coordinator spans that issued them —
while the untraced path stays byte-identical (3-tuple command frames,
unchanged ``result_signature``).  Edge cases ride along: truncated and
empty spools, clock skew, and the fresh spool of a server respawned
after a crash.
"""

import json
import os
import signal

import pytest

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.dist import DistConfig, ShardedEngine, component_candidate_assign
from repro.obs import MemorySink
from repro.obs.dist import (
    CMD_SPAN_PREFIX,
    ROUND_SPAN,
    SOLVE_SPAN,
    align_spool,
    attribute_rounds,
    clock_offset,
    current_context,
    list_spools,
    merge_spools,
    render_distributed_report,
)
from repro.obs.metrics import labelled, split_labels
from repro.obs.openmetrics import render_openmetrics
from repro.obs.report import aggregate
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)


def scenario(seed, n_workers=30, n_tasks=60, t_end=60.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


def run_reference(tasks, workers, seed):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign(ppi_assign),
    )
    return engine.run(tasks, 0.0, 60.0)


def run_sharded(tasks, workers, seed, shards=2, spool_dir=None, provider=None,
                backend="shard_server", record=False, t_end=60.0):
    engine = ShardedEngine(
        workers,
        provider if provider is not None else DeadReckoningProvider(seed=seed),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign(ppi_assign),
        dist=DistConfig(backend=backend, shards=shards,
                        spool_dir=None if spool_dir is None else str(spool_dir)),
    )
    if provider is not None and hasattr(provider, "engine"):
        provider.engine = engine
    sink = MemorySink()
    try:
        if record:
            with obs.recording(sink):
                result = engine.run(tasks, 0.0, t_end)
        else:
            result = engine.run(tasks, 0.0, t_end)
    finally:
        engine.close()
    return result, engine, sink.records


# ----------------------------------------------------------------------
# label-style metric names
# ----------------------------------------------------------------------
class TestLabelledNames:
    def test_roundtrip(self):
        name = labelled("dist.shard.pairs", shard=3)
        assert name == "dist.shard.pairs{shard=3}"
        assert split_labels(name) == ("dist.shard.pairs", {"shard": "3"})

    def test_labels_sorted(self):
        assert labelled("m", b=1, a=2) == "m{a=2,b=1}"

    def test_unlabelled_passthrough(self):
        assert split_labels("serve.queue.pending") == ("serve.queue.pending", {})

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            labelled("m", shard="a,b")
        with pytest.raises(ValueError):
            labelled("m{x}", shard=1)

    def test_openmetrics_groups_label_families(self):
        snapshot = {
            "counters": {
                labelled("dist.shard.pairs", shard=0): 5.0,
                labelled("dist.shard.pairs", shard=1): 7.0,
            },
            "gauges": {labelled("dist.shard.busy_s", shard=1): 0.25},
            "histograms": {},
        }
        text = render_openmetrics(snapshot)
        # One family declaration, one labelled series per shard.
        assert text.count("# TYPE repro_dist_shard_pairs counter") == 1
        assert 'repro_dist_shard_pairs_total{shard="0"} 5' in text
        assert 'repro_dist_shard_pairs_total{shard="1"} 7' in text
        assert 'repro_dist_shard_busy_s{shard="1"} 0.25' in text


# ----------------------------------------------------------------------
# context propagation
# ----------------------------------------------------------------------
class TestCurrentContext:
    def test_none_without_recorder(self):
        assert current_context() is None

    def test_carries_trace_and_innermost_span(self):
        with obs.recording(MemorySink()) as rec:
            assert current_context()["parent"] is None
            with obs.span("outer"), obs.span("inner") as inner:
                ctx = current_context()
                assert ctx["trace"] == rec.trace_id
                assert ctx["parent"] == inner.span_id
                assert set(ctx) == {"trace", "parent", "sent_unix"}


# ----------------------------------------------------------------------
# end-to-end: sharded run -> spools -> one merged timeline
# ----------------------------------------------------------------------
class TestMergedTimeline:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        spool_dir = tmp_path_factory.mktemp("spools")
        # A square dense extent so the sticky stripe layout gives every
        # shard members (and thus candidate builds) from round one.
        stream = StreamConfig(n_workers=40, n_tasks=80, t_end=30.0,
                              width_km=20.0, height_km=20.0, seed=1)
        tasks, workers = make_task_stream(stream), make_worker_fleet(stream)
        result, engine, records = run_sharded(
            tasks, workers, 1, shards=2, spool_dir=spool_dir, record=True, t_end=30.0
        )
        merged = merge_spools(records, spool_dir)
        return result, engine, records, merged, spool_dir

    def test_one_spool_per_shard(self, traced_run):
        *_, spool_dir = traced_run
        spools = list_spools(spool_dir)
        assert len(spools) == 2
        assert {p.name.split("-")[1] for p in spools} == {"shard0", "shard1"}

    def test_worker_spans_parent_under_coordinator_spans(self, traced_run):
        _, _, records, merged, _ = traced_run
        coordinator_ids = {r["span_id"] for r in records if r.get("type") == "span"}
        solve_ids = {r["span_id"] for r in records
                     if r.get("type") == "span" and r["name"] == SOLVE_SPAN}
        worker = [r for r in merged if r.get("type") == "span" and "process" in r]
        assert worker, "no worker spans made it into the merge"
        # Every shard process contributed spans to the timeline.
        assert {r["process"].split("-")[0] for r in worker} == {"shard0", "shard1"}
        top = [r for r in worker if str(r["name"]).startswith(CMD_SPAN_PREFIX)]
        assert top and all(r["parent_id"] in coordinator_ids for r in top)
        # Candidate builds specifically land inside the solve window.
        builds = [r for r in top if r["name"] == CMD_SPAN_PREFIX + "build"]
        assert builds and all(r["parent_id"] in solve_ids for r in builds)

    def test_aggregate_consumes_merged_timeline(self, traced_run):
        _, _, _, merged, _ = traced_run
        report = aggregate(merged)
        paths = set(report.stats)
        assert any(p[-1].startswith(CMD_SPAN_PREFIX) and ROUND_SPAN in p for p in paths)

    def test_rounds_attributed_with_stragglers(self, traced_run):
        result, _, _, merged, _ = traced_run
        rounds = attribute_rounds(merged)
        assert len(rounds) == result.n_batches
        busy_rounds = [a for a in rounds if a.shard_busy_s]
        assert busy_rounds, "no round collected worker busy time"
        for att in busy_rounds:
            assert att.straggler in (0, 1)
            assert att.critical_busy_s <= att.solve_s + 0.05
            assert att.ipc_wait_s(att.straggler) >= 0.0

    def test_report_renders_rounds_and_critical_path(self, traced_run):
        _, _, _, merged, _ = traced_run
        text = render_distributed_report(merged)
        assert "per-shard totals" in text
        assert "critical path" in text
        assert "straggler" in text

    def test_labelled_shard_metrics_without_dotted_aliases(self, traced_run):
        _, _, records, *_ = traced_run
        metrics = next(r for r in records if r.get("type") == "metrics")
        counters, gauges = metrics["counters"], metrics["gauges"]
        assert labelled("dist.shard.pairs", shard=0) in counters
        assert not any(name.startswith("dist.shard.0.") for name in counters)
        assert labelled("dist.shard.busy_s", shard=0) in gauges
        assert "dist.shard.straggler" in gauges

    def test_flush_queues_behind_the_builds(self, tmp_path, monkeypatch):
        """One send pass per round carries the builds, then one
        ``obs_flush`` per server; every round attributes a straggler."""
        import repro.dist.serve as dist_serve

        sent: list[list[str]] = []
        real = dist_serve.scatter_send

        def spy(handles, calls):
            sent.append([command for command, _ in calls])
            return real(handles, calls)

        monkeypatch.setattr(dist_serve, "scatter_send", spy)
        stream = StreamConfig(n_workers=40, n_tasks=80, t_end=30.0,
                              width_km=20.0, height_km=20.0, seed=1)
        tasks, workers = make_task_stream(stream), make_worker_fleet(stream)
        result, _, records = run_sharded(
            tasks, workers, 1, shards=2, spool_dir=tmp_path, record=True, t_end=30.0
        )
        assert sent
        for commands in sent:
            n_builds = len(commands) - 2
            assert 1 <= n_builds <= 2
            assert commands == ["build"] * n_builds + ["obs_flush"] * 2
        metrics = next(r for r in records if r.get("type") == "metrics")
        rounds = sum(
            value for name, value in metrics["counters"].items()
            if split_labels(name)[0] == "dist.shard.straggler_rounds"
        )
        assert rounds == len(sent)
        # Untraced, the same engine sends builds only.
        sent.clear()
        run_sharded(tasks, workers, 1, shards=2, spool_dir=tmp_path, t_end=30.0)
        assert sent and all(set(commands) == {"build"} for commands in sent)

    def test_rerun_into_same_spool_dir_merges_only_its_own_spools(self, tmp_path):
        """A second traced run into the same spool directory leaves the
        first run's spools in place; merging the second run's trace
        must skip them, so every solve parents one build per shard."""
        stream = StreamConfig(n_workers=40, n_tasks=80, t_end=30.0,
                              width_km=20.0, height_km=20.0, seed=1)
        tasks, workers = make_task_stream(stream), make_worker_fleet(stream)
        for _ in range(2):
            result, _, records = run_sharded(
                tasks, workers, 1, shards=2, spool_dir=tmp_path, record=True, t_end=30.0
            )
        assert len(list_spools(tmp_path)) == 4
        with pytest.warns(UserWarning, match="another trace"):
            merged = merge_spools(records, tmp_path)
        solve_ids = {r["span_id"] for r in records
                     if r.get("type") == "span" and r["name"] == SOLVE_SPAN}
        per_solve = dict.fromkeys(solve_ids, 0)
        for r in merged:
            if r.get("type") == "span" and r["name"] == CMD_SPAN_PREFIX + "build":
                per_solve[r["parent_id"]] += 1
        assert per_solve and max(per_solve.values()) <= 2
        assert len(attribute_rounds(merged)) == result.n_batches

    def test_spools_are_valid_jsonl_with_header(self, traced_run):
        *_, spool_dir = traced_run
        for path in list_spools(spool_dir):
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            assert lines[0]["type"] == "spool_start"
            assert lines[0]["role"] == "shard"
            assert any(r.get("type") == "span" for r in lines)


# ----------------------------------------------------------------------
# disabled-path parity
# ----------------------------------------------------------------------
class TestDisabledPathParity:
    def test_signature_identical_with_and_without_obs(self, tmp_path):
        tasks, workers = scenario(6)
        ref = result_signature(run_reference(tasks, workers, 6))
        plain, *_ = run_sharded(tasks, workers, 6)
        traced, *_ = run_sharded(tasks, workers, 6, spool_dir=tmp_path, record=True)
        assert result_signature(plain) == ref
        assert result_signature(traced) == ref

    def test_untraced_frames_stay_three_tuples(self):
        """Without a recorder no context is appended — the wire format
        (and thus signatures) is bit-identical."""
        import numpy as np

        from repro.dist.server import BuildRequest, ShardServerHandle
        from repro.serve.spatial_index import PredictedPoints

        class _Tap:
            def __init__(self, conn):
                self.conn, self.sent = conn, []

            def send(self, frame):
                self.sent.append(frame)
                self.conn.send(frame)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        handle = ShardServerHandle(0)
        try:
            assert handle.request("ping") == "pong"  # spawn the server
            tap = handle._conn = _Tap(handle._conn)
            assert handle.request("ping") == "pong"
            empty = BuildRequest(
                np.zeros(0, dtype=int), np.zeros((0, 2)),
                PredictedPoints(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0)),
                np.zeros(0, dtype=int), 1.0, None,
            )
            assert handle.request("build", empty) == {}
            handle._conn = tap.conn
        finally:
            handle.close()
        assert tap.sent and all(len(frame) == 3 for frame in tap.sent)

    def test_config_validation(self):
        # Only shard servers spool, so the serial backend rejects a spool dir.
        with pytest.raises(ValueError, match="spool_dir"):
            DistConfig(backend="serial", spool_dir="x")
        assert DistConfig().spool_dir is None
        assert DistConfig(backend="shard_server", spool_dir="x").spool_dir == "x"


# ----------------------------------------------------------------------
# merge edge cases
# ----------------------------------------------------------------------
def spool_span(span_id, name="dist.cmd.build", parent=None, remote_parent=None,
               start=100.0, dur=0.5, sent=None, recv=None, **attrs):
    record_attrs = dict(attrs)
    if remote_parent is not None:
        record_attrs["remote_parent"] = remote_parent
    if sent is not None:
        record_attrs["sent_unix"] = sent
    if recv is not None:
        record_attrs["recv_unix"] = recv
    return {
        "type": "span", "name": name, "span_id": span_id, "parent_id": parent,
        "depth": 0 if parent is None else 1, "start_unix": start,
        "duration_s": dur, "attrs": record_attrs, "error": None,
    }


class TestMergeEdgeCases:
    def test_truncated_spool_tail_is_skipped(self, tmp_path):
        path = tmp_path / "spool-shard0-1.jsonl"
        good = spool_span(1, remote_parent=9, shard=0)
        path.write_text(
            json.dumps({"type": "spool_start", "pid": 1, "role": "shard",
                        "ident": 0, "trace_id": "t", "start_unix": 100.0})
            + "\n" + json.dumps(good) + "\n"
            + json.dumps(spool_span(2))[:25]  # killed mid-write
        )
        with pytest.warns(UserWarning):
            merged = merge_spools([], tmp_path)
        spans = [r for r in merged if r.get("type") == "span"]
        assert len(spans) == 1
        assert spans[0]["span_id"] == "shard0-1:1"
        assert spans[0]["parent_id"] == 9

    def test_spools_of_another_trace_are_skipped(self, tmp_path):
        for name, trace_id in (("spool-shard0-1.jsonl", "old"), ("spool-shard0-2.jsonl", "new")):
            header = {"type": "spool_start", "pid": 1, "role": "shard", "ident": 0,
                      "trace_id": trace_id, "start_unix": 100.0}
            span = spool_span(1, remote_parent=1, shard=0)
            (tmp_path / name).write_text(json.dumps(header) + "\n" + json.dumps(span) + "\n")
        coordinator = [{"type": "trace_start", "trace_id": "new", "start_unix": 100.0}]
        with pytest.warns(UserWarning, match="spool-shard0-1.jsonl"):
            merged = merge_spools(coordinator, tmp_path)
        spans = [r for r in merged if r.get("type") == "span"]
        assert [r["span_id"] for r in spans] == ["shard0-2:1"]
        # A trace that names no id keeps merging every spool.
        spans = [r for r in merge_spools([], tmp_path) if r.get("type") == "span"]
        assert len(spans) == 2

    def test_empty_spool_merges_to_nothing(self, tmp_path):
        (tmp_path / "spool-shard1-2.jsonl").write_text("")
        assert merge_spools([], tmp_path) == []

    def test_clock_skew_aligned_by_min_one_way_delta(self):
        # Worker clock runs 10s ahead; pipe latencies 0.01s and 0.3s.
        records = [
            spool_span(1, start=110.01, sent=100.0, recv=110.01, shard=0),
            spool_span(2, start=135.30, sent=125.0, recv=135.30, shard=0),
        ]
        assert clock_offset(records) == pytest.approx(10.01)
        aligned = align_spool(records, source="shard0-1")
        starts = [r["start_unix"] for r in aligned]
        assert starts[0] == pytest.approx(100.0)  # lands on coordinator clock
        assert starts[1] == pytest.approx(125.29)

    def test_local_hierarchy_survives_namespacing(self):
        records = [
            spool_span(1, remote_parent=42),
            spool_span(2, name="inner.work", parent=1),
        ]
        aligned = align_spool(records, source="p9")
        by_id = {r["span_id"]: r for r in aligned}
        assert by_id["p9:1"]["parent_id"] == 42
        assert by_id["p9:2"]["parent_id"] == "p9:1"
        assert "remote_parent" not in by_id["p9:1"]["attrs"]

    def test_worker_metrics_do_not_shadow_coordinator_snapshot(self, tmp_path):
        path = tmp_path / "spool-proc-3.jsonl"
        path.write_text(json.dumps({"type": "metrics", "counters": {"x": 1.0}}) + "\n")
        coordinator = [{"type": "metrics", "counters": {"serve.assigned": 5.0}}]
        merged = merge_spools(coordinator, tmp_path)
        report = aggregate(merged)
        assert report.metrics["counters"] == {"serve.assigned": 5.0}


# ----------------------------------------------------------------------
# crash recovery: a respawned server spools afresh
# ----------------------------------------------------------------------
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


class TestCrashTelemetry:
    def test_respawned_server_spools_into_the_same_timeline(self, tmp_path):
        tasks, workers = scenario(5)
        ref = result_signature(run_reference(tasks, workers, 5))
        provider = _CrashingProvider(DeadReckoningProvider(seed=5), kill_at_call=200)
        result, engine, records = run_sharded(
            tasks, workers, 5, shards=3, spool_dir=tmp_path, provider=provider, record=True
        )
        assert provider.killed, "crash was never injected; raise kill_at_call"
        assert engine.backend.total_restarts >= 1
        assert result_signature(result) == ref
        # The respawned pid opened a fresh spool next to the old one.
        shard0 = [p for p in list_spools(tmp_path) if p.name.startswith("spool-shard0-")]
        assert len(shard0) == 2
        merged = merge_spools(records, tmp_path)
        processes = {r["process"] for r in merged
                     if r.get("type") == "span" and r.get("process", "").startswith("shard0-")}
        assert len(processes) == 2  # both shard-0 processes built inside rounds
        assert len(attribute_rounds(merged)) == result.n_batches
