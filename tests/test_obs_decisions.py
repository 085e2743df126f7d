"""Decision provenance: parity, reconciliation, tolerant reading, consumers.

The contract under test (see ``docs/OBSERVABILITY.md``, "Decision
provenance & SLOs"):

* ``ServeConfig.decisions=None`` leaves the engine's observable outcome
  **bit-identical** to a run that never heard of decision logging;
* with a log, every task gets exactly one terminal record whose counts
  reconcile exactly with the run result, single-shard and sharded alike
  (sharded engines write the same single log, with a ``shard`` field);
* readers tolerate truncated tails, out-of-order records, and
  crash-replay duplicates — warning, never double-counting;
* ``diff_decisions`` attributes 100% of the completion delta between
  two runs to reason-code transitions, by construction.
"""

import json
import warnings
from collections import Counter

import pytest

from repro.assignment.ppi import ppi_assign
from repro.cli import main as cli_main
from repro.obs import RunManifest
from repro.obs.decisions import (
    ABSENT,
    DecisionConfig,
    DecisionLog,
    decision_records,
    diff_decisions,
    explain_task,
    find_decision_log,
    read_decisions,
    reconcile,
    render_explain,
    render_run_diff,
)
from repro.obs.sinks import JsonlSink
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)

#: Full reason taxonomy a record may carry.
REASONS = {
    "completed",
    "shed:queue_full",
    "shed:deadline_slack",
    "cancelled:requester",
    "cancelled:window_closed",
    "expired:dead_on_arrival",
    "expired:deadline",
    "expired:horizon",
}


def seeded_scenario(seed=0, n_workers=20, n_tasks=40, t_end=40.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


def run_engine(tasks, workers, seed=0, t_end=40.0, **config):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(**config),
        assign_fn=ppi_assign,
        candidate_assign_fn=ppi_assign,
    )
    return engine.run(tasks, 0.0, t_end)


class TestNoOpContract:
    def test_logged_run_is_bit_identical(self, tmp_path):
        tasks, workers = seeded_scenario()
        plain = run_engine(tasks, workers, use_index=True, cache_ttl=5.0)
        log_path = tmp_path / "run.decisions.jsonl"
        logged = run_engine(
            tasks,
            workers,
            use_index=True,
            cache_ttl=5.0,
            decisions=DecisionConfig(path=str(log_path)),
        )
        assert result_signature(logged) == result_signature(plain)
        assert plain.n_decisions == 0
        assert logged.n_decisions == len(tasks)
        assert log_path.exists()

    def test_every_task_logged_exactly_once(self, tmp_path):
        tasks, workers = seeded_scenario(seed=3)
        log_path = tmp_path / "run.decisions.jsonl"
        run_engine(
            tasks, workers, max_pending=8, decisions=DecisionConfig(path=str(log_path))
        )
        records = read_decisions(log_path)
        assert sorted(r["task"] for r in records) == sorted(t.task_id for t in tasks)
        assert all(r["reason"] in REASONS for r in records)

    def test_reconciles_with_result(self, tmp_path):
        tasks, workers = seeded_scenario(seed=1)
        log_path = tmp_path / "run.decisions.jsonl"
        result = run_engine(
            tasks, workers, max_pending=6, decisions=DecisionConfig(path=str(log_path))
        )
        check = reconcile(read_decisions(log_path), result)
        assert check["ok"], check
        assert check["observed"]["completed"] == result.n_completed
        assert check["observed"]["shed"] == result.n_shed


def write_log(path, records):
    """A decision log on disk: the header, then ``records`` in order."""
    sink = JsonlSink(path)
    sink.emit({"type": "decisions_start"})
    for rec in records:
        sink.emit(rec)
    sink.close()


class TestTolerantReading:
    def _records(self):
        return [
            {"type": "decision", "task": i, "terminal": "completed",
             "reason": "completed", "t": float(i)}
            for i in range(4)
        ]

    def test_truncated_final_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_log(path, self._records())
        raw = path.read_bytes()
        path.write_bytes(raw[:-15])  # chop into the final JSON line
        with pytest.warns(UserWarning, match="truncated"):
            records = read_decisions(path)
        assert [r["task"] for r in records] == [0, 1, 2]

    def test_crash_replay_duplicates_warn_without_double_counting(self, tmp_path):
        path = tmp_path / "d.jsonl"
        records = self._records()
        # A replayed coordinator re-appends its tail with a newer state.
        replayed = dict(records[-1], reason="expired:horizon", terminal="expired")
        write_log(path, records + [replayed])
        with pytest.warns(UserWarning, match="duplicate"):
            loaded = read_decisions(path)
        assert len(loaded) == len(records)
        assert Counter(r["terminal"] for r in loaded) == {"completed": 3, "expired": 1}
        # Last copy wins.
        assert loaded[-1]["reason"] == "expired:horizon"

    def test_out_of_order_records_come_back_sorted(self, tmp_path):
        """A sharded log is in terminal order, not task order; readers
        sort by task id and collapse a replayed duplicate."""
        path = tmp_path / "d.jsonl"
        records = self._records()
        write_log(path, [records[2], records[0], records[3], records[1], dict(records[0])])
        with pytest.warns(UserWarning, match="duplicate"):
            loaded = read_decisions(path)
        assert [r["task"] for r in loaded] == [0, 1, 2, 3]

    def test_non_decision_records_ignored(self):
        mixed = [{"type": "decisions_start"}, *self._records(), {"type": "noise"}]
        assert len(decision_records(mixed)) == 4


class TestExplain:
    def test_explain_renders_the_path(self, tmp_path):
        tasks, workers = seeded_scenario(seed=2)
        log_path = tmp_path / "run.decisions.jsonl"
        result = run_engine(
            tasks,
            workers,
            use_index=True,
            decisions=DecisionConfig(path=str(log_path)),
        )
        records = read_decisions(log_path)
        done = next(r for r in records if r["terminal"] == "completed")
        text = render_explain(explain_task(records, done["task"]))
        assert f"task {done['task']}" in text
        assert f"assigned to worker {done['worker']}" in text
        assert "terminal: completed" in text
        assert result.n_completed > 0

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            explain_task([], 99)


class TestDiff:
    def test_attributes_full_completion_delta(self, tmp_path):
        tasks, workers = seeded_scenario(seed=4, n_tasks=60)
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ra = run_engine(
            tasks, workers, max_pending=4, decisions=DecisionConfig(path=str(a_path))
        )
        rb = run_engine(
            tasks, workers, max_pending=None, decisions=DecisionConfig(path=str(b_path))
        )
        diff = diff_decisions(read_decisions(a_path), read_decisions(b_path))
        assert diff["delta_completed"] == rb.n_completed - ra.n_completed
        assert diff["attributed_delta"] == diff["delta_completed"]
        assert sum(r["count"] for r in diff["transitions"]) == len(tasks)
        text = render_run_diff(diff, label_a="tight", label_b="loose")
        assert "tight → loose" in text

    def test_one_sided_tasks_land_in_absent_bucket(self):
        a = [{"task": 1, "terminal": "completed", "reason": "completed"}]
        b = []
        diff = diff_decisions(a, b)
        assert diff["delta_completed"] == -1
        assert diff["attributed_delta"] == -1
        (row,) = diff["transitions"]
        assert (row["from"], row["to"]) == ("completed", ABSENT)


class TestFindLog:
    def _write_run(self, tmp_path):
        log = tmp_path / "run.decisions.jsonl"
        write_log(log, [{"type": "decision", "task": 0,
                         "terminal": "completed", "reason": "completed"}])
        manifest = RunManifest.start(command="t", argv=[], config={}, seed=0)
        path = tmp_path / "run.manifest.json"
        manifest.finalize(metrics={}, artifacts={"decisions": str(log)}).write(path)
        return log, path

    def test_resolves_file_manifest_and_directory(self, tmp_path):
        log, manifest = self._write_run(tmp_path)
        assert find_decision_log(log) == log
        assert find_decision_log(manifest) == log
        assert find_decision_log(tmp_path) == log

    def test_moved_directory_falls_back_to_sibling(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        log, manifest = self._write_run(src)
        moved = tmp_path / "moved"
        src.rename(moved)
        found = find_decision_log(moved / manifest.name)
        assert found == moved / log.name

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_decision_log(tmp_path / "absent.jsonl")
        empty = tmp_path / "emptydir"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            find_decision_log(empty)


class TestShardedLog:
    def test_merged_log_reconciles_and_carries_shards(self, tmp_path):
        """A sharded engine writes one log directly: no per-shard spool
        directory, exact reconciliation, and a shard on every record."""
        from repro.dist import DistConfig, ShardedEngine, component_candidate_assign

        cfg = StreamConfig(n_workers=30, n_tasks=60, t_end=40.0, seed=7,
                           width_km=24.0, height_km=12.0)
        tasks, workers = make_task_stream(cfg), make_worker_fleet(cfg)

        def build(decisions):
            return ShardedEngine(
                workers,
                DeadReckoningProvider(seed=7),
                ServeConfig(decisions=decisions),
                assign_fn=ppi_assign,
                candidate_assign_fn=component_candidate_assign(ppi_assign),
                dist=DistConfig(shards=2),
            )

        plain_engine = build(None)
        try:
            plain = plain_engine.run(tasks, 0.0, cfg.t_end)
        finally:
            plain_engine.close()
        log_path = tmp_path / "sharded.decisions.jsonl"
        engine = build(DecisionConfig(path=str(log_path)))
        try:
            result = engine.run(tasks, 0.0, cfg.t_end)
        finally:
            engine.close()
        assert result_signature(result) == result_signature(plain)
        records = read_decisions(log_path)
        assert not (tmp_path / "sharded.decisions.jsonl.shards").exists()
        assert reconcile(records, result)["ok"]
        assert {r["shard"] for r in records} >= {0, 1}

    def test_arrival_terminals_carry_owning_stripe(self):
        """Shed-on-arrival and dead-on-arrival records are written while
        the arrival is dispatched; each one after the first batch names
        the stripe that owned its task's column at that time."""
        import math

        from repro.dist import DistConfig, ShardedEngine, component_candidate_assign

        cfg = StreamConfig(n_workers=20, n_tasks=150, t_end=40.0, seed=3,
                           width_km=24.0, height_km=12.0)
        tasks, workers = make_task_stream(cfg), make_worker_fleet(cfg)
        layouts = []  # (batch time, stripe specs) after each build

        class Recording(ShardedEngine):
            def _build_candidates(self, batch_tasks, snapshots, t):
                graph = super()._build_candidates(batch_tasks, snapshots, t)
                layouts.append((t, list(self._layout.specs) if self._layout else []))
                return graph

        engine = Recording(
            workers,
            DeadReckoningProvider(seed=3),
            ServeConfig(max_pending=3, decisions=DecisionConfig()),
            assign_fn=ppi_assign,
            candidate_assign_fn=component_candidate_assign(ppi_assign),
            dist=DistConfig(shards=3),
        )
        try:
            engine.run(tasks, 5.0, cfg.t_end)
        finally:
            engine.close()
        by_id = {task.task_id: task for task in tasks}
        arrival_reasons = ("shed:queue_full", "expired:dead_on_arrival")
        checked = 0
        for rec in engine.decision_log.records:
            if rec["reason"] not in arrival_reasons:
                continue
            earlier = [specs for t, specs in layouts if t < rec["t"] and specs]
            if not earlier:
                continue
            task = by_id[rec["task"]]
            col = math.floor(task.location.x / engine.config.index_cell_km)
            owners = [spec.shard_id for spec in earlier[-1] if spec.owns_column(col)]
            if owners:
                assert rec["shard"] == owners[0]
                checked += 1
        assert checked > 0


class TestRegistrySweepDiff:
    def test_sweep_cells_diff_attributes_everything(self, tmp_path):
        """The acceptance check: two registry cells' logs join exactly."""
        from repro.scenarios import (
            decision_diff_tables,
            get_policy,
            get_scenario,
            RunSpec,
            run_sweep,
        )

        spec = RunSpec(
            scenario=get_scenario("smoke"),
            policy=get_policy("indexed"),
            name="diff-smoke",
            sweep={"policy.shedding.max_pending": [4, 40]},
        )
        rows = run_sweep(spec, out_dir=tmp_path, decisions=True)
        assert all(r["decisions"] for r in rows)
        logs = [read_decisions(r["decisions"]) for r in rows]
        diff = diff_decisions(*logs)
        delta = (rows[1]["metrics"]["completion_ratio"]
                 - rows[0]["metrics"]["completion_ratio"])
        assert diff["attributed_delta"] == diff["delta_completed"]
        assert diff["delta_completed"] == round(delta * diff["n_a"])
        tables = decision_diff_tables(rows, out_dir=tmp_path)
        assert tables is not None and "run diff" in tables


class TestCli:
    def _run_with_log(self, tmp_path):
        log = tmp_path / "run.decisions.jsonl"
        cli_main([
            "serve-sim", "--n-workers", "10", "--n-tasks", "20",
            "--horizon", "15", "--decisions", str(log),
            "--trace", str(tmp_path / "run.trace.jsonl"),
        ])
        return log

    def test_serve_sim_records_log_and_artifact(self, tmp_path, capsys):
        log = self._run_with_log(tmp_path)
        capsys.readouterr()
        assert log.exists()
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["artifacts"]["decisions"] == str(log)

    def test_explain_and_run_diff_commands(self, tmp_path, capsys):
        log = self._run_with_log(tmp_path)
        task = read_decisions(log)[0]["task"]
        capsys.readouterr()
        assert cli_main(["explain", str(log), "--task", str(task)]) == 0
        assert f"task {task}" in capsys.readouterr().out
        assert cli_main(["run-diff", str(log), str(log), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_completed"] == 0
        assert payload["attributed_delta"] == 0

    def test_explain_missing_task_exits_cleanly(self, tmp_path, capsys):
        log = self._run_with_log(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no record"):
            cli_main(["explain", str(log), "--task", "999999"])

    def test_scenarios_report_missing_dir_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no sweep directory"):
            cli_main(["scenarios-report", str(tmp_path / "never-ran")])


class TestDecisionLogUnit:
    def test_close_is_idempotent(self, tmp_path):
        log = DecisionLog(DecisionConfig(path=str(tmp_path / "d.jsonl")))
        log.close()
        log.close()

    def test_terminal_counts(self):
        log = DecisionLog()
        counts = log.terminal_counts()
        assert counts == {}


def final_sample(series_path):
    from repro.obs.sinks import read_jsonl

    return [r for r in read_jsonl(series_path) if r["type"] == "sample"][-1]


def family_total(counters, base):
    return sum(v for name, v in counters.items() if name.startswith(base + "{"))


class TestLifecycleLedgers:
    """Every lost task reaches the result, the ``serve.*`` counters and
    the decision log through one path, so the three ledgers agree."""

    @pytest.mark.parametrize(
        "scenario", ["smoke", "hot-cell-burst", "rush-hour", "worker-churn"]
    )
    def test_final_counters_conserve_tasks(self, scenario, tmp_path):
        from repro.obs.monitor import MonitorConfig
        from repro.scenarios import PolicySpec, get_scenario, materialize
        from repro.scenarios.builders import build_engine

        data = materialize(get_scenario(scenario))
        policy = PolicySpec.from_dict(
            {
                "trigger": {"kind": "adaptive", "pending_threshold": 50},
                "shedding": {"max_pending": 30},
                "cache": {"ttl": 6.0},
                "index": {"enabled": True, "cell_km": 2.0},
            }
        )
        series = tmp_path / "run.series.jsonl"
        engine = build_engine(
            data.workers,
            data.provider,
            policy,
            monitor=MonitorConfig(cadence=5.0, series_path=str(series)),
            decisions=DecisionConfig(),
        )
        result = engine.run(data.tasks, data.t_start, data.t_end)
        counters = final_sample(series)["counters"]
        get = lambda name: counters.get(name, 0.0)

        assert result.n_shed > 0 and result.n_expired > 0
        assert get("serve.accepted") == result.n_completed
        assert get("serve.expired") + get("serve.cancelled") == result.n_expired
        assert get("serve.shed.tasks") == result.n_shed
        assert family_total(counters, "serve.task.expired") == get("serve.expired")
        assert family_total(counters, "serve.shed.tasks") == get("serve.shed.tasks")
        by_terminal = {
            "completed": get("serve.accepted"),
            "expired": get("serve.expired"),
            "cancelled": get("serve.cancelled"),
            "shed": get("serve.shed.tasks"),
        }
        assert {k: v for k, v in by_terminal.items() if v} == (
            engine.decision_log.terminal_counts()
        )


class TestWarmTier:
    def test_tier_is_each_batch_worst_solve(self, monkeypatch):
        """The tier recorded on a batch's accepted offers is the worst
        tier of that batch's own solves — eviction rounds (every
        ``keep_rounds``-th batch) included."""
        import functools

        from repro.dist import component_candidate_assign, shard

        solve = shard.maximum_weight_matching
        tiers: list[str] = []  # this batch's solve tiers

        def spy(edges, warm=None):
            before = (warm.cold_solves, warm.warm_solves)
            out = solve(edges, warm=warm)
            if warm.cold_solves > before[0]:
                tiers.append("cold")
            elif warm.warm_solves > before[1]:
                tiers.append("warm")
            else:
                tiers.append("identical")
            return out

        monkeypatch.setattr(shard, "maximum_weight_matching", spy)
        decomposed = component_candidate_assign(ppi_assign, warm_start=True)
        worst: dict[float, str | None] = {}

        @functools.wraps(decomposed)
        def assign(tasks, snapshots, t, candidates):
            tiers.clear()
            plan = decomposed(tasks, snapshots, t, candidates)
            worst[t] = next((k for k in ("cold", "warm", "identical") if k in tiers), None)
            return plan

        # A sparse 45 km city: many small components, so eviction rounds
        # drop states that carried solve counts.
        cfg = StreamConfig(n_workers=200, n_tasks=400, t_end=60.0, seed=1,
                           width_km=45.0, height_km=45.0)
        tasks, workers = make_task_stream(cfg), make_worker_fleet(cfg)
        engine = ServeEngine(
            workers,
            DeadReckoningProvider(seed=1),
            ServeConfig(batch_window=1.0, use_index=True, decisions=DecisionConfig()),
            assign_fn=ppi_assign,
            candidate_assign_fn=assign,
        )
        engine.run(tasks, 0.0, 60.0)
        assert len(worst) >= 16
        completed = [r for r in engine.decision_log.records if r["terminal"] == "completed"]
        eviction_rounds = list(worst)[15::8]  # worst is filled in round order
        assert {r["assigned_t"] for r in completed} & set(eviction_rounds)
        for rec in completed:
            assert rec["warm_tier"] == worst[rec["assigned_t"]], rec["assigned_t"]
