"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.algorithm == "gttaml"
        assert args.workload == "porto-didi"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--algorithm", "nope"])

    def test_assign_flags(self):
        args = build_parser().parse_args(
            ["assign", "--algorithm", "ub", "--n-tasks", "50", "--detour", "6"]
        )
        assert args.algorithm == "ub"
        assert args.n_tasks == 50
        assert args.detour == 6.0

    def test_serve_sim_flags(self):
        args = build_parser().parse_args(
            ["serve-sim", "--trigger", "adaptive", "--pending-threshold", "20",
             "--use-index", "--cache-ttl", "6", "--max-pending", "100"]
        )
        assert args.trigger == "adaptive"
        assert args.pending_threshold == 20
        assert args.use_index
        assert args.cache_ttl == 6.0
        assert args.max_pending == 100

    def test_serve_sim_rejects_unknown_trigger(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--trigger", "psychic"])


class TestCommands:
    def test_predict_runs(self, capsys):
        code = main([
            "predict", "--algorithm", "maml", "--n-workers", "5",
            "--n-tasks", "20", "--n-train-days", "2", "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE" in out and "MR" in out

    def test_assign_lb_runs_without_training(self, capsys):
        code = main([
            "assign", "--algorithm", "lb", "--n-workers", "5",
            "--n-tasks", "30", "--n-train-days", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completion_ratio" in out

    def test_assign_predictive_runs(self, capsys):
        code = main([
            "assign", "--algorithm", "km", "--n-workers", "5",
            "--n-tasks", "30", "--n-train-days", "2", "--iterations", "2",
        ])
        assert code == 0
        assert "completion_ratio" in capsys.readouterr().out

    def test_gowalla_workload(self, capsys):
        code = main([
            "assign", "--algorithm", "ub", "--workload", "gowalla-foursquare",
            "--n-workers", "5", "--n-tasks", "30", "--n-train-days", "2",
        ])
        assert code == 0

    def test_serve_sim_runs(self, capsys):
        code = main([
            "serve-sim", "--n-workers", "20", "--n-tasks", "40", "--horizon", "30",
            "--use-index", "--cache-ttl", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completion_ratio" in out
        assert "cache_hit_rate" in out

    def test_serve_sim_spool_dir_needs_shard_servers(self, tmp_path):
        with pytest.raises(SystemExit, match="--spool-dir"):
            main([
                "serve-sim", "--n-workers", "10", "--n-tasks", "20", "--horizon", "10",
                "--shards", "2", "--spool-dir", str(tmp_path / "spools"),
            ])
        assert not (tmp_path / "spools").exists()

    def test_serve_sim_warm_start_needs_the_index(self):
        # Without the index one shard runs the dense assign function,
        # which never reads the warm state.
        with pytest.raises(ValueError, match="dist.warm_start"):
            main([
                "serve-sim", "--n-workers", "10", "--n-tasks", "20", "--horizon", "10",
                "--warm-start",
            ])

    def test_serve_sim_json_and_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "serve.trace.jsonl"
        code = main([
            "serve-sim", "--n-workers", "15", "--n-tasks", "30", "--horizon", "20",
            "--algorithm", "km", "--trigger", "adaptive", "--pending-threshold", "5",
            "--json", "--trace", str(trace),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload and "n_batches" in payload["metrics"]
        assert trace.exists()


class TestScenariosParser:
    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_run_flags(self):
        args = build_parser().parse_args([
            "scenarios", "run", "--scenario", "smoke", "--policy", "indexed",
            "--sweep", "scenario.seed=1,2", "--sweep", "policy.cache.ttl=0,6",
            "--out", "sweep-out", "--cell-workers", "3",
        ])
        assert args.scenarios_command == "run"
        assert args.scenario == "smoke" and args.policy == "indexed"
        assert args.sweep == ["scenario.seed=1,2", "policy.cache.ttl=0,6"]
        assert args.cell_workers == 3

    def test_run_shares_serve_policy_flags(self):
        args = build_parser().parse_args([
            "scenarios", "run", "--trigger", "adaptive",
            "--pending-threshold", "20", "--use-index",
        ])
        assert args.trigger == "adaptive"
        assert args.pending_threshold == 20 and args.use_index

    def test_report_takes_out_dir(self):
        args = build_parser().parse_args(["scenarios-report", "some/dir", "--json"])
        assert args.out_dir == "some/dir" and args.json


class TestScenariosCommands:
    def test_list_names_builtins(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "smoke" in out and "adaptive-indexed" in out

    def test_list_json(self, capsys):
        import json

        assert main(["scenarios", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hot_cell_burst" in payload["generators"]
        assert payload["scenarios"]["smoke"]["seed"] == 7
        assert payload["policies"]["indexed"]["index"]["enabled"] is True

    def test_show_resolves_names_to_document(self, capsys):
        import json

        assert main([
            "scenarios", "show", "--scenario", "smoke", "--policy", "indexed",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["generator"] == "uniform"
        assert payload["scenario"]["seed"] == 7
        assert payload["policy"]["index"]["cell_km"] == 2.0

    def test_run_sweep_writes_manifests_and_table(self, capsys, tmp_path):
        import json

        out = tmp_path / "cells"
        assert main([
            "scenarios", "run", "--scenario", "smoke", "--policy", "indexed",
            "--sweep", "scenario.seed=1,2", "--out", str(out), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cells"] == 2
        digests = {c["signature_digest"] for c in payload["cells"]}
        assert len(digests) == 2  # the seed axis changed the outcome
        manifests = sorted(out.glob("cell*.manifest.json"))
        assert len(manifests) == 2

        # scenarios-report rebuilds the identical payload from disk.
        assert main(["scenarios-report", str(out), "--json"]) == 0
        reported = json.loads(capsys.readouterr().out)
        assert {c["signature_digest"] for c in reported["cells"]} == digests

    def test_run_spec_file_round_trips_through_show(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        assert main([
            "scenarios", "show", "--scenario", "smoke", "--policy", "batch-parity",
            "--out", str(spec_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenarios", "run", str(spec_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_cells"] == 1
        assert payload["cells"][0]["metrics"]["completion_ratio"] >= 0.0

    def test_run_rejects_bad_sweep_axis(self, capsys):
        with pytest.raises(ValueError, match="scenario\\."):
            main([
                "scenarios", "run", "--scenario", "smoke",
                "--sweep", "index.enabled=true,false",
            ])
