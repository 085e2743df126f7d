"""Integration tests: the instrumented pipeline under a live recorder.

The hot layers (meta-training, clustering, assignment, the online
loop) carry ``obs`` instrumentation that is inert by default; these
tests install a real recorder around the shipped entry points and
check the span tree and metric names the observability docs promise.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.assignment.hungarian import solve_assignment
from repro.cli import main
from repro.meta.maml import MAMLConfig
from repro.obs import MemorySink, aggregate, read_jsonl, read_manifest
from repro.pipeline.config import AssignmentConfig, PredictionConfig
from repro.pipeline.experiment import run_assignment
from repro.pipeline.training import train_predictor

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from check_regression import attribute_phase, compare  # noqa: E402


class TestAssignmentSpans:
    @pytest.fixture(scope="class")
    def recorded_lb(self, small_workload):
        sink = MemorySink()
        with obs.recording(sink):
            result = run_assignment(small_workload, "lb", AssignmentConfig())
        return sink, result

    def test_run_assignment_span_tree(self, recorded_lb):
        sink, _ = recorded_lb
        report = aggregate(sink.records)
        paths = set(report.stats)
        assert ("experiment.run_assignment",) in paths
        assert ("experiment.run_assignment", "serve.batch") in paths
        assert ("experiment.run_assignment", "serve.batch", "serve.predict") in paths
        assert ("experiment.run_assignment", "serve.batch", "serve.assign") in paths

    def test_run_span_records_outcome(self, recorded_lb):
        sink, result = recorded_lb
        run_span = next(r for r in sink.spans if r["name"] == "experiment.run_assignment")
        assert run_span["attrs"]["algorithm"] == "lb"
        assert run_span["attrs"]["completed"] == result.n_completed
        assert run_span["attrs"]["rejections"] == result.n_rejections

    def test_platform_counters(self, recorded_lb):
        sink, result = recorded_lb
        counters = sink.metrics["counters"]
        assert counters["serve.assignments"] == result.n_assignments
        assert counters["serve.accepted"] == result.n_completed
        assert counters.get("serve.rejections", 0.0) == result.n_rejections

    def test_prediction_time_split_out(self, recorded_lb):
        # Satellite fix: running_seconds covers snapshot building too,
        # with the prediction share exposed separately.
        _, result = recorded_lb
        assert result.prediction_seconds >= 0.0
        assert result.metrics().running_seconds == pytest.approx(
            result.algorithm_seconds + result.prediction_seconds
        )

    def test_km_solver_metrics(self):
        sink = MemorySink()
        with obs.recording(sink):
            solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        metrics = sink.metrics
        assert metrics["counters"]["km.solves"] == 1.0
        assert metrics["histograms"]["km.matrix_size"]["max"] == 4.0
        assert metrics["histograms"]["km.solve_seconds"]["count"] == 1


class TestTrainingSpans:
    @pytest.fixture(scope="class")
    def recorded_training(self, small_workload, learning_tasks):
        config = PredictionConfig(
            algorithm="gttaml",
            loss="mse",
            hidden_size=8,
            fine_tune_steps=2,
            maml=MAMLConfig(iterations=2, meta_batch=2, inner_steps=2, support_batch=8),
        )
        sink = MemorySink()
        with obs.recording(sink):
            train_predictor(
                learning_tasks, small_workload.city, config, small_workload.historical_tasks_xy
            )
        return sink

    def test_offline_stage_span_tree(self, recorded_training):
        report = aggregate(recorded_training.records)
        names = {stat.path[-1] for stat in report.stats.values()}
        assert {
            "training.offline",
            "training.probe_paths",
            "training.cluster",
            "training.meta_train",
            "training.adapt",
            "gtmc.cluster",
            "taml.train",
            "maml.meta_train",
        } <= names
        # Everything nests under the offline stage root.
        root = report.stats[("training.offline",)]
        assert root.depth == 0 and root.count == 1

    def test_meta_training_metrics(self, recorded_training):
        metrics = recorded_training.metrics
        counters = metrics["counters"]
        assert counters["maml.inner_loop_steps"] > 0
        assert counters["maml.meta_iterations"] > 0
        assert counters["training.workers_adapted"] > 0
        assert metrics["histograms"]["maml.query_loss"]["count"] > 0
        assert metrics["histograms"]["training.worker_mr"]["count"] > 0
        assert metrics["gauges"]["taml.tree_nodes"] >= 1


class TestCliTracing:
    """End-to-end: the acceptance-criteria run of ISSUE 2."""

    @pytest.fixture(scope="class")
    def traced_ppi(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("obs") / "run.trace.jsonl"
        code = main([
            "assign", "--algorithm", "ppi", "--n-workers", "5",
            "--n-tasks", "30", "--n-train-days", "2", "--iterations", "2",
            "--trace", str(trace),
        ])
        assert code == 0
        return trace

    def test_trace_and_manifest_written(self, traced_ppi):
        trace = traced_ppi
        manifest_path = trace.with_name("run.manifest.json")
        assert trace.exists() and manifest_path.exists()
        manifest = read_manifest(manifest_path)
        assert manifest.command == "assign"
        assert "--algorithm" in manifest.argv and "ppi" in manifest.argv
        assert manifest.config["algorithm"] == "ppi"
        assert manifest.seed == 1
        assert manifest.trace_path == str(trace)
        assert "completion_ratio" in manifest.metrics

    def test_trace_covers_the_whole_pipeline(self, traced_ppi):
        report = aggregate(read_jsonl(traced_ppi))
        names = {stat.path[-1] for stat in report.stats.values()}
        assert {
            "training.offline",
            "training.cluster",
            "serve.predict",
            "ppi.stage1",
            "ppi.stage2",
            "ppi.stage3",
        } <= names
        counters = report.metrics["counters"]
        assert {"ppi.stage1.assigned", "ppi.stage2.assigned", "ppi.stage3.assigned"} <= set(
            counters
        )

    def test_trace_report_renders(self, traced_ppi, capsys):
        assert main(["trace-report", str(traced_ppi)]) == 0
        out = capsys.readouterr().out
        for name in ("training.offline", "ppi.stage1", "serve.assign", "km.solves"):
            assert name in out

    def test_trace_report_json(self, traced_ppi, capsys):
        assert main(["trace-report", str(traced_ppi), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_spans"] > 0
        paths = {tuple(s["path"]) for s in payload["spans"]}
        assert any(p[-1] == "ppi.stage1" for p in paths)
        assert "counters" in payload["metrics"]

    def test_assign_json_output(self, capsys):
        code = main([
            "assign", "--algorithm", "lb", "--n-workers", "5",
            "--n-tasks", "20", "--n-train-days", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "lb"
        assert "completion_ratio" in payload["metrics"]
        assert "prediction_seconds" in payload and "algorithm_seconds" in payload


class TestRegressionAttribution:
    def _entry(self, tape, fused, batched):
        return {
            "speedup": {"single": tape / fused, "batched": tape / (batched / 12)},
            "phases": {
                "tape_step": {"count": 10, "best_s": tape, "p50_s": tape, "mean_s": tape},
                "fused_step": {"count": 10, "best_s": fused, "p50_s": fused, "mean_s": fused},
                "batched_step": {
                    "count": 10, "best_s": batched, "p50_s": batched, "mean_s": batched,
                },
            },
        }

    def test_failure_names_the_drifting_phase(self):
        baseline = {"shapes": {"s": self._entry(1.0, 0.25, 1.2)}}
        # The fused path got 2x slower; tape and batched unchanged.
        current = {"shapes": {"s": self._entry(1.0, 0.5, 1.2)}}
        failures = compare(baseline, current)
        assert len(failures) == 1
        assert "s/single" in failures[0]
        assert "fused_step" in failures[0]

    def test_attribution_without_phase_data(self):
        base = {"speedup": {"single": 4.0, "batched": 8.0}}
        cur = {"speedup": {"single": 1.0, "batched": 8.0}}
        assert "no per-phase timings" in attribute_phase(base, cur)

    def test_no_failures_within_tolerance(self):
        baseline = {"shapes": {"s": self._entry(1.0, 0.25, 1.2)}}
        assert compare(baseline, baseline) == []
