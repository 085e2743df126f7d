"""Engine-level monitoring: no-op parity, series output, drift detection.

The contract under test (see ``docs/OBSERVABILITY.md``):

* ``ServeConfig.monitor=None`` leaves the engine's observable outcome
  **bit-identical** to a run that never heard of monitoring;
* with a monitor, a seeded run streams a JSONL time series and an
  OpenMetrics exposition while still producing the identical plan; the
  exposition is refreshed on wall time, not on every sample;
* a provider whose confidence outlives its accuracy — calibrated early,
  overconfident late — trips the drift detector deterministically.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.assignment.ppi import ppi_assign
from repro.cli import main as cli_main
from repro.geo.point import Point
from repro.obs import MemorySink, MonitorConfig, read_jsonl, render_openmetrics
from repro.obs import monitor as monitor_module
from repro.sc.acceptance import oracle_future_route
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)

from tests.conftest import straight_trajectory


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
    def test_monitored_run_is_bit_identical(self, tmp_path):
        tasks, workers = seeded_scenario()
        plain = run_engine(tasks, workers)
        monitored = run_engine(
            tasks,
            workers,
            monitor=MonitorConfig(cadence=2.0, series_path=str(tmp_path / "s.jsonl")),
        )
        assert result_signature(monitored) == result_signature(plain)
        assert plain.n_monitor_samples == 0
        assert plain.calibration is None
        assert monitored.n_monitor_samples > 0

    def test_recorder_restored_after_monitored_run(self):
        tasks, workers = seeded_scenario(n_workers=5, n_tasks=10, t_end=10.0)
        run_engine(tasks, workers, t_end=10.0, monitor=MonitorConfig(cadence=5.0))
        assert obs.get_recorder() is obs.NOOP

    def test_recorder_restored_when_run_raises(self, tmp_path):
        tasks, workers = seeded_scenario(n_workers=5, n_tasks=10, t_end=10.0)

        def broken_assign(tasks, snapshots, t):
            raise RuntimeError("assignment exploded")

        series = tmp_path / "crash.series.jsonl"
        engine = ServeEngine(
            workers,
            DeadReckoningProvider(seed=0),
            ServeConfig(monitor=MonitorConfig(cadence=5.0, series_path=str(series))),
            assign_fn=broken_assign,
        )
        with pytest.raises(RuntimeError, match="exploded"):
            engine.run(tasks, 0.0, 10.0)
        assert obs.get_recorder() is obs.NOOP
        # The series file was closed with a final sample, so the partial
        # run is still inspectable.
        assert any(r.get("final") for r in read_jsonl(series))

    def test_external_recorder_is_not_displaced(self):
        tasks, workers = seeded_scenario(n_workers=5, n_tasks=10, t_end=10.0)
        with obs.recording(MemorySink()) as rec:
            result = run_engine(tasks, workers, t_end=10.0, monitor=MonitorConfig(cadence=5.0))
            assert obs.get_recorder() is rec
        assert result.n_monitor_samples > 0
        # The monitor sampled the recorder's registry, not a private one.
        assert "serve.queue.pending" in rec.metrics.gauges


class TestMonitoredRunOutputs:
    def test_series_and_openmetrics_files(self, tmp_path):
        tasks, workers = seeded_scenario()
        series = tmp_path / "run.series.jsonl"
        exposition = tmp_path / "run.om"
        result = run_engine(
            tasks,
            workers,
            use_index=True,
            cache_ttl=4.0,
            monitor=MonitorConfig(
                cadence=4.0, series_path=str(series), openmetrics_path=str(exposition)
            ),
        )
        records = read_jsonl(series)
        samples = [r for r in records if r["type"] == "sample"]
        assert len(samples) == result.n_monitor_samples
        assert [s["seq"] for s in samples] == list(range(len(samples)))
        assert records[-1]["type"] == "calibration"
        assert result.calibration["n_samples"] == records[-1]["n_samples"]
        text = exposition.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_serve_assignments_total" in text

    def test_engine_health_metrics_present(self, tmp_path):
        tasks, workers = seeded_scenario()
        result = run_engine(
            tasks,
            workers,
            use_index=True,
            cache_ttl=4.0,
            monitor=MonitorConfig(cadence=4.0, series_path=str(tmp_path / "s.jsonl")),
        )
        final = [r for r in read_jsonl(tmp_path / "s.jsonl") if r["type"] == "sample"][-1]
        for hist in ("serve.batch.latency_s", "serve.index.candidates",
                     "serve.task.time_to_assign"):
            assert hist in final["histograms"], hist
        for gauge in ("serve.cache.hit_rate", "serve.queue.pending"):
            assert gauge in final["gauges"], gauge
        # The candidate histogram sums to the engine's own pair count.
        candidate_windows = [
            s["histograms"].get("serve.index.candidates", {"count": 0})
            for s in read_jsonl(tmp_path / "s.jsonl")
            if s.get("type") == "sample"
        ]
        assert sum(w.get("sum", 0.0) for w in candidate_windows) == result.n_candidate_pairs

    def test_deterministic_reruns_produce_identical_series(self, tmp_path):
        tasks, workers = seeded_scenario()

        def series_of(name):
            path = tmp_path / name
            run_engine(
                tasks, workers,
                monitor=MonitorConfig(cadence=4.0, series_path=str(path)),
            )
            records = read_jsonl(path)
            for r in records:  # wall timestamps legitimately differ
                r.pop("wall_unix", None)
                for h in r.get("histograms", {}).values():
                    h.pop("sum", None) or None
            # Wall-time histograms (latency, lag) differ between runs;
            # the event-time axis and counting metrics must not.
            return [
                (r["type"], r.get("t"), r.get("counters"), r.get("counter_deltas"))
                for r in records
            ]

        assert series_of("a.jsonl") == series_of("b.jsonl")


class TestExpositionPacing:
    def test_run_refreshes_exposition_on_wall_time_only(self, tmp_path, monkeypatch):
        """A run inside one wall second writes the file at its first
        sample and at finish; the series still gets every sample."""
        monkeypatch.setattr(monitor_module.time, "monotonic", lambda: 50.0)
        writes = []
        real = monitor_module.write_openmetrics

        def spy(path, snapshot, prefix="repro"):
            writes.append(path)
            return real(path, snapshot, prefix=prefix)

        monkeypatch.setattr(monitor_module, "write_openmetrics", spy)
        tasks, workers = seeded_scenario()
        exposition = tmp_path / "run.om"
        series = tmp_path / "run.series.jsonl"
        with obs.recording(MemorySink()) as rec:
            result = run_engine(
                tasks, workers,
                monitor=MonitorConfig(
                    cadence=1.0, series_path=str(series), openmetrics_path=str(exposition)
                ),
            )
        assert result.n_monitor_samples > 2
        assert len([r for r in read_jsonl(series) if r["type"] == "sample"]) == (
            result.n_monitor_samples
        )
        assert len(writes) == 2
        assert exposition.read_text() == render_openmetrics(rec.metrics.snapshot())


# ---------------------------------------------------------------------
# The synthetic drift scenario: a provider whose claims stop being true.
# ---------------------------------------------------------------------

HOTSPOT_FAR = (5.0, 30.0)   # 30 km off every worker's route


def overconfident_provider(worker, t):
    """True near-term route plus a phantom hotspot, all claimed at MR=0.9.

    While tasks land on the real route the confident claims are
    honoured; once tasks move to the phantom hotspot the same
    confidence is systematically wrong.
    """
    xy, times = oracle_future_route(worker, t, horizon=4)
    claims = np.vstack([xy, [HOTSPOT_FAR]])
    return WorkerSnapshot(
        worker_id=worker.worker_id,
        current_location=worker.last_shared_location(t),
        predicted_xy=claims,
        predicted_times=np.append(times, t + 5.0),
        detour_budget_km=worker.detour_budget_km,
        speed_km_per_min=worker.speed_km_per_min,
        matching_rate=0.9,
    )


def drift_scenario():
    """Calibrated for 40 minutes, then the stream leaves the model behind.

    Workers advance 0.1 km/min along straight eastbound routes.  Early
    tasks drop just ahead of that progress (x = 0.1 t + 0.5), so the
    provider's confident claims are honoured — tiny detour, reachable
    branch points, per-sample error ~0.01.  From t=40 every task lands
    at the far hotspot the workers never actually visit: the provider
    keeps claiming ~0.9, the workers keep rejecting, and the error
    jumps to ~0.9 — a clean mean shift for the Page-Hinkley test.
    """
    workers = [
        Worker(
            worker_id=k,
            routine=straight_trajectory(start=(0.0, 0.2 * k), end=(10.0, 0.2 * k), t1=100.0),
            detour_budget_km=4.0,
            speed_km_per_min=1.0,
        )
        for k in range(4)
    ]
    tasks = [
        SpatialTask(
            task_id=i,
            location=(
                Point(0.1 * i + 0.5, 0.3) if i < 40 else Point(*HOTSPOT_FAR)
            ),
            release_time=float(i),
            deadline=float(i) + 15.0,
        )
        for i in range(80)
    ]
    return tasks, workers


class TestDriftDetection:
    def test_stale_model_trips_detector(self, tmp_path):
        tasks, workers = drift_scenario()
        series = tmp_path / "drift.series.jsonl"
        engine = ServeEngine(
            workers,
            overconfident_provider,
            ServeConfig(monitor=MonitorConfig(cadence=5.0, series_path=str(series))),
            assign_fn=ppi_assign,
        )
        result = engine.run(tasks, 0.0, 90.0)
        assert result.n_drift_events >= 1
        drifts = [r for r in read_jsonl(series) if r["type"] == "drift"]
        assert len(drifts) == result.n_drift_events
        # The alarm fires in the stale regime, not during the calibrated
        # warm-up.
        assert drifts[0]["t"] > 40.0
        assert drifts[0]["detector"] == "page_hinkley"
        # The drift counter made it into the sampled series too.
        final = [r for r in read_jsonl(series) if r["type"] == "sample"][-1]
        assert final["counters"]["serve.calibration.drift"] >= 1
        # Reliability split: confident claims were honoured early
        # (high-p bin mixes accepts and the late rejects).
        high_bin = result.calibration["bins"][-1]  # p in [0.9, 1.0]
        assert high_bin["n"] > 0
        assert high_bin["frac_accepted"] < high_bin["mean_predicted"]

    def test_calibrated_regime_alone_stays_quiet(self, tmp_path):
        tasks, workers = drift_scenario()
        engine = ServeEngine(
            workers,
            overconfident_provider,
            ServeConfig(monitor=MonitorConfig(cadence=5.0)),
            assign_fn=ppi_assign,
        )
        # Stop the run before the stream drifts: no alarm.
        result = engine.run([t for t in tasks if t.task_id < 40], 0.0, 40.0)
        assert result.n_drift_events == 0
        assert result.calibration["n_samples"] > 0
        assert result.calibration["brier"] < 0.1


class TestCli:
    def test_serve_sim_monitor_and_serve_report(self, tmp_path, capsys):
        series = tmp_path / "cli.series.jsonl"
        exposition = tmp_path / "cli.om"
        rc = cli_main([
            "serve-sim", "--n-workers", "20", "--n-tasks", "40", "--horizon", "30",
            "--seed", "3", "--monitor", str(series), "--openmetrics", str(exposition),
            "--monitor-cadence", "5", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["n_monitor_samples"] > 0
        assert "brier" in payload["metrics"]
        assert series.exists() and exposition.read_text().endswith("# EOF\n")

        rc = cli_main(["serve-report", str(series)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counters (windowed deltas per phase)" in out
        assert "ramp-up" in out and "drain" in out
        assert "calibration" in out

        rc = cli_main(["serve-report", str(series), "--json", "--phases", "2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [p["name"] for p in report["phases"]] == ["phase 1", "phase 2"]
        assert report["n_samples"] == payload["metrics"]["n_monitor_samples"]

    def test_serve_sim_without_monitor_unchanged(self, capsys):
        rc = cli_main([
            "serve-sim", "--n-workers", "10", "--n-tasks", "20", "--horizon", "20",
            "--seed", "3", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "n_monitor_samples" not in payload["metrics"]
