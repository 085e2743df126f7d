"""The online monitor: cadence sampling, OpenMetrics, tolerant readers.

Covers the streaming half of ``repro.obs``:

* histogram/percentile edge cases and snapshot determinism that the
  monitor's windowed sampling relies on;
* :class:`MetricsMonitor` — one sample per crossed cadence boundary,
  windowed counter deltas, rolling histogram windows, the JSONL series
  file, and the OpenMetrics targets (file and HTTP endpoint), refreshed
  on the wall clock rather than on every sample;
* tolerant JSONL/manifest readers — a run killed mid-write leaves a
  truncated final line, which must not take the whole artifact with it.
"""

import json
import math
import random
import urllib.request

import pytest

from repro import obs
from repro.obs import (
    Histogram,
    MetricsMonitor,
    MetricsRecorder,
    MetricsRegistry,
    MonitorConfig,
    RunManifest,
    percentile,
    read_jsonl,
    read_manifest,
    render_openmetrics,
    write_openmetrics,
)
from repro.obs import monitor as monitor_module
from repro.obs.openmetrics import ExpositionServer, metric_name


class TestHistogramEdgeCases:
    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_percentile_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 101.0)

    def test_percentile_single_sample_is_that_sample(self):
        assert percentile([4.2], 0.0) == 4.2
        assert percentile([4.2], 50.0) == 4.2
        assert percentile([4.2], 100.0) == 4.2

    def test_empty_summary_is_bare_count(self):
        assert Histogram().summary() == {"count": 0}

    def test_single_sample_summary(self):
        h = Histogram()
        h.observe(3.0)
        s = h.summary()
        assert s["count"] == 1
        assert s["min"] == s["max"] == s["p50"] == s["p99"] == 3.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_observation_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Histogram().observe(bad)
        assert not math.isfinite(bad)  # the guard is about these exact values

    def test_window_summary_is_the_tail(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.window_summary(2) == Histogram(values=[3.0, 4.0]).summary()
        assert h.window_summary(4) == {"count": 0}
        with pytest.raises(ValueError, match="non-negative"):
            h.window_summary(-1)

    def test_snapshot_is_deterministic_and_sorted(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(f"c.{name}").add(2.0)
                reg.gauge(f"g.{name}").set(1.0)
                reg.histogram(f"h.{name}").observe(0.5)
            return reg.snapshot()

        a = build(["z", "a", "m"])
        b = build(["m", "z", "a"])
        assert a == b
        assert list(a["counters"]) == sorted(a["counters"])
        assert json.dumps(a) == json.dumps(b)


class TestMetricsRecorder:
    def test_records_metrics_without_spans(self):
        rec = MetricsRecorder()
        assert rec.enabled
        with rec.span("anything", x=1) as span:
            span.set(y=2)  # the null span swallows attributes
        rec.counter("c", 3.0)
        rec.gauge("g", 7.0)
        rec.histogram("h", 0.25)
        snap = rec.metrics.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 1


class TestMetricsMonitor:
    def test_one_sample_per_crossed_boundary(self, tmp_path):
        reg = MetricsRegistry()
        mon = MetricsMonitor(MonitorConfig(cadence=2.0, calibration=None), reg)
        mon.start(0.0)
        reg.counter("events").add(1.0)
        mon.advance(1.9)
        assert mon.samples == []
        mon.advance(2.1)  # crosses t=2
        reg.counter("events").add(4.0)
        mon.advance(9.0)  # crosses t=4, 6, 8 — one sample each
        mon.finish(9.0)
        times = [s["t"] for s in mon.samples]
        assert times == [2.0, 4.0, 6.0, 8.0, 9.0]
        assert mon.samples[-1]["final"] is True

    def test_counter_deltas_are_windowed(self):
        reg = MetricsRegistry()
        mon = MetricsMonitor(MonitorConfig(cadence=1.0, calibration=None), reg)
        mon.start(0.0)
        reg.counter("n").add(3.0)
        mon.advance(1.0)
        reg.counter("n").add(2.0)
        mon.advance(2.0)
        mon.finish(2.5)
        deltas = [s["counter_deltas"]["n"] for s in mon.samples]
        assert deltas == [3.0, 2.0, 0.0]
        assert mon.samples[-1]["counters"]["n"] == 5.0  # cumulative stays cumulative

    def test_histogram_windows_roll_without_reset(self):
        reg = MetricsRegistry()
        mon = MetricsMonitor(MonitorConfig(cadence=1.0, calibration=None), reg)
        mon.start(0.0)
        reg.histogram("lat").observe(1.0)
        reg.histogram("lat").observe(2.0)
        mon.advance(1.0)
        reg.histogram("lat").observe(10.0)
        mon.advance(2.0)
        mon.finish(2.0)
        first, second = mon.samples[0], mon.samples[1]
        assert first["histograms"]["lat"]["count"] == 2
        assert first["histograms"]["lat"]["max"] == 2.0
        assert second["histograms"]["lat"] == {
            "count": 1, "sum": 10.0, "mean": 10.0, "min": 10.0, "max": 10.0,
            "p50": 10.0, "p90": 10.0, "p99": 10.0,
        }
        # The registry histogram itself was never reset.
        assert reg.histograms["lat"].count == 3

    def test_series_file_and_reader(self, tmp_path):
        series = tmp_path / "run.series.jsonl"
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(cadence=1.0, series_path=str(series), calibration=None), reg
        )
        mon.start(0.0)
        reg.counter("n").add(1.0)
        mon.advance(3.0)
        mon.finish(3.0)
        records = read_jsonl(series)
        assert records[0]["type"] == "monitor_start"
        assert records[0]["cadence"] == 1.0
        assert [r["seq"] for r in records if r["type"] == "sample"] == [0, 1, 2, 3]

    def test_event_clock_requires_time(self):
        mon = MetricsMonitor(MonitorConfig(calibration=None), MetricsRegistry())
        with pytest.raises(ValueError, match="explicit time"):
            mon.start()

    def test_wall_clock_needs_no_time(self):
        mon = MetricsMonitor(
            MonitorConfig(clock="wall", cadence=60.0, calibration=None), MetricsRegistry()
        )
        mon.start()
        mon.advance()
        mon.finish()
        assert len(mon.samples) == 1  # just the final sample

    def test_config_validation(self):
        with pytest.raises(ValueError, match="cadence"):
            MonitorConfig(cadence=0.0)
        with pytest.raises(ValueError, match="clock"):
            MonitorConfig(clock="lamport")
        for port in (70000, -1):
            with pytest.raises(ValueError, match="http_port"):
                MonitorConfig(http_port=port)

    def test_finish_is_idempotent(self, tmp_path):
        series = tmp_path / "s.jsonl"
        mon = MetricsMonitor(
            MonitorConfig(series_path=str(series), calibration=None), MetricsRegistry()
        )
        mon.start(0.0)
        mon.finish(1.0)
        mon.finish(2.0)
        assert len([r for r in read_jsonl(series) if r["type"] == "sample"]) == 1


class FakeClock:
    """Stands in for ``time.monotonic``; the test sets :attr:`now`."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(monitor_module.time, "monotonic", fake)
    return fake


@pytest.fixture
def refreshes(monkeypatch, clock):
    """Wall times (fake clock) at which the exposition file was rewritten."""
    seen: list[float] = []
    real = monitor_module.write_openmetrics

    def spy(path, snapshot, prefix="repro"):
        seen.append(clock.now)
        return real(path, snapshot, prefix=prefix)

    monkeypatch.setattr(monitor_module, "write_openmetrics", spy)
    return seen


def exposed_events(text: str) -> float:
    """The ``events`` counter as an exposition document shows it."""
    line = next(l for l in text.splitlines() if l.startswith("repro_events_total "))
    return float(line.split()[-1])


class TestExpositionPacing:
    """The exposition is refreshed on the wall clock, not per sample."""

    def test_event_clock_refreshes_once_per_wall_second(self, tmp_path, clock, refreshes):
        target = tmp_path / "metrics.prom"
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(cadence=1.0, openmetrics_path=str(target), calibration=None), reg
        )
        mon.start(0.0)
        shown = []
        for k in range(30):  # one sample per step, 0.1 s of wall time apart
            clock.now = k / 10
            reg.counter("events").add(1.0)
            mon.advance(float(k + 1))
            shown.append(exposed_events(target.read_text()))
        assert len(mon.samples) == 30
        assert refreshes == [0.0, 1.0, 2.0]
        # Between refreshes the file keeps the last refreshed state.
        assert shown == [1.0] * 10 + [11.0] * 10 + [21.0] * 10
        clock.now = 2.95
        reg.counter("events").add(1.0)
        mon.finish(30.5)
        assert refreshes == [0.0, 1.0, 2.0, 2.95]
        assert target.read_text() == render_openmetrics(reg.snapshot())

    def test_final_file_matches_registry_with_slos(self, tmp_path, clock, refreshes):
        target = tmp_path / "metrics.prom"
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(
                cadence=1.0, openmetrics_path=str(target), calibration=None,
                slos=("ok=good/all>=0.9",),
            ),
            reg,
        )
        mon.start(0.0)
        for k in range(5):
            reg.counter("all").add(10.0)
            reg.counter("good").add(5.0)
            reg.histogram("lat").observe(float(k))
            mon.advance(float(k + 1))
        mon.finish(5.5)
        assert refreshes == [0.0, 0.0]  # first sample and finish; the clock never moved
        # The final refresh follows the final sample's SLO updates too.
        assert target.read_text() == render_openmetrics(reg.snapshot())
        assert 'repro_serve_slo_alerts_total{slo="ok"}' in target.read_text()

    @pytest.mark.parametrize("cadence", [1.0, 2.5])
    def test_wall_clock_cadence_of_a_second_refreshes_every_sample(
        self, tmp_path, clock, refreshes, cadence
    ):
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(
                clock="wall", cadence=cadence,
                openmetrics_path=str(tmp_path / "m.prom"), calibration=None,
            ),
            reg,
        )
        mon.start()
        for k in range(1, 6):
            clock.now = k * cadence
            mon.advance()
        assert len(mon.samples) == 5
        assert refreshes == [k * cadence for k in range(1, 6)]

    def test_http_text_follows_the_file(self, tmp_path, clock):
        target = tmp_path / "metrics.prom"
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(
                cadence=1.0, openmetrics_path=str(target), http_port=0, calibration=None
            ),
            reg,
        )
        mon.start(0.0)
        served = []
        try:
            for k in range(25):
                clock.now = k / 10
                reg.counter("events").add(1.0)
                mon.advance(float(k + 1))
                text = mon.server.latest()
                assert text == target.read_text()
                served.append(exposed_events(text))
            assert served == [1.0] * 10 + [11.0] * 10 + [21.0] * 5
            server = mon.server
            clock.now = 2.45
            mon.finish(25.0)
            assert server.latest() == target.read_text() == render_openmetrics(reg.snapshot())
        finally:
            if mon.server is not None:
                mon.server.close()

    def test_no_target_no_refresh(self, clock, refreshes):
        mon = MetricsMonitor(MonitorConfig(cadence=1.0, calibration=None), MetricsRegistry())
        mon.start(0.0)
        mon.advance(3.0)
        mon.finish(3.0)
        assert refreshes == []

    def test_sample_records_match_full_snapshots(self, clock):
        """A sample reads what a full registry snapshot would have shown."""
        rng = random.Random(7)
        reg = MetricsRegistry()
        mon = MetricsMonitor(
            MonitorConfig(
                cadence=1.0, calibration=None,
                slos=("ok=good/all>=0.9", "fast=p99(lat)<=0.5"),
            ),
            reg,
        )
        mon.start(0.0)
        reference = []
        last_counters: dict[str, float] = {}
        last_counts: dict[str, int] = {}
        for k in range(40):
            for _ in range(rng.randrange(4)):
                reg.counter(rng.choice(["all", "good", "other"])).add(rng.random())
                reg.gauge(rng.choice(["q", "depth"])).set(rng.random())
                reg.histogram(rng.choice(["lat", "size"])).observe(rng.random())
            # The full snapshot a sample used to take before reading its windows.
            snapshot = reg.snapshot()
            counts = {name: reg.histograms[name].count for name in snapshot["histograms"]}
            reference.append({
                "counters": snapshot["counters"],
                "counter_deltas": {
                    name: value - last_counters.get(name, 0.0)
                    for name, value in snapshot["counters"].items()
                },
                "gauges": snapshot["gauges"],
                "histograms": {
                    name: Histogram(
                        values=reg.histograms[name].values[last_counts.get(name, 0):]
                    ).summary()
                    for name in snapshot["histograms"]
                },
            })
            last_counters, last_counts = snapshot["counters"], counts
            mon.advance(float(k + 1))
        got = [
            {key: sample[key] for key in ("counters", "counter_deltas", "gauges", "histograms")}
            for sample in mon.samples
        ]
        assert got == reference
        assert [list(s["counters"]) for s in mon.samples] == [
            list(r["counters"]) for r in reference
        ]


class TestOpenMetrics:
    SNAPSHOT = {
        "counters": {"serve.accepted": 12.0},
        "gauges": {"serve.queue.pending": 3.0},
        "histograms": {
            "serve.batch.latency_s": {
                "count": 2, "sum": 0.3, "mean": 0.15, "min": 0.1, "max": 0.2,
                "p50": 0.15, "p90": 0.19, "p99": 0.199,
            }
        },
    }

    def test_metric_name_sanitises(self):
        assert metric_name("serve.queue.pending") == "repro_serve_queue_pending"
        assert metric_name("a-b c", prefix="") == "a_b_c"
        assert metric_name("9lives", prefix="") == "_9lives"

    def test_render_families_and_eof(self):
        text = render_openmetrics(self.SNAPSHOT)
        assert "# TYPE repro_serve_accepted counter" in text
        assert "repro_serve_accepted_total 12" in text
        assert "# TYPE repro_serve_queue_pending gauge" in text
        assert "repro_serve_queue_pending 3" in text
        assert 'repro_serve_batch_latency_s{quantile="0.5"} 0.15' in text
        assert "repro_serve_batch_latency_s_count 2" in text
        assert text.endswith("# EOF\n")

    def test_render_is_deterministic(self):
        assert render_openmetrics(self.SNAPSHOT) == render_openmetrics(dict(self.SNAPSHOT))

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        target = tmp_path / "metrics.om"
        write_openmetrics(target, self.SNAPSHOT)
        assert target.read_text().endswith("# EOF\n")
        assert list(tmp_path.iterdir()) == [target]

    def test_http_endpoint_serves_latest(self):
        server = ExpositionServer(port=0)
        try:
            text = render_openmetrics(self.SNAPSHOT)
            server.publish(text)
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert resp.status == 200
                assert "openmetrics-text" in resp.headers["Content-Type"]
                assert resp.read().decode() == text
            bad = urllib.request.Request(f"http://127.0.0.1:{server.port}/nope")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(bad, timeout=5)
        finally:
            server.close()


class TestTolerantReaders:
    def test_read_jsonl_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span", "name": "a"}\n{"type": "spa')
        with pytest.warns(UserWarning, match="trace.jsonl:2.*truncated"):
            records = read_jsonl(path)
        assert [r["name"] for r in records] == ["a"]

    def test_read_jsonl_strict_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path, strict=True)

    def test_monitor_series_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "run.series.jsonl"
        mon = MetricsMonitor(
            MonitorConfig(cadence=1.0, series_path=str(path), calibration=None),
            MetricsRegistry(),
        )
        mon.start(0.0)
        mon.advance(2.0)
        mon.finish(2.0)
        intact = read_jsonl(path)
        path.write_bytes(path.read_bytes()[:-10])  # run killed mid-write
        with pytest.warns(UserWarning, match="truncated"):
            records = read_jsonl(path)
        assert records == intact[:-1]

    def test_corrupt_manifest_names_the_file(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        path.write_text('{"command": "assi')
        with pytest.raises(ValueError, match="truncated or corrupt"):
            read_manifest(path)

    def test_intact_manifest_roundtrips(self, tmp_path):
        path = tmp_path / "ok.manifest.json"
        manifest = RunManifest.start(command="assign", argv=["--seed", "1"], config={}, seed=1)
        manifest.finalize(metrics={"x": 1.0}).write(path)
        assert read_manifest(path).command == "assign"


def test_noop_recorder_still_default():
    # The monitor machinery must not leak a live recorder into the
    # process-wide default (other tests depend on NOOP).
    assert obs.get_recorder() is obs.NOOP
