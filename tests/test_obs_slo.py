"""SLO layer: objective grammar, burn-rate alerting, report rendering.

The contract under test (see ``docs/OBSERVABILITY.md``, "Decision
provenance & SLOs"):

* ``parse_slo`` accepts exactly the two grammar forms and rejects the
  rest with a message naming the expected shapes;
* burn rates are weighted-average bad fractions over short/long
  windows divided by the error budget; an alert fires on the rising
  edge of *both* windows exceeding the threshold, then re-arms;
* ``serve-report`` renders an SLO section and stays graceful on
  empty / single-sample series.
"""

import json

import pytest

from repro.obs import (
    MonitorConfig,
    SLOEvaluator,
    SLOSpec,
    parse_slo,
    read_jsonl,
    render_serve_report,
)


def ratio_spec(**overrides):
    base = dict(
        name="assign_rate",
        kind="ratio",
        target=0.9,
        numerator="ok",
        denominator="total",
        short_window=2,
        long_window=4,
        burn_threshold=2.0,
    )
    base.update(overrides)
    return SLOSpec(**base)


def sample(good, total, t=0.0):
    return {
        "type": "sample",
        "t": t,
        "counter_deltas": {"ok": float(good), "total": float(total)},
        "histograms": {},
    }


class TestParse:
    def test_ratio_form(self):
        spec = parse_slo("assign_rate=serve.accepted/serve.assignments>=0.95")
        assert spec.kind == "ratio"
        assert spec.numerator == "serve.accepted"
        assert spec.denominator == "serve.assignments"
        assert spec.target == 0.95
        assert spec.resolved_budget() == pytest.approx(0.05)

    def test_quantile_form(self):
        spec = parse_slo("p99_batch = p99(serve.batch.latency_s) <= 0.5")
        assert spec.kind == "quantile"
        assert spec.metric == "serve.batch.latency_s"
        assert spec.quantile == "p99"
        assert spec.target == 0.5
        assert spec.resolved_budget() == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [
        "no-equals-here",
        "x=serve.accepted>=0.95",            # neither ratio nor quantile body
        "x=p99(serve.batch.latency_s)>=0.5", # quantile must use <=
        "x=a/b<=0.95",                       # ratio must use >=
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SLOSpec(name="x", kind="other", target=0.5)
        with pytest.raises(ValueError, match="numerator"):
            SLOSpec(name="x", kind="ratio", target=0.5)
        with pytest.raises(ValueError, match="windows"):
            ratio_spec(short_window=5, long_window=2)

    def test_monitor_config_coerces_strings(self):
        cfg = MonitorConfig(slos=("r=a/b>=0.9",))
        (spec,) = cfg.slos
        assert isinstance(spec, SLOSpec)
        assert spec.name == "r"


class TestBurnRate:
    def test_burn_is_weighted_bad_fraction_over_budget(self):
        ev = SLOEvaluator([ratio_spec()])
        # 50% bad at weight 10, 0% bad at weight 30 → bad = 5/40 = 0.125;
        # budget 0.1 → burn 1.25 on both windows.
        ev.observe(sample(good=5, total=10))
        status, fired = ev.observe(sample(good=30, total=30))
        s = status["assign_rate"]
        assert s["burn_short"] == pytest.approx(1.25)
        assert s["burn_long"] == pytest.approx(1.25)
        assert not s["alerting"] and not fired

    def test_idle_windows_carry_no_weight(self):
        ev = SLOEvaluator([ratio_spec()])
        status, _ = ev.observe(sample(good=0, total=0))
        assert status["assign_rate"]["burn_short"] is None
        assert not status["assign_rate"]["alerting"]

    def test_alert_fires_on_rising_edge_once(self):
        ev = SLOEvaluator([ratio_spec()])
        fired_total = []
        for t in range(4):
            _, fired = ev.observe(sample(good=0, total=10, t=float(t)))
            fired_total.extend(fired)
        assert len(fired_total) == 1
        assert fired_total[0]["slo"] == "assign_rate"
        assert ev.alerts == fired_total

    def test_alert_rearms_after_recovery(self):
        ev = SLOEvaluator([ratio_spec(short_window=1, long_window=2)])
        n_fired = 0
        for good in (0, 10, 10, 0):
            _, fired = ev.observe(sample(good=good, total=10))
            n_fired += len(fired)
        assert n_fired == 2  # first breach, recovery, second breach

    def test_quantile_windows_binary(self):
        spec = SLOSpec(
            name="lat", kind="quantile", target=0.5,
            metric="m", quantile="p99", short_window=1, long_window=2,
        )
        ev = SLOEvaluator([spec])
        bad = {"type": "sample", "counter_deltas": {},
               "histograms": {"m": {"count": 4, "p99": 0.9}}}
        good = {"type": "sample", "counter_deltas": {},
                "histograms": {"m": {"count": 4, "p99": 0.1}}}
        status, _ = ev.observe(bad)
        assert status["lat"]["burn_short"] == pytest.approx(1.0 / 0.05)
        status, _ = ev.observe(good)
        assert status["lat"]["burn_short"] == pytest.approx(0.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SLOEvaluator([ratio_spec(), ratio_spec()])


class TestEndToEnd:
    def _series(self, tmp_path, slo):
        from repro.cli import main as cli_main

        series = tmp_path / "run.series.jsonl"
        cli_main([
            "serve-sim", "--n-workers", "10", "--n-tasks", "30",
            "--horizon", "20", "--monitor", str(series), "--slo", slo,
        ])
        return series

    def test_slo_flag_streams_specs_samples_and_report(self, tmp_path, capsys):
        # An unreachable target guarantees a breach on a seeded run.
        series = self._series(tmp_path, "ar=serve.accepted/serve.assignments>=0.999")
        capsys.readouterr()
        records = read_jsonl(series)
        assert any(r.get("type") == "slo_spec" for r in records)
        samples = [r for r in records if r.get("type") == "sample"]
        assert all("slos" in s for s in samples)
        assert any(r.get("type") == "slo_alert" for r in records)
        report = render_serve_report(records, title="t")
        assert "service-level objectives" in report
        # The breach fired mid-run; the section names it either as a
        # live ALERTING status or as a past alert with its timestamp.
        assert "ALERTING" in report or "alert: ar" in report

    def test_slo_flag_alone_implies_monitoring(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        cli_main([
            "serve-sim", "--n-workers", "5", "--n-tasks", "10",
            "--horizon", "10", "--json",
            "--slo", "ar=serve.accepted/serve.assignments>=0.5",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["n_monitor_samples"] > 0


class TestReportHardening:
    def test_empty_series_renders_gracefully(self, tmp_path):
        path = tmp_path / "empty.series.jsonl"
        path.write_text('{"type": "monitor_start", "cadence": 2.0}\n')
        report = render_serve_report(read_jsonl(path), title="empty")
        assert "no samples" in report

    def test_single_sample_series_renders(self, tmp_path):
        from repro.cli import main as cli_main

        series = tmp_path / "one.series.jsonl"
        # Cadence longer than the horizon → only the final sample.
        cli_main([
            "serve-sim", "--n-workers", "5", "--n-tasks", "10",
            "--horizon", "10", "--monitor", str(series),
            "--monitor-cadence", "500",
        ])
        records = read_jsonl(series)
        samples = [r for r in records if r.get("type") == "sample"]
        assert len(samples) == 1
        report = render_serve_report(records, title="one")
        assert "one" in report

    def test_partial_histogram_summary_merges(self):
        from repro.obs.dashboard import Phase

        phase = Phase(
            name="p", t0=0.0, t1=1.0,
            samples=[
                {"histograms": {"m": {"count": 2, "sum": 1.0}}},  # no max key
                {"histograms": {"m": {"count": 1, "sum": 0.5, "max": None}}},
            ],
        )
        merged = phase.histogram_merge("m")
        assert merged["count"] == 3
