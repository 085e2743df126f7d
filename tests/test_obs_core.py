"""Tests for the observability core: metrics, spans, recorder, sinks."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    NOOP,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    TraceRecorder,
    percentile,
    read_jsonl,
)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self, rng):
        values = list(rng.normal(size=101))
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_single_value(self):
        assert percentile([7.5], 90.0) == 7.5

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter()
        c.add()
        c.add(4.0)
        assert c.value == 5.0
        with pytest.raises(ValueError):
            c.add(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.updates == 2

    def test_histogram_summary(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == pytest.approx(np.percentile(h.values, 50))
        assert s["p90"] == pytest.approx(np.percentile(h.values, 90))
        assert s["p99"] == pytest.approx(np.percentile(h.values, 99))

    def test_empty_histogram_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_registry_kind_uniqueness(self):
        reg = MetricsRegistry()
        reg.counter("x.steps").add(2)
        with pytest.raises(ValueError):
            reg.gauge("x.steps")
        with pytest.raises(ValueError):
            reg.histogram("x.steps")
        # Same kind is idempotent.
        assert reg.counter("x.steps").value == 2

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").add(3)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3.0}
        assert snap["gauges"] == {"b": 1.5}
        assert snap["histograms"]["c"]["count"] == 1


class TestNoopRecorder:
    def test_default_recorder_is_noop(self):
        assert obs.get_recorder() is NOOP
        assert not obs.enabled()

    def test_free_functions_are_silent(self):
        # No recorder installed: spans are the shared null span, metrics vanish.
        with obs.span("anything", x=1) as s:
            assert s is NULL_SPAN
            assert s.set(y=2) is NULL_SPAN
        obs.counter("nope")
        obs.gauge("nope2", 1.0)
        obs.histogram("nope3", 1.0)
        assert obs.get_recorder() is NOOP


class TestTraceRecorder:
    def test_span_nesting_ids_and_depth(self):
        sink = MemorySink()
        with obs.recording(sink):
            with obs.span("outer", stage="a"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        spans = {(_r["name"], _r["span_id"]): _r for _r in sink.spans}
        assert sink.span_names() == ["inner", "inner", "outer"]  # close order
        outer = next(r for r in sink.spans if r["name"] == "outer")
        inners = [r for r in sink.spans if r["name"] == "inner"]
        assert outer["parent_id"] is None and outer["depth"] == 0
        assert all(r["parent_id"] == outer["span_id"] for r in inners)
        assert all(r["depth"] == 1 for r in inners)
        assert len({r["span_id"] for r in spans.values()}) == 3

    def test_span_times_the_block(self):
        sink = MemorySink()
        with obs.recording(sink):
            with obs.span("sleepy"):
                time.sleep(0.02)
        record = sink.spans[0]
        assert record["duration_s"] >= 0.015
        assert record["start_unix"] > 0

    def test_set_merges_attrs(self):
        sink = MemorySink()
        with obs.recording(sink):
            with obs.span("s", a=1) as span:
                span.set(b=2)
        assert sink.spans[0]["attrs"] == {"a": 1, "b": 2}

    def test_exception_recorded_and_reraised(self):
        sink = MemorySink()
        with pytest.raises(KeyError):
            with obs.recording(sink):
                with obs.span("boom"):
                    raise KeyError("x")
        assert sink.spans[0]["error"] == "KeyError"
        # The recorder was still finished: metrics record present, recorder restored.
        assert sink.metrics is not None
        assert obs.get_recorder() is NOOP

    def test_out_of_order_close_raises(self):
        rec = TraceRecorder(MemorySink())
        a = rec.span("a")
        b = rec.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            a.__exit__(None, None, None)

    def test_finish_strict_rejects_open_spans(self):
        rec = TraceRecorder(MemorySink())
        rec.span("left-open").__enter__()
        with pytest.raises(RuntimeError, match="still open"):
            rec.finish()

    def test_finish_lenient_force_closes(self):
        sink = MemorySink()
        rec = TraceRecorder(sink)
        rec.span("left-open").__enter__()
        rec.finish(strict=False)
        assert sink.spans[0]["error"] == "unclosed"
        assert sink.metrics is not None

    def test_metrics_via_free_functions(self):
        sink = MemorySink()
        with obs.recording(sink):
            obs.counter("steps", 3)
            obs.counter("steps")
            obs.gauge("depth", 2)
            obs.histogram("loss", 0.5)
            obs.histogram("loss", 1.5)
        metrics = sink.metrics
        assert metrics["counters"]["steps"] == 4.0
        assert metrics["gauges"]["depth"] == 2.0
        assert metrics["histograms"]["loss"]["count"] == 2

    def test_recording_restores_previous_recorder(self):
        with obs.recording(MemorySink()) as outer_rec:
            assert obs.get_recorder() is outer_rec
            with obs.recording(MemorySink()) as inner_rec:
                assert obs.get_recorder() is inner_rec
            assert obs.get_recorder() is outer_rec
        assert obs.get_recorder() is NOOP


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "run.trace.jsonl"
        with obs.recording(JsonlSink(path)) as rec:
            with obs.span("root", n=np.int64(3), arr=np.array([1.0, 2.0])):
                obs.counter("hits", np.float64(2.0))
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["trace_start", "span", "metrics"]
        assert records[0]["trace_id"] == rec.trace_id
        assert records[1]["attrs"] == {"n": 3, "arr": [1.0, 2.0]}
        assert records[2]["counters"]["hits"] == 2.0
        # Every line independently parseable (the JSONL contract).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"type": "span"})
