"""Benchmark: cost of the online serve monitor, on and off.

Two bars guard the monitoring layer (see ``docs/OBSERVABILITY.md``):

* **off is free** — with ``ServeConfig.monitor`` unset the engine runs
  the exact pre-monitor code path (a single boolean test per event), and
  the plan it produces is bit-identical to the monitored run's: this
  bench asserts ``result_signature`` parity on every measurement.
* **on is cheap** — a monitored run (cadence sampling, JSONL series,
  OpenMetrics file refresh, calibration tracking) must stay within
  ``MAX_OVERHEAD_PCT`` of the unmonitored wall time on a loaded
  end-to-end scenario.

Both arms run the same seeded stream best-of-N, interleaved so host
drift hits them equally.  Writes ``BENCH_monitor_overhead.json`` at the
repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_monitor_overhead.py

or as an opt-in pytest check (not collected by the default run)::

    PYTHONPATH=src python -m pytest benchmarks/check_regression.py -m monitor_bench
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.assignment.ppi import ppi_assign
from repro.obs import NOOP, MonitorConfig, get_recorder
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)

OUTPUT = Path(__file__).parent.parent / "BENCH_monitor_overhead.json"

#: A loaded mid-size stream: big enough that per-event costs dominate
#: setup, small enough that best-of-N finishes in seconds.
SHAPE = {"n_workers": 400, "n_tasks": 800, "t_end": 60.0, "width_km": 25.0, "seed": 5}
CADENCE = 2.0
#: Acceptance bar for the *enabled* monitor on the end-to-end run.
MAX_OVERHEAD_PCT = 10.0


def _scenario():
    cfg = StreamConfig(
        n_workers=SHAPE["n_workers"],
        n_tasks=SHAPE["n_tasks"],
        t_end=SHAPE["t_end"],
        width_km=SHAPE["width_km"],
        height_km=SHAPE["width_km"],
        seed=SHAPE["seed"],
    )
    return make_task_stream(cfg), make_worker_fleet(cfg)


def _run_once(tasks, workers, monitor: MonitorConfig | None):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=SHAPE["seed"]),
        ServeConfig(
            trigger="adaptive",
            pending_threshold=100,
            cache_ttl=4.0,
            use_index=True,
            index_cell_km=2.0,
            monitor=monitor,
        ),
        assign_fn=ppi_assign,
        candidate_assign_fn=ppi_assign,
    )
    started = time.perf_counter()
    result = engine.run(tasks, 0.0, SHAPE["t_end"])
    return time.perf_counter() - started, result


def run(samples: int = 3) -> dict:
    assert get_recorder() is NOOP, "bench must start with the no-op recorder installed"
    tasks, workers = _scenario()
    with tempfile.TemporaryDirectory() as tmp:
        monitor = MonitorConfig(
            cadence=CADENCE,
            series_path=str(Path(tmp) / "bench.series.jsonl"),
            openmetrics_path=str(Path(tmp) / "bench.om"),
        )
        off_s = on_s = float("inf")
        signature = None
        n_samples = n_outcomes = 0
        # Interleave the arms so slow host drift hits both equally, and
        # check plan parity on every pair of runs, not just one.
        for _ in range(samples):
            t_off, r_off = _run_once(tasks, workers, None)
            t_on, r_on = _run_once(tasks, workers, monitor)
            if result_signature(r_on) != result_signature(r_off):
                raise AssertionError("monitored run diverged from the unmonitored plan")
            off_s = min(off_s, t_off)
            on_s = min(on_s, t_on)
            sig = result_signature(r_off)
            signature = {
                k: sig[k]
                for k in ("n_tasks", "n_completed", "n_assignments", "n_rejections", "n_expired")
            }
            n_samples = r_on.n_monitor_samples
            n_outcomes = r_on.calibration["n_samples"] if r_on.calibration else 0
    overhead_pct = (on_s / off_s - 1.0) * 100.0
    return {
        "shape": SHAPE,
        "cadence": CADENCE,
        "samples": samples,
        "monitor_off_s": off_s,
        "monitor_on_s": on_s,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "parity_ok": True,
        "n_monitor_samples": n_samples,
        "n_calibration_outcomes": n_outcomes,
        "signature": signature,
    }


def main() -> int:
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"monitor off {result['monitor_off_s'] * 1e3:8.1f} ms"
        f" | on {result['monitor_on_s'] * 1e3:8.1f} ms"
        f" | overhead {result['overhead_pct']:+.2f}% (bar {MAX_OVERHEAD_PCT:.0f}%)"
        f" | {result['n_monitor_samples']} samples,"
        f" {result['n_calibration_outcomes']} outcomes"
    )
    print(f"[saved to {OUTPUT}]")
    return 0 if result["overhead_pct"] < MAX_OVERHEAD_PCT else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
