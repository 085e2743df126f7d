"""Figure 8: effect of the tasks' valid time on workload 1.

Sweeps the valid-time interval over {[1,2] .. [5,6]} time units (10
minutes each) and reports the four panels.  Paper shapes: completion
trends up with longer validity; worker cost trends up (farther tasks
become reachable); PPI/PPI-loss keep the lowest rejection.
"""

from __future__ import annotations

from common import write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.pipeline import make_workload1

VALID_INTERVALS = ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0))


def test_fig8_valid_time_sweep(benchmark, predictors_w1):
    def build(interval):
        wl, _ = make_workload1(_default_spec(valid_time_units=tuple(interval)))
        return wl

    labels = [f"[{int(lo)},{int(hi)}]" for lo, hi in VALID_INTERVALS]
    panels = run_sweep(build, VALID_INTERVALS, predictors_w1)
    write_result(
        "fig8_validtime_porto",
        render_figure("Figure 8 (workload 1)", "valid time (units)", labels, panels),
        metrics=running_times(labels, panels),
    )

    completion = panels["completion_ratio"]
    # Shape: longer validity windows help completion for every algorithm.
    for algo, series in completion.items():
        assert series[-1] >= series[0] - 0.05, f"{algo} completion should grow with valid time"
    # Shape: UB rejection stays zero.
    assert all(r == 0.0 for r in panels["rejection_ratio"]["ub"])

    def summarize():
        return {algo: sum(series) / len(series) for algo, series in completion.items()}

    means = benchmark.pedantic(summarize, rounds=1, iterations=1)
    assert means["ub"] >= max(v for k, v in means.items() if k != "ub") - 0.05
