"""Figure 11: effect of the tasks' valid time on workload 2.

Mirror of Figure 8 on Gowalla+Foursquare.  Paper shapes: completion is
the most sensitive metric (clear upward trend); running time grows but
with a slowing rate; cost gaps between algorithms stay small.
"""

from __future__ import annotations

from bench_fig8_validtime_porto import VALID_INTERVALS
from common import default_assignment_config, write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.pipeline import make_workload2
from repro.pipeline.experiment import run_assignment


def test_fig11_valid_time_sweep_gowalla(benchmark, predictors_w2):
    def build(interval):
        wl, _ = make_workload2(_default_spec(valid_time_units=tuple(interval)))
        return wl

    labels = [f"[{int(lo)},{int(hi)}]" for lo, hi in VALID_INTERVALS]
    panels = run_sweep(build, VALID_INTERVALS, predictors_w2)
    write_result(
        "fig11_validtime_gowalla",
        render_figure("Figure 11 (workload 2)", "valid time (units)", labels, panels),
        metrics=running_times(labels, panels),
    )

    completion = panels["completion_ratio"]
    for algo, series in completion.items():
        assert series[-1] >= series[0] - 0.05, f"{algo} completion should grow with valid time"
    assert all(r == 0.0 for r in panels["rejection_ratio"]["ub"])

    wl = build(VALID_INTERVALS[2])

    def simulate():
        return run_assignment(
            wl, "ppi", default_assignment_config(), predictor=predictors_w2["task_oriented"]
        )

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.n_tasks > 0
