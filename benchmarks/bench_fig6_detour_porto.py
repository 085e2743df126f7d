"""Figure 6: effect of the worker detour budget d on workload 1.

Sweeps d over {2, 4, 6, 8, 10} km and reports the four panels for all
seven algorithms.  Paper shapes: completion rises and rejection falls
with d; PPI leads the practical algorithms (lowest rejection); UB is
the ceiling with zero rejection; GGPSO is slowest.
"""

from __future__ import annotations

from common import default_assignment_config, scaled, write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.pipeline import make_workload1
from repro.pipeline.experiment import run_assignment

DETOURS_KM = (2.0, 4.0, 6.0, 8.0, 10.0)


def test_fig6_detour_sweep(benchmark, predictors_w1):
    def build(detour):
        wl, _ = make_workload1(_default_spec(detour_km=float(detour)))
        return wl

    panels = run_sweep(build, DETOURS_KM, predictors_w1)
    write_result(
        "fig6_detour_porto",
        render_figure("Figure 6 (workload 1)", "detour d (km)", DETOURS_KM, panels),
        metrics=running_times(DETOURS_KM, panels),
    )

    completion = panels["completion_ratio"]
    rejection = panels["rejection_ratio"]
    # Shape: completion grows with d for every algorithm (ends above starts).
    for algo, series in completion.items():
        assert series[-1] >= series[0] - 0.05, f"{algo} completion should grow with d"
    # Shape: UB never rejected; PPI at most KM's rejection on average.
    assert all(r == 0.0 for r in rejection["ub"])
    assert sum(rejection["ppi"]) <= sum(rejection["km"]) + 0.05 * len(DETOURS_KM)
    # Shape: the task-oriented loss lowers rejection vs the MSE variant.
    assert sum(rejection["ppi"]) <= sum(rejection["ppi_loss"]) + 0.05 * len(DETOURS_KM)

    # Benchmark target: one PPI simulation at the default detour.
    wl = build(4.0)

    def simulate():
        return run_assignment(
            wl, "ppi", default_assignment_config(), predictor=predictors_w1["task_oriented"]
        )

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.n_tasks == scaled(450)
