"""Figure 9: effect of the worker detour budget d on workload 2.

Mirror of Figure 6 on Gowalla+Foursquare.  Paper shapes: same trends
as workload 1, with *smaller cost gaps between algorithms* because the
worker and task distributions share venue anchors (Appendix C).
"""

from __future__ import annotations

import numpy as np

from bench_fig6_detour_porto import DETOURS_KM
from common import default_assignment_config, write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.pipeline import make_workload2
from repro.pipeline.experiment import run_assignment


def test_fig9_detour_sweep_gowalla(benchmark, predictors_w2):
    def build(detour):
        wl, _ = make_workload2(_default_spec(detour_km=float(detour)))
        return wl

    panels = run_sweep(build, DETOURS_KM, predictors_w2)
    write_result(
        "fig9_detour_gowalla",
        render_figure("Figure 9 (workload 2)", "detour d (km)", DETOURS_KM, panels),
        metrics=running_times(DETOURS_KM, panels),
    )

    completion = panels["completion_ratio"]
    for algo, series in completion.items():
        assert series[-1] >= series[0] - 0.05, f"{algo} completion should grow with d"
    assert all(r == 0.0 for r in panels["rejection_ratio"]["ub"])

    # Appendix C shape: cost gaps between algorithms are narrower than on
    # workload 1 (verified loosely: relative spread of mean costs is small).
    costs = panels["worker_cost_km"]
    mean_costs = [np.mean(series) for series in costs.values() if np.mean(series) > 0]
    spread = (max(mean_costs) - min(mean_costs)) / max(np.mean(mean_costs), 1e-9)
    assert spread < 1.0, "cost gaps on workload 2 should be moderate"

    wl = build(4.0)

    def simulate():
        return run_assignment(
            wl, "ppi", default_assignment_config(), predictor=predictors_w2["task_oriented"]
        )

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.n_tasks > 0
