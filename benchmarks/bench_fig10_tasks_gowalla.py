"""Figure 10: effect of the number of spatial tasks on workload 2.

Mirror of Figure 7 on Gowalla+Foursquare.  Paper shapes: completion
falls with the task count; running time rises; worker cost *decreases*
with more tasks (workers pick nearer venues); the rejection rate is
comparatively insensitive to the task count.
"""

from __future__ import annotations

import numpy as np

from bench_fig7_tasks_porto import TASK_COUNTS
from common import default_assignment_config, write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.assignment.ggpso import GGPSOConfig
from repro.pipeline import make_workload2
from repro.pipeline.experiment import run_assignment


def test_fig10_task_count_sweep_gowalla(benchmark, predictors_w2):
    def build(n_tasks):
        wl, _ = make_workload2(_default_spec(n_tasks=int(n_tasks)))
        return wl

    panels = run_sweep(
        build,
        TASK_COUNTS,
        predictors_w2,
        ggpso_config=GGPSOConfig(generations=15, population_size=12),
    )
    write_result(
        "fig10_tasks_gowalla",
        render_figure("Figure 10 (workload 2)", "# of spatial tasks", TASK_COUNTS, panels),
        metrics=running_times(TASK_COUNTS, panels),
    )

    completion = panels["completion_ratio"]
    for algo, series in completion.items():
        assert series[-1] <= series[0] + 0.05, f"{algo} completion should fall with more tasks"
    # Shape: rejection is primarily a prediction-quality effect, so its
    # range across the sweep stays narrow for the predictive algorithms.
    for algo in ("ppi", "km"):
        series = panels["rejection_ratio"][algo]
        assert max(series) - min(series) < 0.35

    wl = build(TASK_COUNTS[-1])

    def simulate():
        return run_assignment(
            wl, "km", default_assignment_config(), predictor=predictors_w2["task_oriented"]
        )

    result = benchmark.pedantic(simulate, rounds=1, iterations=1)
    assert result.n_tasks == TASK_COUNTS[-1]
