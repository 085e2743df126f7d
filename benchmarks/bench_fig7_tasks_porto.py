"""Figure 7: effect of the number of spatial tasks on workload 1.

Sweeps the task count (paper: 1K-5K; scaled here) and reports the four
panels.  Paper shapes: completion falls as tasks outgrow the worker
pool; running time grows with the task count; PPI leads the practical
algorithms; GGPSO is slowest.
"""

from __future__ import annotations

from statistics import median

from common import default_assignment_config, scaled, write_result
from conftest import _default_spec
from figures import render_figure, run_sweep, running_times
from repro.assignment.ggpso import GGPSOConfig
from repro.pipeline import make_workload1
from repro.pipeline.experiment import run_assignment

TASK_COUNTS = tuple(scaled(n) for n in (150, 300, 450, 600, 750))

#: KM runs per end of the sweep for the running-time shape, alternated
#: between the two ends so host load falls on both alike.
RUNTIME_REPEATS = 5


def test_fig7_task_count_sweep(benchmark, predictors_w1):
    def build(n_tasks):
        wl, _ = make_workload1(_default_spec(n_tasks=int(n_tasks)))
        return wl

    panels = run_sweep(
        build,
        TASK_COUNTS,
        predictors_w1,
        ggpso_config=GGPSOConfig(generations=15, population_size=12),
    )
    write_result(
        "fig7_tasks_porto",
        render_figure("Figure 7 (workload 1)", "# of spatial tasks", TASK_COUNTS, panels),
        metrics=running_times(TASK_COUNTS, panels),
    )

    completion = panels["completion_ratio"]
    runtime = panels["running_seconds"]
    # Shape: completion declines as the task load grows (workers are finite).
    for algo, series in completion.items():
        assert series[-1] <= series[0] + 0.05, f"{algo} completion should fall with more tasks"
    # Shape: GGPSO is the slowest throughout.
    assert all(
        runtime["ggpso"][i] >= runtime["km"][i] for i in range(len(TASK_COUNTS))
    ), "the evolutionary baseline should be the slowest"

    def simulate_km(workload):
        return run_assignment(
            workload, "km", default_assignment_config(), predictor=predictors_w1["task_oriented"]
        )

    # Shape: KM's running time grows with the task count, as a median of
    # alternating repeats at the two ends of the sweep (one sample per
    # point is within host noise at these sizes).
    smallest, wl = build(TASK_COUNTS[0]), build(TASK_COUNTS[-1])
    first: list[float] = []
    last: list[float] = []
    for _ in range(RUNTIME_REPEATS):
        first.append(simulate_km(smallest).metrics().running_seconds)
        last.append(simulate_km(wl).metrics().running_seconds)
    assert median(last) >= median(first), (first, last)

    # Benchmark target: one KM simulation at the largest task count.
    result = benchmark.pedantic(simulate_km, args=(wl,), rounds=1, iterations=1)
    assert result.n_tasks == TASK_COUNTS[-1]
