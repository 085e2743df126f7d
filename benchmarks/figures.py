"""The shared sweep engine behind the assignment figures (Figs. 6-11).

Each figure varies one parameter (worker detour, task count, or task
valid time) and measures four panels (completion, rejection, cost,
running time) for seven algorithms.  The worker population is held
fixed across a sweep so the expensive trained predictors are reused.

The rendered figure holds the three quality panels only: they are
deterministic, so regenerating a figure reproduces its text byte for
byte.  Running times differ on every run; they go into the figure's run
manifest instead (:func:`running_times`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from common import default_assignment_config, metric_series
from repro.assignment.ggpso import GGPSOConfig
from repro.data.workload import Workload
from repro.eval.report import format_series
from repro.pipeline.config import AssignmentConfig
from repro.pipeline.experiment import run_assignment
from repro.pipeline.training import TrainedPredictor

#: The wall-time panel, kept out of the rendered text.
TIMING_PANEL = "running_seconds"

ALGORITHM_ORDER = ("ppi", "ppi_loss", "km", "km_loss", "ggpso", "ub", "lb")

PREDICTOR_FOR = {
    "ppi": "task_oriented",
    "km": "task_oriented",
    "ppi_loss": "mse",
    "km_loss": "mse",
    "ggpso": "mse",
    "ub": None,
    "lb": None,
}


def run_sweep(
    build_workload: Callable[[object], Workload],
    sweep_values: Sequence[object],
    predictors: Mapping[str, TrainedPredictor],
    assignment_config: AssignmentConfig | None = None,
    algorithms: Sequence[str] = ALGORITHM_ORDER,
    ggpso_config: GGPSOConfig | None = None,
) -> dict[str, dict[str, list[float]]]:
    """Run every algorithm at every sweep point.

    Returns ``{metric: {algorithm: [value per sweep point]}}`` in the
    four-panel layout of the paper's figures.
    """
    cfg = assignment_config if assignment_config is not None else default_assignment_config()
    g_cfg = ggpso_config if ggpso_config is not None else GGPSOConfig(generations=20, population_size=16)
    panels: dict[str, dict[str, list[float]]] = {
        metric: {algo: [] for algo in algorithms} for metric, _ in metric_series()
    }
    for value in sweep_values:
        workload = build_workload(value)
        for algo in algorithms:
            predictor_key = PREDICTOR_FOR[algo]
            predictor = predictors[predictor_key] if predictor_key else None
            result = run_assignment(
                workload, algo, cfg, predictor=predictor, ggpso_config=g_cfg
            )
            metrics = result.metrics().as_row()
            for metric, _ in metric_series():
                panels[metric][algo].append(metrics[metric])
    return panels


def render_figure(
    figure_name: str,
    x_label: str,
    sweep_values: Sequence[object],
    panels: Mapping[str, Mapping[str, list[float]]],
) -> str:
    """Render the quality panels as stacked text series."""
    blocks = []
    for metric, label in metric_series():
        if metric == TIMING_PANEL:
            continue
        blocks.append(
            format_series(
                f"{figure_name} - {label} vs {x_label}",
                x_label,
                list(sweep_values),
                dict(panels[metric]),
            )
        )
    return "\n\n".join(blocks)


def running_times(
    sweep_values: Sequence[object],
    panels: Mapping[str, Mapping[str, list[float]]],
) -> dict[str, dict[str, dict[str, float]]]:
    """The running-time panel as manifest metrics:
    ``{"running_seconds": {algorithm: {sweep value: seconds}}}``."""
    return {
        TIMING_PANEL: {
            algo: dict(zip(map(str, sweep_values), series))
            for algo, series in panels[TIMING_PANEL].items()
        }
    }
