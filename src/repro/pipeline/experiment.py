"""Experiment runners: prediction evaluation and assignment simulation.

``evaluate_prediction`` reproduces the mobility-prediction metric rows
(RMSE / MAE / MR / TT, in the paper's grid-cell units);
``run_assignment`` wires a snapshot provider and an assignment
algorithm into the online loop (:class:`repro.serve.engine.ServeEngine`
in its default, paper configuration) and returns the four assignment
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.assignment.baselines import km_assign, lower_bound_assign, upper_bound_assign
from repro.assignment.ggpso import GGPSOConfig, ggpso_assign
from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.assignment.matching_rate import matching_rate
from repro.data.windows import sliding_windows, trajectory_to_normalized
from repro.data.workload import Workload
from repro.pipeline.config import AssignmentConfig
from repro.pipeline.prediction import (
    CurrentLocationSnapshotProvider,
    OracleSnapshotProvider,
    PredictiveSnapshotProvider,
)
from repro.pipeline.training import TrainedPredictor
from repro.sc.entities import Worker
from repro.serve.engine import ServeConfig, ServeEngine, ServeResult

#: The algorithm families of Section IV-A.  ``predictive`` entries need a
#: trained predictor; the loss variant (``task_oriented`` vs ``mse``) is
#: chosen by the caller when training it.
ASSIGNMENT_ALGORITHMS = ("ppi", "ppi_loss", "km", "km_loss", "ggpso", "ub", "lb")


@dataclass
class PredictionReport:
    """Mobility-prediction metrics in the paper's units.

    RMSE and MAE are measured in grid-cell units (the paper maps Porto
    onto a 100x50 grid and reports ~0.9 RMSE); MR uses the km threshold
    ``a`` from the prediction config; TT is the offline training time.
    """

    rmse_cells: float
    mae_cells: float
    matching_rate: float
    training_seconds: float
    per_worker: dict[int, dict[str, float]] = field(default_factory=dict)

    def as_row(self) -> dict[str, float]:
        return {
            "RMSE": self.rmse_cells,
            "MAE": self.mae_cells,
            "MR": self.matching_rate,
            "TT": self.training_seconds,
        }


def evaluate_prediction(
    predictor: TrainedPredictor,
    workers: Sequence[Worker],
) -> PredictionReport:
    """Evaluate per-worker models on the held-out test day.

    Windows slide over each worker's test routine; predictions and
    targets are compared in grid-cell units (RMSE/MAE) and in km for
    the matching rate.
    """
    with obs.span("experiment.evaluate_prediction", workers=len(workers)):
        return _evaluate_prediction(predictor, workers)


def _evaluate_prediction(
    predictor: TrainedPredictor,
    workers: Sequence[Worker],
) -> PredictionReport:
    city = predictor.city
    cfg = predictor.config
    cell_scale = np.array([city.grid.rows, city.grid.cols], dtype=float)
    per_worker: dict[int, dict[str, float]] = {}
    sq_errors: list[np.ndarray] = []
    abs_errors: list[np.ndarray] = []
    mrs: list[float] = []

    for worker in workers:
        if worker.worker_id not in predictor.worker_params:
            continue
        norm = trajectory_to_normalized(worker.routine, city)
        x, y = sliding_windows(norm, cfg.seq_in, cfg.seq_out)
        if len(x) == 0:
            continue
        model = predictor.model_for(worker.worker_id)
        pred = model.predict(x)
        diff_cells = (pred - y) * cell_scale  # unit square -> cell units
        sq = (diff_cells**2).sum(axis=-1)  # squared Euclidean error per point
        ab = np.sqrt(sq)
        sq_errors.append(sq.ravel())
        abs_errors.append(ab.ravel())
        pred_km = city.grid.denormalize(pred.reshape(-1, 2))
        real_km = city.grid.denormalize(y.reshape(-1, 2))
        mr = matching_rate(real_km, pred_km, a=cfg.mr_threshold_km)
        mrs.append(mr)
        per_worker[worker.worker_id] = {
            "rmse": float(np.sqrt(sq.mean())),
            "mae": float(ab.mean()),
            "mr": mr,
        }

    if not sq_errors:
        raise ValueError("no worker produced test windows; test routines too short")
    return PredictionReport(
        rmse_cells=float(np.sqrt(np.concatenate(sq_errors).mean())),
        mae_cells=float(np.concatenate(abs_errors).mean()),
        matching_rate=float(np.mean(mrs)),
        training_seconds=predictor.training_seconds,
        per_worker=per_worker,
    )


def run_assignment(
    workload: Workload,
    algorithm: str,
    assignment_config: AssignmentConfig | None = None,
    predictor: TrainedPredictor | None = None,
    ggpso_config: GGPSOConfig | None = None,
    sample_step: float = 10.0,
) -> ServeResult:
    """Simulate one algorithm over the workload's test day.

    ``predictor`` is required for the predictive algorithms ("ppi",
    "ppi_loss", "km", "km_loss", "ggpso"); the caller decides which
    loss the predictor was trained with (that is the only difference
    between "ppi" and "ppi_loss" / "km" and "km_loss").
    """
    cfg = assignment_config if assignment_config is not None else AssignmentConfig()
    if algorithm not in ASSIGNMENT_ALGORITHMS:
        raise ValueError(f"unknown algorithm '{algorithm}'; pick one of {ASSIGNMENT_ALGORITHMS}")

    if algorithm == "ub":
        provider = OracleSnapshotProvider(horizon_points=cfg.horizon_points)
        assign_fn = upper_bound_assign
    elif algorithm == "lb":
        provider = CurrentLocationSnapshotProvider()
        assign_fn = lower_bound_assign
    else:
        if predictor is None:
            raise ValueError(f"algorithm '{algorithm}' needs a trained predictor")
        provider = PredictiveSnapshotProvider(predictor, cfg, sample_step=sample_step)
        if algorithm in ("ppi", "ppi_loss"):
            # Theorem 2 holds for B at the threshold MR was measured at (Def. 7).
            ppi_cfg = PPIConfig(a=predictor.config.mr_threshold_km, epsilon=cfg.ppi_epsilon)
            # Looks ppi_assign up at call time, so tracers can patch it here.
            assign_fn = lambda tasks, snaps, t: ppi_assign(tasks, snaps, t, config=ppi_cfg)
        elif algorithm in ("km", "km_loss"):
            assign_fn = km_assign
        else:  # ggpso
            g_cfg = ggpso_config if ggpso_config is not None else GGPSOConfig()
            assign_fn = lambda tasks, snaps, t: ggpso_assign(tasks, snaps, t, g_cfg)

    engine = ServeEngine(
        workload.workers,
        provider,
        ServeConfig(batch_window=cfg.batch_window, assignment_window=cfg.assignment_window),
        assign_fn=assign_fn,
    )
    t_start, t_end = workload.horizon()
    with obs.span(
        "experiment.run_assignment",
        algorithm=algorithm,
        tasks=len(workload.tasks),
        workers=len(workload.workers),
    ) as run_span:
        result = engine.run(workload.tasks, t_start, t_end)
        run_span.set(
            completed=result.n_completed,
            rejections=result.n_rejections,
            expired=result.n_expired,
        )
    return result
