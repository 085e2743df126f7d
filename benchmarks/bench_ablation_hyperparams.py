"""Ablations over the design choices DESIGN.md calls out.

Not a paper table, but each sweep probes a knob the paper fixes:

* gamma — the singleton utility controlling cluster granularity;
* epsilon — PPI's stage-2 chunk size (match quality vs KM calls);
* FOMAML vs Reptile outer updates;
* the task-oriented loss's d_q / kappa influence on assignment.
"""

from __future__ import annotations

import pytest

from common import (
    assignment_prediction_config,
    default_assignment_config,
    fewshot_prediction_config,
    scaled,
    write_result,
)
from repro.eval.report import format_table
from repro.meta.gtmc import GTMCConfig
from repro.meta.maml import MAMLConfig
from repro.pipeline import WorkloadSpec, make_workload1
from repro.pipeline.config import AssignmentConfig, PredictionConfig
from repro.pipeline.experiment import evaluate_prediction, run_assignment
from repro.pipeline.training import train_predictor


@pytest.fixture(scope="module")
def ablation_workload():
    spec = WorkloadSpec(n_workers=scaled(12), n_tasks=scaled(300), n_train_days=3, seed=2)
    return make_workload1(spec)


def test_ablation_gamma(benchmark, ablation_workload):
    """gamma sweeps cluster granularity: higher gamma, more singletons."""
    wl, learning = ablation_workload
    rows = []
    for gamma in (0.05, 0.2, 0.5, 0.8):
        base = fewshot_prediction_config("gttaml")
        cfg = PredictionConfig(
            algorithm="gttaml",
            loss="mse",
            hidden_size=base.hidden_size,
            mr_threshold_km=base.mr_threshold_km,
            seed=base.seed,
            fine_tune_optimizer="sgd",
            fine_tune_steps=5,
            fine_tune_lr=0.1,
            maml=base.maml,
            gtmc=GTMCConfig(gamma=gamma),
        )
        predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy)
        report = evaluate_prediction(predictor, wl.workers)
        n_leaves = len(predictor.tree.leaves())
        rows.append([gamma, n_leaves, report.rmse_cells, report.matching_rate])
    text = format_table(
        "Ablation - gamma (singleton utility) vs tree granularity",
        ["gamma", "leaves", "RMSE", "MR"],
        rows,
    )
    write_result("ablation_gamma", text)
    leaves = [r[1] for r in rows]
    assert leaves[-1] >= leaves[0], "higher gamma should not merge clusters"
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)


def test_ablation_epsilon(benchmark, ablation_workload):
    """PPI's stage-2 chunk size epsilon: small chunks call KM more often."""
    wl, learning = ablation_workload
    predictor = train_predictor(
        learning, wl.city, assignment_prediction_config("task_oriented", seed=2), wl.historical_tasks_xy
    )
    rows = []
    for epsilon in (1, 4, 8, 16):
        cfg = AssignmentConfig(ppi_epsilon=epsilon)
        m = run_assignment(wl, "ppi", cfg, predictor=predictor).metrics()
        rows.append([epsilon, m.completion_ratio, m.rejection_ratio, m.running_seconds])
    text = format_table(
        "Ablation - PPI stage-2 chunk size epsilon",
        ["epsilon", "completion", "rejection", "time(s)"],
        rows,
    )
    write_result("ablation_epsilon", text)
    completions = [r[1] for r in rows]
    assert max(completions) - min(completions) < 0.15, "epsilon should be a mild knob"
    benchmark.pedantic(
        lambda: run_assignment(wl, "ppi", default_assignment_config(), predictor=predictor),
        rounds=1,
        iterations=1,
    )


def test_ablation_outer_update(benchmark, ablation_workload):
    """FOMAML vs Reptile outer updates (DESIGN.md §5)."""
    wl, learning = ablation_workload
    rows = []
    seconds = {}
    for outer, meta_lr in (("fomaml", 0.05), ("reptile", 0.5)):
        cfg = PredictionConfig(
            algorithm="maml",
            loss="mse",
            hidden_size=16,
            mr_threshold_km=0.3,
            seed=2,
            fine_tune_optimizer="sgd",
            fine_tune_steps=5,
            fine_tune_lr=0.1,
            maml=MAMLConfig(
                iterations=25, meta_batch=4, inner_steps=3, support_batch=16,
                outer=outer, meta_lr=meta_lr,
            ),
        )
        predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy)
        report = evaluate_prediction(predictor, wl.workers)
        rows.append([outer, report.rmse_cells, report.matching_rate])
        seconds[outer] = report.training_seconds
    text = format_table(
        "Ablation - FOMAML vs Reptile outer update",
        ["outer", "RMSE", "MR"],
        rows,
    )
    write_result("ablation_outer_update", text, metrics={"training_seconds": seconds})
    assert all(r[2] >= 0.0 for r in rows)
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)


def test_ablation_loss_weighting(benchmark, ablation_workload):
    """kappa sweeps the strength of the task-oriented re-weighting."""
    wl, learning = ablation_workload
    rows = []
    for kappa in (0.1, 0.5, 0.9):
        cfg = PredictionConfig(
            algorithm="gttaml",
            loss="task_oriented",
            hidden_size=16,
            mr_threshold_km=0.3,
            seed=2,
            fine_tune_optimizer="adam",
            fine_tune_steps=40,
            fine_tune_lr=0.01,
            maml=MAMLConfig(iterations=10, meta_batch=4, inner_steps=2, support_batch=12),
            loss_kappa=kappa,
        )
        predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy)
        m = run_assignment(wl, "ppi", AssignmentConfig(), predictor=predictor).metrics()
        rows.append([kappa, m.completion_ratio, m.rejection_ratio, m.worker_cost_km])
    text = format_table(
        "Ablation - task-oriented loss strength kappa",
        ["kappa", "completion", "rejection", "cost(km)"],
        rows,
    )
    write_result("ablation_loss_kappa", text)
    assert all(0.0 <= r[1] <= 1.0 for r in rows)
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
