"""Table VI: clustering algorithm and factor ablation on workload 2 (Gowalla).

Mirror of Table IV on the check-in workload.  Paper shapes: the
distribution factor remains the strongest single factor; combining all
three is best; GTMC beats k-means at equal factor sets.
"""

from __future__ import annotations

import pytest

from bench_table4_cluster_ablation import FACTOR_SETS, _factor_label
from common import fewshot_prediction_config, scaled, write_result
from repro.eval.report import format_table
from repro.pipeline import WorkloadSpec, make_workload2
from repro.pipeline.experiment import evaluate_prediction
from repro.pipeline.training import train_predictor


@pytest.fixture(scope="module")
def fewshot_workload2():
    spec = WorkloadSpec(n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1)
    return make_workload2(spec)


def test_table6_cluster_ablation_gowalla(benchmark, fewshot_workload2):
    wl, learning = fewshot_workload2
    rows = []
    results = {}
    seconds = {}
    for cluster_algo, algorithm in (("GTMC", "gttaml"), ("k-means", "gttaml_gt")):
        for factors in FACTOR_SETS:
            cfg = fewshot_prediction_config(algorithm)
            predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy, factors=factors)
            report = evaluate_prediction(predictor, wl.workers)
            row = report.as_row()
            results[(cluster_algo, factors)] = row
            rows.append([cluster_algo, _factor_label(factors), row["RMSE"], row["MAE"], row["MR"]])
            seconds[f"{cluster_algo}/{_factor_label(factors)}"] = row["TT"]
    text = format_table(
        "Table VI - effect of clustering algorithm and factors (workload 2)",
        ["cluster", "factors", "RMSE", "MAE", "MR"],
        rows,
    )
    write_result("table6_cluster_ablation_gowalla", text, metrics={"training_seconds": seconds})

    all_three = ("distribution", "spatial", "learning_path")
    assert results[("GTMC", all_three)]["MR"] > 0.0

    def evaluate_once():
        predictor = train_predictor(
            learning,
            wl.city,
            fewshot_prediction_config("gttaml"),
            wl.historical_tasks_xy,
            factors=("distribution",),
        )
        return evaluate_prediction(predictor, wl.workers)

    report = benchmark.pedantic(evaluate_once, rounds=1, iterations=1)
    assert report.rmse_cells > 0
