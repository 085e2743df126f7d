"""Table IV: effect of learning task clustering algorithm and factors (Porto).

Rows: {GTMC, k-means} x factor subsets {d}, {s}, {l}, {d+s}, {d+s+l};
columns: RMSE, MAE, MR (the wall-time TT goes to the run manifest, so the
table regenerates byte for byte).  Paper shapes to reproduce: adding factors
improves quality monotonically-ish; the distribution factor is the
strongest single factor; GTMC beats k-means at equal factor sets; more
factors cost more training time.
"""

from __future__ import annotations

import pytest

from common import fewshot_prediction_config, scaled, write_result
from repro.eval.report import format_table
from repro.meta.features import build_similarity_matrices
from repro.meta.gtmc import GTMCConfig, gtmc_cluster
from repro.pipeline import WorkloadSpec, make_workload1
from repro.pipeline.experiment import evaluate_prediction
from repro.pipeline.training import (
    build_loss,
    make_model_factory,
    probe_learning_paths,
    train_predictor,
)

FACTOR_SETS = [
    ("distribution",),
    ("spatial",),
    ("learning_path",),
    ("distribution", "spatial"),
    ("distribution", "spatial", "learning_path"),
]


@pytest.fixture(scope="module")
def fewshot_workload1():
    """Scarce-history population: the regime where initialisation
    quality (what clustering changes) dominates."""
    spec = WorkloadSpec(n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1)
    return make_workload1(spec)


def _factor_label(factors):
    flags = {"distribution": "d", "spatial": "s", "learning_path": "l"}
    return "+".join(flags[f] for f in factors)


def test_table4_cluster_ablation(benchmark, fewshot_workload1):
    wl, learning = fewshot_workload1
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
        "Table IV - effect of clustering algorithm and factors (workload 1)",
        ["cluster", "factors", "RMSE", "MAE", "MR"],
        rows,
    )
    write_result("table4_cluster_ablation", text, metrics={"training_seconds": seconds})

    # Shape assertions (soft reproduction targets).
    all_three = ("distribution", "spatial", "learning_path")
    assert results[("GTMC", all_three)]["MR"] >= results[("GTMC", ("learning_path",))]["MR"], (
        "all factors should beat the weakest single factor under GTMC"
    )
    assert (
        results[("GTMC", all_three)]["RMSE"] <= results[("k-means", all_three)]["RMSE"] * 1.1
    ), "GTMC should be competitive with k-means at the full factor set"

    # Benchmark target: one GTMC clustering pass on the full factor set.
    loss_fn = build_loss(fewshot_prediction_config("gttaml"), wl.city, wl.historical_tasks_xy)
    factory = make_model_factory(fewshot_prediction_config("gttaml"))
    paths = probe_learning_paths(learning, factory, loss_fn, steps=3, lr=0.1, seed=1)
    sims = build_similarity_matrices(learning, paths, factors=all_three)

    def cluster_once():
        return gtmc_cluster(learning, sims, GTMCConfig(factors=all_three))

    tree = benchmark.pedantic(cluster_once, rounds=3, iterations=1)
    assert tree.n_nodes() >= 1
