"""Table VII: effect of seq_in and seq_out on workload 2 (Gowalla).

Mirror of Table V on the check-in workload.  Paper shapes: GTTAML best
throughout; performance degrades as seq_out grows; training time grows
with sequence lengths.
"""

from __future__ import annotations

import pytest

from bench_table5_seq_porto import ALGORITHMS, SEQ_IN_VALUES, SEQ_OUT_VALUES, training_seconds
from common import fewshot_prediction_config, scaled, write_result
from repro.eval.report import format_table
from repro.pipeline import WorkloadSpec, make_workload2
from repro.pipeline.experiment import evaluate_prediction
from repro.pipeline.training import train_predictor


def _evaluate_w2(seq_in: int, seq_out: int):
    spec = WorkloadSpec(
        n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1, seq_in=seq_in, seq_out=seq_out
    )
    wl, learning = make_workload2(spec)
    out = {}
    for algorithm in ALGORITHMS:
        cfg = fewshot_prediction_config(algorithm, seq_in=seq_in, seq_out=seq_out)
        predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy)
        out[algorithm] = evaluate_prediction(predictor, wl.workers).as_row()
    return out


@pytest.fixture(scope="module")
def table7_results():
    results = {}
    for seq_in in SEQ_IN_VALUES:
        results[("seq_in", seq_in)] = _evaluate_w2(seq_in, 1)
    for seq_out in SEQ_OUT_VALUES:
        if seq_out == 1:
            results[("seq_out", 1)] = results[("seq_in", 5)]
        else:
            results[("seq_out", seq_out)] = _evaluate_w2(5, seq_out)
    return results


def test_table7_seq_sweep_gowalla(benchmark, table7_results):
    rows = []
    for (kind, value), per_algo in table7_results.items():
        for metric in ("RMSE", "MAE", "MR"):
            rows.append([f"{kind}={value}", metric] + [per_algo[a][metric] for a in ALGORITHMS])
    text = format_table(
        "Table VII - effect of seq_in / seq_out on workload 2",
        ["setting", "metric", *ALGORITHMS],
        rows,
    )
    write_result(
        "table7_seq_gowalla", text, metrics={"training_seconds": training_seconds(table7_results)}
    )

    base = table7_results[("seq_in", 5)]
    assert base["gttaml"]["RMSE"] <= base["maml"]["RMSE"] * 1.05, (
        "GTTAML should not lose clearly to MAML on workload 2"
    )

    def evaluate_once():
        spec = WorkloadSpec(n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1)
        wl, learning = make_workload2(spec)
        predictor = train_predictor(
            learning, wl.city, fewshot_prediction_config("gttaml"), wl.historical_tasks_xy
        )
        return evaluate_prediction(predictor, wl.workers)

    report = benchmark.pedantic(evaluate_once, rounds=1, iterations=1)
    assert report.matching_rate >= 0.0
