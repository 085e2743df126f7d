"""Table V: effect of seq_in and seq_out on workload 1 (Porto).

Rows: seq_in in {1, 5, 10} and seq_out in {1, 2, 3}; columns: the four
meta-learners x RMSE/MAE/MR (the wall-time TT goes to the run manifest, so
the table regenerates byte for byte).  Paper shapes: GTTAML best throughout;
longer outputs are harder for everyone; training time grows with the
sequence lengths and with algorithm sophistication.
"""

from __future__ import annotations

import pytest

from common import fewshot_prediction_config, scaled, write_result
from repro.eval.report import format_table
from repro.pipeline import WorkloadSpec, make_workload1
from repro.pipeline.experiment import evaluate_prediction
from repro.pipeline.training import train_predictor

ALGORITHMS = ("maml", "ctml", "gttaml_gt", "gttaml")
SEQ_IN_VALUES = (1, 5, 10)
SEQ_OUT_VALUES = (1, 2, 3)


def _evaluate(seq_in: int, seq_out: int):
    spec = WorkloadSpec(
        n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1, seq_in=seq_in, seq_out=seq_out
    )
    wl, learning = make_workload1(spec)
    out = {}
    for algorithm in ALGORITHMS:
        cfg = fewshot_prediction_config(algorithm, seq_in=seq_in, seq_out=seq_out)
        predictor = train_predictor(learning, wl.city, cfg, wl.historical_tasks_xy)
        out[algorithm] = evaluate_prediction(predictor, wl.workers).as_row()
    return out


@pytest.fixture(scope="module")
def table5_results():
    results = {}
    for seq_in in SEQ_IN_VALUES:
        results[("seq_in", seq_in)] = _evaluate(seq_in, 1)
    for seq_out in SEQ_OUT_VALUES:
        if seq_out == 1:
            # seq_in=5/seq_out=1 is shared between both halves of the table.
            results[("seq_out", 1)] = results[("seq_in", 5)]
        else:
            results[("seq_out", seq_out)] = _evaluate(5, seq_out)
    return results


def training_seconds(results) -> dict[str, dict[str, float]]:
    """The wall-time TT row as manifest metrics: ``{setting: {algorithm: s}}``."""
    return {
        f"{kind}={value}": {a: per_algo[a]["TT"] for a in ALGORITHMS}
        for (kind, value), per_algo in results.items()
    }


def _render(results) -> str:
    rows = []
    for (kind, value), per_algo in results.items():
        for metric in ("RMSE", "MAE", "MR"):
            rows.append(
                [f"{kind}={value}", metric] + [per_algo[a][metric] for a in ALGORITHMS]
            )
    return format_table(
        "Table V - effect of seq_in / seq_out on workload 1",
        ["setting", "metric", *ALGORITHMS],
        rows,
    )


def test_table5_seq_sweep(benchmark, table5_results):
    write_result(
        "table5_seq_porto",
        _render(table5_results),
        metrics={"training_seconds": training_seconds(table5_results)},
    )

    # Shape assertions.
    base = table5_results[("seq_in", 5)]
    assert base["gttaml"]["MR"] >= base["maml"]["MR"], "GTTAML should beat MAML on MR"
    assert base["gttaml"]["RMSE"] <= base["maml"]["RMSE"], "GTTAML should beat MAML on RMSE"
    assert base["gttaml"]["TT"] >= base["maml"]["TT"], "clustering costs training time"
    # Longer prediction horizons are harder (Table V, lower block).
    assert (
        table5_results[("seq_out", 3)]["gttaml"]["RMSE"]
        >= table5_results[("seq_out", 1)]["gttaml"]["RMSE"]
    )

    # Benchmark target: one full GTTAML offline training at the default lengths.
    spec = WorkloadSpec(n_workers=scaled(20), n_tasks=60, n_train_days=2, seed=1)
    wl, learning = make_workload1(spec)

    def train_once():
        return train_predictor(
            learning, wl.city, fewshot_prediction_config("gttaml"), wl.historical_tasks_xy
        )

    predictor = benchmark.pedantic(train_once, rounds=1, iterations=1)
    assert predictor.worker_params
