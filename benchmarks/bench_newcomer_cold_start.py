"""Newcomer cold start: the Challenge I claim, quantified.

Not a numbered table in the paper, but its central motivation: "the
constant influx of new workers introduces novel ... mobility patterns"
and prior work "resort[s] to a random strategy for dealing with new
workers".  This bench trains each meta-learner on a veteran population,
then onboards held-out newcomers with a *single day* of history and
compares their few-shot prediction error (query RMSE in km after a
fixed small adaptation budget) against a from-scratch model with the
same budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from common import fewshot_prediction_config, scaled, write_result
from repro.data import PortoConfig, build_learning_task, generate_porto_workers
from repro.data.didi import historical_task_locations
from repro.data.windows import build_learning_tasks
from repro.eval.report import format_table
from repro.meta.ctml import CTMLModelBank
from repro.meta.maml import adapt
from repro.meta.task_tree import LearningTaskTree
from repro.meta.taml import place_learning_task
from repro.nn.losses import mse_loss
from repro.pipeline.newcomer import default_newcomer_similarity
from repro.pipeline.training import make_model_factory, train_predictor

ADAPT_STEPS = 8
ADAPT_LR = 0.1


@pytest.fixture(scope="module")
def veterans_and_newcomers():
    total = scaled(24)
    n_new = max(total // 6, 3)
    city, workers = generate_porto_workers(
        PortoConfig(n_workers=total, n_train_days=3, seed=29)
    )
    newcomers = workers[-n_new:]
    veterans = workers[:-n_new]
    hist = historical_task_locations(city, 200, seed=30)
    learning = build_learning_tasks({w.worker_id: w.history for w in veterans}, city, 5, 1)
    return city, veterans, newcomers, hist, learning


def _newcomer_tasks(city, newcomers, seed=31):
    rng = np.random.default_rng(seed)
    tasks = []
    for worker in newcomers:
        task = build_learning_task(worker.worker_id, worker.history[:1], city, 5, 1, rng)
        if task is not None and len(task.query_x):
            tasks.append(task)
    return tasks


def _query_rmse_km(model, init_theta, task, city):
    """Few-shot query RMSE (km) after the fixed adaptation budget."""
    model.load_state_dict(dict(init_theta))
    model.load_state_dict(adapt(model, task, mse_loss, inner_lr=ADAPT_LR, inner_steps=ADAPT_STEPS))
    pred = model.predict(task.query_x)
    pred_km = city.grid.denormalize(pred.reshape(-1, 2))
    real_km = city.grid.denormalize(task.query_y.reshape(-1, 2))
    return float(np.sqrt(((pred_km - real_km) ** 2).sum(axis=1).mean()))


def test_newcomer_cold_start(benchmark, veterans_and_newcomers):
    city, veterans, newcomers, hist, learning = veterans_and_newcomers
    tasks = _newcomer_tasks(city, newcomers)
    assert tasks, "newcomers produced no evaluable windows"
    cfg = fewshot_prediction_config("gttaml")
    factory = make_model_factory(cfg)
    model = factory()

    results: dict[str, float] = {}
    for algorithm in ("maml", "ctml", "gttaml"):
        predictor = train_predictor(
            learning, city, fewshot_prediction_config(algorithm), hist
        )
        errors = []
        for task in tasks:
            if isinstance(predictor.tree, LearningTaskTree) and predictor.tree.theta is not None:
                node = place_learning_task(predictor.tree, task, default_newcomer_similarity)
                theta = node.theta
            elif isinstance(predictor.bank, CTMLModelBank):
                theta = predictor.bank.init_for(task)
            else:
                # MAML: the shared post-meta initialisation, approximated by
                # the mean of the veterans' adapted parameters.
                keys = next(iter(predictor.worker_params.values())).keys()
                theta = {
                    k: np.mean([p[k] for p in predictor.worker_params.values()], axis=0)
                    for k in keys
                }
            errors.append(_query_rmse_km(model, theta, task, city))
        results[algorithm] = float(np.mean(errors))

    scratch_theta = factory().state_dict()
    results["scratch"] = float(
        np.mean([_query_rmse_km(model, scratch_theta, task, city) for task in tasks])
    )

    rows = [[name, rmse] for name, rmse in results.items()]
    text = format_table(
        "Newcomer cold start - few-shot query RMSE in km "
        f"({len(tasks)} newcomers, 1 day of history, {ADAPT_STEPS} adaptation steps)",
        ["initialisation", "RMSE (km)"],
        rows,
    )
    write_result("newcomer_cold_start", text)

    # Shape: some meta-learned initialisation beats from-scratch, and the
    # tree-placed GTTAML initialisation is never clearly worse than MAML's.
    assert min(results["gttaml"], results["ctml"], results["maml"]) <= results["scratch"]
    assert results["gttaml"] <= results["maml"] * 1.10

    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
