"""The task assignment-oriented loss, visualised in numbers (Eqs. 6-7).

Section III-C's argument: a prediction error next to a task hotspot
costs assignments; the same error in a task desert costs nothing.  The
weighted loss therefore spends model capacity where tasks live.

This example trains one worker's model twice — once with plain MSE and
once with the task-oriented loss — and reports prediction error
*stratified by local task density*: the oriented loss should win in
the dense stratum, possibly at the expense of the sparse one.

Run:  python examples/loss_alignment.py
"""

from __future__ import annotations

import numpy as np

from repro.data import PortoConfig, build_learning_tasks, generate_porto_workers
from repro.data.didi import historical_task_locations
from repro.nn import Adam, LSTMEncoderDecoder, fused
from repro.nn.losses import TaskDensityWeighter, mse_loss


def train(model, x, y, loss_fn, steps=120, lr=0.01):
    optimizer = Adam(model.params, lr=lr)
    for _ in range(steps):
        _, grads = fused.loss_and_grads(model, model.params, x, y, loss_fn)
        optimizer.step(grads)
    return model


def main() -> None:
    city, workers = generate_porto_workers(PortoConfig(n_workers=6, n_train_days=5, seed=5))
    hist_xy = historical_task_locations(city, 400, seed=6)
    learning = build_learning_tasks(
        {w.worker_id: w.history for w in workers}, city, seq_in=5, seq_out=1
    )

    # The weighter works in normalised model space.
    norm_tasks = city.grid.normalize(hist_xy)
    scale = (city.grid.width_km + city.grid.height_km) / 2.0
    weighter = TaskDensityWeighter(norm_tasks, d_q=1.0 / scale, kappa=0.5, delta=0.5)

    print(f"{'worker':>6} {'stratum':>8} {'MSE-model err':>14} {'oriented err':>13} {'winner':>9}")
    dense_wins = 0
    comparisons = 0
    for task in learning:
        x, y = task.support_x, task.support_y
        qx, qy = task.query_x, task.query_y
        if len(qx) < 4:
            continue
        mse_model = train(LSTMEncoderDecoder(2, 16, 1, np.random.default_rng(0)), x, y, mse_loss)
        oriented_model = train(
            LSTMEncoderDecoder(2, 16, 1, np.random.default_rng(0)), x, y, weighter.loss
        )

        # Stratify query points by local historical-task density.
        weights = weighter.weights(qy.reshape(-1, 2))
        dense = weights > np.median(weights)
        if dense.all() or (~dense).all():
            continue

        def per_point_error(model):
            pred = model.predict(qx).reshape(-1, 2)
            return np.sqrt(((pred - qy.reshape(-1, 2)) ** 2).sum(axis=1))

        err_mse = per_point_error(mse_model)
        err_oriented = per_point_error(oriented_model)
        for stratum, mask in (("dense", dense), ("sparse", ~dense)):
            a, b = err_mse[mask].mean(), err_oriented[mask].mean()
            winner = "oriented" if b < a else "mse"
            print(f"{task.worker_id:>6} {stratum:>8} {a:>14.5f} {b:>13.5f} {winner:>9}")
            if stratum == "dense":
                comparisons += 1
                dense_wins += winner == "oriented"

    print(
        f"\noriented loss wins the task-dense stratum for {dense_wins}/{comparisons} workers - "
        "the alignment Eq. 6 is designed to buy."
    )


if __name__ == "__main__":
    main()
