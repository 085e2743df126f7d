"""Micro-benchmarks of the from-scratch substrates.

Not a paper table — evidence that the substrates carry their weight:
the Hungarian solver against scipy, the fused forward/backward training
step of the LSTM encoder-decoder, and the Wasserstein estimators.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from common import write_result
from repro.assignment.hungarian import solve_assignment
from repro.eval.report import format_table
from repro.nn import LSTMEncoderDecoder, fused, mse_loss
from repro.similarity.distribution import sliced_wasserstein, wasserstein_exact_2d


@pytest.fixture(scope="module")
def cost_matrix():
    return np.random.default_rng(0).normal(size=(64, 64))


def test_micro_hungarian_ours(benchmark, cost_matrix):
    rows, cols = benchmark(solve_assignment, cost_matrix)
    ours = cost_matrix[rows, cols].sum()
    r, c = linear_sum_assignment(cost_matrix)
    assert ours == pytest.approx(cost_matrix[r, c].sum())


def test_micro_hungarian_scipy_reference(benchmark, cost_matrix):
    rows, cols = benchmark(linear_sum_assignment, cost_matrix)
    assert len(rows) == 64


def test_micro_lstm_forward_backward(benchmark):
    rng = np.random.default_rng(1)
    model = LSTMEncoderDecoder(2, 16, seq_out=1, rng=rng)
    x = rng.normal(size=(32, 5, 2))
    y = rng.normal(size=(32, 1, 2))

    def step():
        return fused.loss_and_grads(model, model.params, x, y, mse_loss)[1]

    grads = benchmark(step)
    assert all(np.isfinite(g).all() for g in grads.values())


def test_micro_wasserstein(benchmark):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(64, 2))
    b = rng.normal(1.0, 1.0, size=(64, 2))

    sliced = benchmark(sliced_wasserstein, a, b, 32, np.random.default_rng(0))
    exact = wasserstein_exact_2d(a, b)
    assert sliced <= exact + 1e-6

    write_result(
        "micro_wasserstein",
        format_table(
            "Sliced vs exact W1 on 64 planar samples",
            ["estimator", "value"],
            [["sliced (32 proj)", sliced], ["exact (Hungarian)", exact]],
        ),
    )
