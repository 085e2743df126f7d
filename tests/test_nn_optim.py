"""Tests for the optimiser and its in-place updates."""

import numpy as np
import pytest

from repro.nn.optim import Adam


def quadratic_params(start=5.0):
    return {"p": np.array([start])}


def quad_grads(params):
    """Gradients of ``sum(p * p)``."""
    return {"p": 2.0 * params["p"]}


class TestAdam:
    def test_converges_on_quadratic(self):
        params = quadratic_params()
        opt = Adam(params, lr=0.3)
        for _ in range(200):
            opt.step(quad_grads(params))
        assert abs(params["p"][0]) < 1e-3

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(quadratic_params(), betas=(1.0, 0.999))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Adam({}, lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam(quadratic_params(), lr=0.0)

    def test_bias_correction_first_step(self):
        # After one step with grad g, Adam moves by ~lr * sign(g).
        params = quadratic_params(1.0)
        opt = Adam(params, lr=0.1)
        opt.step(quad_grads(params))
        assert params["p"][0] == pytest.approx(1.0 - 0.1, abs=1e-6)


class TestInPlaceUpdates:
    """The optimiser updates parameter arrays in place: the array a
    name maps to must be the same object across steps, so a model's
    ``params`` and the optimiser's slot states stay valid."""

    def test_adam_preserves_buffer_identity(self):
        params = quadratic_params()
        buf = params["p"]
        opt = Adam(params, lr=0.1)
        for _ in range(3):
            opt.step(quad_grads(params))
        assert params["p"] is buf
        assert buf[0] != 5.0
