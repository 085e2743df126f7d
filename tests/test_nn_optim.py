"""Tests for optimisers and gradient clipping."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return Tensor(np.array([start]), requires_grad=True)


def quad_loss(p):
    return (p * p).sum()


class TestSGD:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_non_grad_param(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0])], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.0)

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            quad_loss(p).backward()
            opt.step()
        assert abs(p.data[0]) < 1e-4

    def test_momentum_accelerates(self):
        def run(momentum):
            p = quadratic_param()
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                quad_loss(p).backward()
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_skips_params_without_grad(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward -> no grad -> no change
        assert p.data[0] == 5.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            quad_loss(p).backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.999))

    def test_bias_correction_first_step(self):
        # After one step with grad g, Adam moves by ~lr * sign(g).
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        quad_loss(p).backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


class TestInPlaceUpdates:
    """The optimisers update parameter buffers in place (satellite of the
    fast-path PR): the array object a parameter holds must be the same
    object across steps, so views and optimiser slot states stay valid."""

    def _run_steps(self, opt, p, steps=3):
        for _ in range(steps):
            opt.zero_grad()
            quad_loss(p).backward()
            opt.step()

    def test_sgd_preserves_buffer_identity(self):
        p = quadratic_param()
        buf = p.data
        self._run_steps(SGD([p], lr=0.1), p)
        assert p.data is buf
        assert buf[0] != 5.0  # and it actually moved

    def test_sgd_momentum_preserves_buffer_identity(self):
        p = quadratic_param()
        buf = p.data
        self._run_steps(SGD([p], lr=0.1, momentum=0.9), p)
        assert p.data is buf

    def test_adam_preserves_buffer_identity(self):
        p = quadratic_param()
        buf = p.data
        self._run_steps(Adam([p], lr=0.1), p)
        assert p.data is buf
        assert buf[0] != 5.0
