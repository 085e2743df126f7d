"""Tests for the tape reference's autograd engine, including finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.tape import Tensor, concat, grad_of


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn(x)
        x[idx] = orig - eps
        fm = fn(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(op, x_shape, tol=1e-5, positive=False, seed=0):
    """Compare autograd and numeric gradients for a unary tensor op."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.5, 2.0, x_shape) if positive else rng.normal(size=x_shape)
    t = Tensor(data.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    num = numeric_grad(lambda arr: op(Tensor(arr)).sum().item(), data.copy())
    assert np.allclose(t.grad, num, atol=tol), f"max diff {np.abs(t.grad - num).max()}"


class TestBasics:
    def test_leaf_creation(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.shape == (2,)
        assert t.grad is None

    def test_item_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_backward_requires_scalar_or_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_backward_grad_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward(np.zeros(3))


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda t: t + 3.0, (4,))

    def test_radd(self):
        check_gradient(lambda t: 3.0 + t, (4,))

    def test_sub_and_rsub(self):
        check_gradient(lambda t: t - 2.0, (3, 2))
        check_gradient(lambda t: 2.0 - t, (3, 2))

    def test_mul(self):
        check_gradient(lambda t: t * t, (5,))

    def test_neg(self):
        check_gradient(lambda t: -t, (3,))

    def test_broadcast_add(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_mul_gradients(self):
        rng = np.random.default_rng(1)
        a_data = rng.normal(size=(2, 3))
        b_data = rng.normal(size=(3,))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, np.broadcast_to(b_data, (2, 3)))
        assert np.allclose(b.grad, a_data.sum(axis=0))


class TestMatmulGradients:
    def test_2d(self):
        rng = np.random.default_rng(2)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda arr: (Tensor(arr) @ Tensor(b_data)).sum().item(), a_data.copy())
        num_b = numeric_grad(lambda arr: (Tensor(a_data) @ Tensor(arr)).sum().item(), b_data.copy())
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_batched(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (5, 3, 4)
        assert b.grad.shape == (4, 2)


class TestNonlinearityGradients:
    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), (6,))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), (6,))

    def test_abs(self):
        check_gradient(lambda t: t.abs(), (4,), positive=True)

    def test_sigmoid_saturation_is_finite(self):
        t = Tensor([1000.0, -1000.0], requires_grad=True)
        out = t.sigmoid().sum()
        out.backward()
        assert np.all(np.isfinite(t.grad))


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0).sum(), (3, 4))
        check_gradient(lambda t: t.sum(axis=1, keepdims=True).sum(), (3, 4))

    def test_mean(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, 1.0 / 6.0)

    def test_mean_axis(self):
        check_gradient(lambda t: t.mean(axis=1).sum(), (3, 4))


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda t: t.reshape(6).sum(), (2, 3))

    def test_getitem(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 3))
        t = Tensor(data.copy(), requires_grad=True)
        t[1:3, :].sum().backward()
        expected = np.zeros((4, 3))
        expected[1:3, :] = 1.0
        assert np.allclose(t.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        out = t[np.array([0, 0, 1])].sum()
        out.backward()
        assert np.allclose(t.grad, [2.0, 1.0, 0.0])


class TestConcatStack:
    def test_concat_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, 1.0) and np.allclose(b.grad, 1.0)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat([])


class TestGraphBehaviour:
    def test_gradient_accumulates_over_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        ((a + b) * (a - b)).backward()  # (2x)^2-(3x)^2 = -5x^2, d/dx=-10x
        assert np.allclose(x.grad, [-10.0])

    def test_grad_of_clears_stale(self):
        x = Tensor([1.0], requires_grad=True)
        loss1 = (x * 2).sum()
        g1 = grad_of(loss1, {"x": x})
        loss2 = (x * 2).sum()
        g2 = grad_of(loss2, {"x": x})
        assert np.allclose(g1["x"], g2["x"])

    def test_grad_of_unused_param_is_zero(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        g = grad_of((x * 2).sum(), {"x": x, "unused": unused})
        assert np.allclose(g["unused"], 0.0)

    def test_no_grad_propagation_when_not_required(self):
        x = Tensor([1.0])
        out = (x * 2).sum()
        out.backward()
        assert x.grad is None


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 1000),
)
def test_random_expression_gradients(shape, seed):
    """Property: composite expressions match finite differences."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.3, 1.5, shape)

    def expr(t):
        return ((t * t).tanh() + t.sigmoid() * 2.0 - (t * 3.0 - 5.0).abs()).sum()

    t = Tensor(data.copy(), requires_grad=True)
    expr(t).backward()
    num = numeric_grad(lambda arr: expr(Tensor(arr)).item(), data.copy())
    assert np.allclose(t.grad, num, atol=1e-4)
