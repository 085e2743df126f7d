"""Tests for the module system and functional-parameter machinery."""

import numpy as np
import pytest

from repro.nn.module import (
    Module,
    ParamContext,
    Parameter,
    apply_gradient_step,
    clone_parameters,
    flatten_gradients,
)
from repro.nn.layers import MLP, Linear
from repro.nn.tensor import Tensor


@pytest.fixture
def mlp(rng):
    return MLP([2, 4, 1], rng)


class TestRegistration:
    def test_named_parameters_are_qualified(self, mlp):
        names = {n for n, _ in mlp.named_parameters()}
        assert "layer0.weight" in names
        assert "layer1.bias" in names

    def test_parameter_count(self, mlp):
        # (2*4 + 4) + (4*1 + 1)
        assert mlp.n_parameters() == 17

    def test_zero_grad(self, mlp):
        x = Tensor(np.ones((3, 2)))
        mlp(x).sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestStateDict:
    def test_roundtrip(self, mlp, rng):
        state = mlp.state_dict()
        other = MLP([2, 4, 1], np.random.default_rng(999))
        other.load_state_dict(state)
        x = Tensor(rng.normal(size=(5, 2)))
        assert np.allclose(mlp(x).numpy(), other(x).numpy())

    def test_state_dict_is_a_copy(self, mlp):
        state = mlp.state_dict()
        state["layer0.weight"][:] = 0.0
        assert not np.allclose(mlp.layer0.weight.data, 0.0)

    def test_load_rejects_missing_keys(self, mlp):
        state = mlp.state_dict()
        del state["layer0.weight"]
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_load_rejects_wrong_shape(self, mlp):
        state = mlp.state_dict()
        state["layer0.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)


class TestFunctionalCall:
    def test_identity_override(self, mlp, rng):
        x = Tensor(rng.normal(size=(4, 2)))
        overrides = clone_parameters(mlp)
        assert np.allclose(mlp(x).numpy(), mlp.functional_call(overrides, x).numpy())

    def test_modified_override_changes_output(self, mlp, rng):
        x = Tensor(rng.normal(size=(4, 2)))
        overrides = clone_parameters(mlp)
        overrides["layer1.bias"] = Tensor(np.array([100.0]), requires_grad=True)
        out = mlp.functional_call(overrides, x)
        assert np.all(out.numpy() > 50.0)

    def test_gradients_flow_to_overrides_not_module(self, mlp, rng):
        x = Tensor(rng.normal(size=(4, 2)))
        overrides = clone_parameters(mlp)
        mlp.zero_grad()
        mlp.functional_call(overrides, x).sum().backward()
        assert all(p.grad is None for p in mlp.parameters())
        assert any(t.grad is not None for t in overrides.values())

    def test_context_narrowing(self):
        ctx = ParamContext({"encoder.w": Tensor([1.0]), "head.b": Tensor([2.0])})
        sub = ctx.narrowed("encoder.")
        assert sub is not None
        assert sub.resolve("w", Tensor([0.0])).numpy()[0] == 1.0
        assert ctx.narrowed("decoder.") is None


class TestParamHelpers:
    def test_apply_gradient_step(self):
        params = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        grads = {"w": np.array([0.5, 0.5])}
        stepped = apply_gradient_step(params, grads, lr=1.0)
        assert np.allclose(stepped["w"].data, [0.5, 1.5])
        assert stepped["w"] is not params["w"]

    def test_apply_gradient_step_missing_grad_is_copy(self):
        params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        stepped = apply_gradient_step(params, {}, lr=1.0)
        assert np.allclose(stepped["w"].data, [1.0])

    def test_flatten_gradients(self):
        g = flatten_gradients({"b": np.ones(2), "a": np.zeros(3)})
        assert np.allclose(g, [0, 0, 0, 1, 1])  # sorted: a then b


class TestLinear:
    def test_shapes(self, rng):
        lin = Linear(3, 5, rng)
        out = lin(Tensor(np.zeros((7, 3))))
        assert out.shape == (7, 5)

    def test_no_bias(self, rng):
        lin = Linear(3, 5, rng, bias=False)
        names = {n for n, _ in lin.named_parameters()}
        assert names == {"weight"}

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 5, rng)

    def test_mlp_rejects_short_spec(self, rng):
        with pytest.raises(ValueError):
            MLP([3], rng)
