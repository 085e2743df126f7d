"""Tests for the model's named parameter arrays and their helpers."""

import numpy as np
import pytest

from repro.nn.optim import apply_gradient_step, flatten_gradients
from repro.nn.seq2seq import make_mobility_model


@pytest.fixture
def model(rng):
    return make_mobility_model(input_size=2, hidden_size=4, seq_out=1, rng=rng)


class TestRegistration:
    def test_named_parameters_are_qualified(self, model):
        assert list(model.params) == [
            "encoder.w_ih", "encoder.w_hh", "encoder.bias",
            "decoder.w_ih", "decoder.w_hh", "decoder.bias",
            "head.weight", "head.bias",
        ]

    def test_parameter_count(self, model):
        # 2 * (2*16 + 4*16 + 16) + (4*2 + 2)
        assert sum(p.size for p in model.params.values()) == 234


class TestStateDict:
    def test_roundtrip(self, model, rng):
        state = model.state_dict()
        other = make_mobility_model(input_size=2, hidden_size=4, rng=np.random.default_rng(999))
        other.load_state_dict(state)
        x = rng.normal(size=(5, 3, 2))
        assert np.array_equal(model.predict(x), other.predict(x))

    def test_state_dict_is_a_copy(self, model):
        state = model.state_dict()
        state["encoder.w_ih"][:] = 0.0
        assert not np.allclose(model.params["encoder.w_ih"], 0.0)

    def test_load_rejects_missing_keys(self, model):
        state = model.state_dict()
        del state["encoder.w_ih"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_rejects_wrong_shape(self, model):
        state = model.state_dict()
        state["encoder.w_ih"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestParamHelpers:
    def test_apply_gradient_step(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, 0.5])}
        stepped = apply_gradient_step(params, grads, lr=1.0)
        assert np.allclose(stepped["w"], [0.5, 1.5])
        assert np.allclose(params["w"], [1.0, 2.0])

    def test_apply_gradient_step_missing_grad_is_copy(self):
        params = {"w": np.array([1.0])}
        stepped = apply_gradient_step(params, {}, lr=1.0)
        assert np.allclose(stepped["w"], [1.0])
        assert stepped["w"] is not params["w"]

    def test_flatten_gradients(self):
        g = flatten_gradients({"b": np.ones(2), "a": np.zeros(3)})
        assert np.allclose(g, [0, 0, 0, 1, 1])  # sorted: a then b
