"""Tests for the LSTM cells: the model's initialisation and the tape
reference's cell, including numeric gradient checks."""

import numpy as np
import pytest

from repro.nn.seq2seq import make_mobility_model
from tests.tape import Tensor, leaves, lstm_cell, tape_forward


@pytest.fixture
def cell(rng):
    """The encoder cell of a model with 3 features and 4 hidden units."""
    model = make_mobility_model(input_size=3, hidden_size=4, rng=rng)
    return leaves({k: v for k, v in model.params.items() if k.startswith("encoder.")})


def zero_state(batch):
    return Tensor(np.zeros((batch, 4))), Tensor(np.zeros((batch, 4)))


class TestLSTMCell:
    def test_output_shapes(self, cell):
        h2, c2 = lstm_cell(cell, "encoder.", Tensor(np.zeros((5, 3))), *zero_state(5))
        assert h2.shape == (5, 4)
        assert c2.shape == (5, 4)

    def test_forget_bias_initialised_open(self, rng):
        model = make_mobility_model(input_size=3, hidden_size=4, rng=rng)
        for part in ("encoder", "decoder"):
            bias = model.params[f"{part}.bias"]
            assert np.allclose(bias[4:8], 1.0)
            assert np.allclose(bias[:4], 0.0)
            assert np.allclose(bias[8:], 0.0)

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ValueError):
            make_mobility_model(input_size=0, hidden_size=4, rng=rng)
        with pytest.raises(ValueError):
            make_mobility_model(input_size=2, hidden_size=0, rng=rng)

    def test_state_evolves(self, cell, rng):
        h2, _ = lstm_cell(cell, "encoder.", Tensor(rng.normal(size=(1, 3))), *zero_state(1))
        assert not np.allclose(h2.data, 0.0)

    def test_gradient_matches_finite_difference(self, cell, rng):
        x_data = rng.normal(size=(2, 3))

        def loss():
            h2, c2 = lstm_cell(cell, "encoder.", Tensor(x_data), *zero_state(2))
            return (h2 * h2).sum() + c2.sum()

        loss().backward()
        eps = 1e-6
        for name, p in cell.items():
            idx = (0,) if p.data.ndim == 1 else (0, 1)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            fp = loss().item()
            p.data[idx] = orig - eps
            fm = loss().item()
            p.data[idx] = orig
            num = (fp - fm) / (2 * eps)
            assert p.grad[idx] == pytest.approx(num, abs=1e-5), name


class TestLSTMLayer:
    def test_rejects_2d_input(self, rng):
        params = leaves(make_mobility_model(hidden_size=6, rng=rng).params)
        with pytest.raises(ValueError):
            tape_forward(params, Tensor(np.zeros((3, 2))), seq_out=1)

    def test_gradient_flows_through_time(self, rng):
        params = leaves(make_mobility_model(hidden_size=4, rng=rng).params)
        x = Tensor(rng.normal(size=(1, 6, 2)), requires_grad=True)
        tape_forward(params, x, seq_out=1).sum().backward()
        # Even the first time step receives gradient.
        assert np.any(np.abs(x.grad[0, 0]) > 0)
