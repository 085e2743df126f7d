"""Tests for the LSTM encoder-decoder mobility model."""

import hashlib

import numpy as np
import pytest

from repro.nn import fused
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.seq2seq import LSTMEncoderDecoder, make_mobility_model


@pytest.fixture
def model(rng):
    return LSTMEncoderDecoder(input_size=2, hidden_size=8, seq_out=2, rng=rng)


class TestShapes:
    def test_forward_shape(self, model, rng):
        x = rng.normal(size=(4, 5, 2))
        assert fused.seq2seq_predict(model, model.params, x).shape == (4, 2, 2)

    def test_rejects_bad_seq_out(self, rng):
        with pytest.raises(ValueError):
            LSTMEncoderDecoder(seq_out=0, rng=rng)

    def test_predict_numpy_roundtrip(self, model, rng):
        single = rng.normal(size=(5, 2))
        out = model.predict(single)
        assert out.shape == (2, 2)
        batch = model.predict(single[None])
        assert batch.shape == (1, 2, 2)
        assert np.allclose(batch[0], out)


class TestBehaviour:
    def test_residual_head_keeps_output_near_input(self, rng):
        """With near-zero head weights, predictions stay near the last point."""
        model = LSTMEncoderDecoder(2, 8, seq_out=3, rng=rng)
        for name in ("head.weight", "head.bias"):
            model.params[name] = model.params[name] * 0.0
        x = rng.normal(size=(2, 4, 2))
        pred = model.predict(x)
        last = x[:, -1:, :]
        assert np.allclose(pred, np.repeat(last, 3, axis=1))

    def test_teacher_forcing_changes_later_steps_only(self, model, rng):
        x = rng.normal(size=(2, 4, 2))
        targets = rng.normal(size=(2, 2, 2))
        free = fused.seq2seq_predict(model, model.params, x)
        forced = fused.seq2seq_predict(model, model.params, x, targets=targets)
        assert np.allclose(free[:, 0], forced[:, 0])  # first step identical
        assert not np.allclose(free[:, 1], forced[:, 1])


class TestTraining:
    def test_learns_constant_displacement(self, rng):
        """The model should learn 'keep moving by +delta' quickly."""
        model = LSTMEncoderDecoder(2, 8, seq_out=1, rng=rng)
        delta = np.array([0.05, -0.02])
        starts = rng.uniform(0, 1, size=(64, 1, 2))
        steps = np.arange(5).reshape(1, 5, 1)
        x = starts + steps * delta
        y = x[:, -1:, :] + delta
        opt = Adam(model.params, lr=0.01)
        first_loss = None
        for _ in range(60):
            loss, grads = fused.loss_and_grads(model, model.params, x, y, mse_loss)
            if first_loss is None:
                first_loss = loss
            opt.step(grads)
        final, _ = mse_loss(model.predict(x), y)
        assert final < first_loss * 0.2


class TestFormat:
    """The model's state-dict format is pinned: keys, shapes and the
    initial values drawn from a seeded rng.  A renamed key or a
    reordered init draw breaks saved predictors and fails here."""

    SHAPES = {
        "decoder.bias": (20,),
        "decoder.w_hh": (5, 20),
        "decoder.w_ih": (2, 20),
        "encoder.bias": (20,),
        "encoder.w_hh": (5, 20),
        "encoder.w_ih": (2, 20),
        "head.bias": (2,),
        "head.weight": (5, 2),
    }
    SHA256 = "5445dae1d7cbe304d547164d9ebcc71a542d9452f5616a45980108a81c77c202"

    def test_state_dict_keys_shapes_and_values_are_pinned(self):
        state = make_mobility_model(
            input_size=2, hidden_size=5, seq_out=2, rng=np.random.default_rng(0)
        ).state_dict()
        assert {name: arr.shape for name, arr in state.items()} == self.SHAPES
        digest = hashlib.sha256()
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name], dtype=np.float64)
            digest.update(name.encode())
            digest.update(repr(arr.shape).encode())
            digest.update(arr.tobytes())
        assert digest.hexdigest() == self.SHA256
