"""The LSTM encoder-decoder: the one mobility and demand model.

Given the last ``seq_in`` trajectory points (normalised grid
coordinates) the model autoregressively emits the next ``seq_out``
points.  This is the concrete instantiation of Definition 3, built
from LSTM units as in the paper; the demand forecaster of
:mod:`repro.forecast.models` reuses it over cell counts.  The model is
its named float64 parameter arrays; the fused BPTT kernels of
:mod:`repro.nn.fused` run and train it.

The encoder and the decoder are LSTM cells with the fused gate order
``[input, forget, cell-candidate, output]`` and the forget gate biased
open at initialisation; a residual linear head maps each decoder state
to the displacement from the previous point.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nn import fused, init


class LSTMEncoderDecoder:
    """Seq2seq trajectory regressor.

    Parameters
    ----------
    input_size:
        Per-step feature size (2 for ``(x, y)`` coordinates).
    hidden_size:
        LSTM state width.
    seq_out:
        Number of future points to emit.
    rng:
        Source of initialisation randomness.

    ``params`` maps each qualified name (``encoder.w_ih``,
    ``encoder.w_hh``, ``encoder.bias``, ``decoder.*``, ``head.weight``,
    ``head.bias``) to its array, in the order the initial values are
    drawn; optimisers step those arrays in place.
    """

    def __init__(
        self,
        input_size: int = 2,
        hidden_size: int = 32,
        seq_out: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if seq_out <= 0:
            raise ValueError("seq_out must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.seq_out = seq_out
        self.params: dict[str, np.ndarray] = {}
        for part in ("encoder", "decoder"):
            self.params[f"{part}.w_ih"] = init.xavier_uniform(rng, input_size, 4 * hidden_size)
            self.params[f"{part}.w_hh"] = init.xavier_uniform(rng, hidden_size, 4 * hidden_size)
            self.params[f"{part}.bias"] = init.lstm_bias(hidden_size)
        self.params["head.weight"] = init.xavier_uniform(rng, hidden_size, input_size)
        self.params["head.bias"] = init.zeros((input_size,))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays keyed by qualified name."""
        return {name: p.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load copies of the parameter arrays; keys and shapes must match exactly."""
        missing = set(self.params) - set(state)
        unexpected = set(state) - set(self.params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, own in self.params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != own.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {own.shape}")
            self.params[name] = arr.copy()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Numpy in, numpy out, no teacher forcing (the fused forward)."""
        return self.predictor()(x)

    def predictor(self):
        """:meth:`predict` on the current weights, prepared once.

        For many calls on fixed weights (an autoregressive rollout):
        the weights are gate-permuted once, so the returned function is
        valid while the parameters are unchanged.  It maps a window
        ``(seq_in, F)`` or a batch of them to the predicted points.
        """
        weights = fused.Seq2SeqWeights(self.params)

        def predict(x: np.ndarray) -> np.ndarray:
            arr = np.asarray(x, dtype=float)
            squeeze = arr.ndim == 2
            if squeeze:
                arr = arr[None, :, :]
            result = fused.seq2seq_predict(self, weights, arr)
            return result[0] if squeeze else result

        return predict


def make_mobility_model(
    input_size: int = 2,
    hidden_size: int = 32,
    seq_out: int = 1,
    rng: np.random.Generator | None = None,
) -> LSTMEncoderDecoder:
    """The mobility model every training entry builds and trains."""
    return LSTMEncoderDecoder(input_size, hidden_size, seq_out, rng)
