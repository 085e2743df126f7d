"""The LSTM encoder-decoder: the one mobility and demand model.

Given the last ``seq_in`` trajectory points (normalised grid
coordinates) the model autoregressively emits the next ``seq_out``
points.  This is the concrete instantiation of Definition 3, built
from LSTM units as in the paper; the demand forecaster of
:mod:`repro.forecast.models` reuses it over cell counts.  The fused
BPTT kernels of :mod:`repro.nn.fused` train it; :meth:`forward` is the
autograd-tape reference those kernels are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, _sub_context
from repro.nn.lstm import LSTMCell
from repro.nn.module import Module, ParamContext
from repro.nn.tensor import Tensor, concat


class LSTMEncoderDecoder(Module):
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
    """

    def __init__(
        self,
        input_size: int = 2,
        hidden_size: int = 32,
        seq_out: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if seq_out <= 0:
            raise ValueError("seq_out must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.seq_out = seq_out
        self.encoder = LSTMCell(input_size, hidden_size, rng)
        self.decoder = LSTMCell(input_size, hidden_size, rng)
        self.head = Linear(hidden_size, input_size, rng, name="head")

    def forward(
        self,
        x: Tensor,
        ctx: ParamContext | None = None,
        targets: Tensor | None = None,
    ) -> Tensor:
        """Predict ``(batch, seq_out, input_size)`` from ``(batch, seq_in, input_size)``.

        When ``targets`` is given, the decoder is teacher-forced with the
        ground-truth prefix; otherwise it feeds back its own outputs.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features), got shape {x.shape}")
        batch, seq_in, _ = x.shape
        if seq_in < 1:
            raise ValueError("need at least one input step")
        enc_ctx = _sub_context(ctx, "encoder.")
        dec_ctx = _sub_context(ctx, "decoder.")
        head_ctx = _sub_context(ctx, "head.")

        h, c = self.encoder.zero_state(batch)
        for t in range(seq_in):
            h, c = self.encoder.forward(x[:, t, :], (h, c), ctx=enc_ctx)

        # The decoder starts from the last observed point.
        step_input = x[:, seq_in - 1, :]
        outputs: list[Tensor] = []
        for t in range(self.seq_out):
            h, c = self.decoder.forward(step_input, (h, c), ctx=dec_ctx)
            # Residual head: predict the displacement from the previous point,
            # which keeps early-training outputs near the trajectory.
            delta = self.head.forward(h, ctx=head_ctx)
            point = step_input + delta
            outputs.append(point.reshape(batch, 1, self.input_size))
            if targets is not None and t < self.seq_out - 1:
                step_input = targets[:, t, :]
            else:
                step_input = point
        return concat(outputs, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference convenience: numpy in, numpy out, no teacher forcing.

        Runs the fused tape-free forward (:mod:`repro.nn.fused`); the
        operation order matches :meth:`forward` exactly.
        """
        return self.predictor()(x)

    def predictor(self):
        """:meth:`predict` on the current weights, prepared once.

        For many calls on fixed weights (an autoregressive rollout):
        the weights are unwrapped and gate-permuted once, so the
        returned function does not see later weight updates.  It maps a
        window ``(seq_in, F)`` or a batch of them to the predicted points.
        """
        from repro.nn import fused  # deferred: fused imports this module

        weights = fused.Seq2SeqWeights(self, dict(self.named_parameters()))

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


