"""Neural-network substrate: the LSTM seq2seq model, its fused kernels,
optimisers and losses.

Implemented from scratch because the reproduction environment has no
deep-learning framework; see ``DESIGN.md`` §3 for the substitution
rationale.  The one model is the LSTM encoder-decoder of
:mod:`repro.nn.seq2seq`, held as named float64 arrays.  The fused BPTT
kernels of :mod:`repro.nn.fused` are the one path that runs and trains
it, and every loss returns its value and gradient in closed form.  The
autograd tape those kernels are checked against lives with the tests
(``tests/tape.py``).
"""

from repro.nn.seq2seq import LSTMEncoderDecoder, make_mobility_model
from repro.nn.optim import Adam, apply_gradient_step, flatten_gradients
from repro.nn.losses import (
    mse_loss,
    mae_loss,
    weighted_mse_loss,
    TaskDensityWeighter,
    make_loss,
)
from repro.nn import fused

__all__ = [
    "LSTMEncoderDecoder",
    "make_mobility_model",
    "Adam",
    "apply_gradient_step",
    "flatten_gradients",
    "mse_loss",
    "mae_loss",
    "weighted_mse_loss",
    "TaskDensityWeighter",
    "make_loss",
    "fused",
]
