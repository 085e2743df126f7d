"""Neural-network substrate: numpy autograd, LSTM seq2seq, optimisers, losses.

Implemented from scratch because the reproduction environment has no
deep-learning framework; see ``DESIGN.md`` §3 for the substitution
rationale.  The one recurrent model is the LSTM encoder-decoder of
:mod:`repro.nn.seq2seq`, and the fused BPTT kernels of
:mod:`repro.nn.fused` are the one path that trains it.  The autograd
tape is first-order (no double backprop); it is the reference the
kernels are tested against and evaluates the losses that have no
closed form.
"""

from repro.nn.tensor import Tensor, concat, stack, grad_of
from repro.nn.module import (
    Module,
    Parameter,
    ParamContext,
    clone_parameters,
    apply_gradient_step,
    flatten_gradients,
)
from repro.nn.layers import Linear, MLP
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.seq2seq import LSTMEncoderDecoder, make_mobility_model
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.losses import (
    mse_loss,
    mae_loss,
    weighted_mse_loss,
    TaskDensityWeighter,
    make_loss,
)
from repro.nn import fused

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "grad_of",
    "Module",
    "Parameter",
    "ParamContext",
    "clone_parameters",
    "apply_gradient_step",
    "flatten_gradients",
    "Linear",
    "MLP",
    "LSTM",
    "LSTMCell",
    "LSTMEncoderDecoder",
    "make_mobility_model",
    "SGD",
    "Adam",
    "Optimizer",
    "mse_loss",
    "mae_loss",
    "weighted_mse_loss",
    "TaskDensityWeighter",
    "make_loss",
    "fused",
]
