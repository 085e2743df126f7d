"""The autograd-tape reference for the fused kernels (test-only).

A small reverse-mode automatic differentiation engine over numpy,
cut to the operations the references below use:

* :class:`Tensor` wraps an ``ndarray`` and records the operations that
  produced it; :meth:`Tensor.backward` walks the recorded graph in
  reverse topological order and accumulates gradients, reduced back to
  the operand shapes under broadcasting (:func:`_unbroadcast`);
* :func:`tape_forward` replays the LSTM encoder-decoder's forward pass
  op by op, and :func:`tape_loss` maps each loss of
  :mod:`repro.nn.losses` to its tape form;
* :func:`tape_loss_and_grads` is the reference of
  :func:`repro.nn.fused.loss_and_grads`.

The engine is first-order: gradients are plain arrays, not tensors.
Every gate of every timestep allocates closures here, which is why the
library trains on the fused kernels instead; the parity suites and
``benchmarks/bench_nn_fastpath.py`` hold the two together.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.nn.losses import TaskDensityWeighter, mae_loss, mse_loss


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (the gradient of a broadcast result) to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the operand.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an autograd tape.

    Create leaf tensors with ``Tensor(data, requires_grad=True)``; all
    arithmetic on tensors produces non-leaf tensors whose ``backward``
    closures propagate gradients to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple["Tensor", ...] = ()) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._prev = _prev

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce a raw value into a constant tensor."""
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _unary(self, value: np.ndarray, local_grad: Callable[[np.ndarray], np.ndarray]) -> "Tensor":
        """A one-parent node whose input gradient is ``local_grad(out.grad)``."""
        out = Tensor(value, self.requires_grad, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(local_grad(out.grad))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # autograd core
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (and must be supplied explicitly for
        non-scalar outputs to avoid silent mistakes).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() on a non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data + other.data, self.requires_grad or other.requires_grad, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = _backward
        return out

    def __radd__(self, other) -> "Tensor":
        return Tensor.ensure(other) + self

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data * other.data, self.requires_grad or other.requires_grad, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = _backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self * other

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data @ other.data, self.requires_grad or other.requires_grad, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                grad = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                grad = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(grad, other.data.shape))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        def local_grad(grad: np.ndarray) -> np.ndarray:
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            return np.broadcast_to(grad, self.data.shape).copy()

        return self._unary(self.data.sum(axis=axis, keepdims=keepdims), local_grad)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return self._unary(value, lambda grad: grad * (1.0 - value**2))

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return self._unary(value, lambda grad: grad * value * (1.0 - value))

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return self._unary(np.abs(self.data), lambda grad: grad * sign)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        return self._unary(self.data.reshape(shape), lambda grad: grad.reshape(self.data.shape))

    def __getitem__(self, key) -> "Tensor":
        def local_grad(grad: np.ndarray) -> np.ndarray:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            return full

        return self._unary(self.data[key], local_grad)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot concatenate an empty list")
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
        tuple(tensors),
    )
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def _backward() -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index: list = [slice(None)] * out.grad.ndim
                index[axis] = slice(int(lo), int(hi))
                t._accumulate(out.grad[tuple(index)])

    out._backward = _backward
    return out


def grad_of(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. named leaf tensors.

    Clears any stale gradients first so repeated calls do not
    accumulate; returns zero arrays for parameters the loss does not
    depend on.
    """
    for p in params.values():
        p.grad = None
    loss.backward()
    return {
        name: p.grad if p.grad is not None else np.zeros_like(p.data) for name, p in params.items()
    }


def leaves(params: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    """Fresh leaf tensors holding copies of named parameter arrays."""
    return {name: Tensor(np.array(p, dtype=np.float64), requires_grad=True) for name, p in params.items()}


# ----------------------------------------------------------------------
# the LSTM encoder-decoder on the tape


def lstm_cell(params: Mapping[str, Tensor], prefix: str, x: Tensor, h: Tensor, c: Tensor):
    """One LSTM step, gate order ``[input, forget, cell-candidate, output]``."""
    gates = x @ params[prefix + "w_ih"] + h @ params[prefix + "w_hh"] + params[prefix + "bias"]
    n = h.shape[-1]
    i_gate = gates[..., 0:n].sigmoid()
    f_gate = gates[..., n : 2 * n].sigmoid()
    g_cand = gates[..., 2 * n : 3 * n].tanh()
    o_gate = gates[..., 3 * n : 4 * n].sigmoid()
    c_new = f_gate * c + i_gate * g_cand
    return o_gate * c_new.tanh(), c_new


def tape_forward(
    params: Mapping[str, Tensor], x: Tensor, seq_out: int, targets: Tensor | None = None
) -> Tensor:
    """The encoder-decoder's ``(batch, seq_out, F)`` prediction on the tape.

    ``params`` maps the model's parameter names to tensors.  With
    ``targets`` the decoder is teacher-forced with the ground-truth
    prefix; otherwise it feeds back its own outputs.
    """
    x = Tensor.ensure(x)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, time, features), got shape {x.shape}")
    batch, seq_in, features = x.shape
    hidden = params["encoder.w_hh"].shape[0]
    h, c = Tensor(np.zeros((batch, hidden))), Tensor(np.zeros((batch, hidden)))
    for t in range(seq_in):
        h, c = lstm_cell(params, "encoder.", x[:, t, :], h, c)

    # The decoder starts from the last observed point.
    step_input = x[:, seq_in - 1, :]
    outputs: list[Tensor] = []
    for t in range(seq_out):
        h, c = lstm_cell(params, "decoder.", step_input, h, c)
        # Residual head: the displacement from the previous point.
        delta = h @ params["head.weight"] + params["head.bias"]
        point = step_input + delta
        outputs.append(point.reshape(batch, 1, features))
        if targets is not None and t < seq_out - 1:
            step_input = targets[:, t, :]
        else:
            step_input = point
    return concat(outputs, axis=1)


# ----------------------------------------------------------------------
# losses


def tape_mse(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    diff = pred - Tensor.ensure(target)
    return (diff * diff).mean()


def tape_mae(pred: Tensor, target) -> Tensor:
    """Mean absolute error over all elements."""
    diff = pred - Tensor.ensure(target)
    return diff.abs().mean()


def tape_weighted_mse(pred: Tensor, target, weights: np.ndarray) -> Tensor:
    """Per-point weighted MSE (Eq. 6); ``x``/``y`` share a point's weight."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    expanded = np.broadcast_to(w[..., None], pred.shape)
    diff = pred - Tensor.ensure(target)
    return (diff * diff * Tensor(expanded.copy())).mean()


def tape_loss(loss_fn) -> Callable[[Tensor, Tensor], Tensor]:
    """The tape form of a :mod:`repro.nn.losses` loss."""
    if loss_fn is mse_loss:
        return tape_mse
    if loss_fn is mae_loss:
        return tape_mae
    if getattr(loss_fn, "__func__", None) is TaskDensityWeighter.loss:
        weighter = loss_fn.__self__
        return lambda pred, target: tape_weighted_mse(
            pred, target, weighter.point_weights(Tensor.ensure(target).data)
        )
    raise ValueError(f"no tape form for {loss_fn!r}")


def tape_loss_and_grads(
    model, params: Mapping[str, np.ndarray], x, y, loss_fn, teacher_forcing: bool = False
) -> tuple[float, dict[str, np.ndarray]]:
    """Reference of :func:`repro.nn.fused.loss_and_grads`: one tape pass."""
    leaf = leaves(params)
    y_t = Tensor(np.asarray(y, dtype=np.float64))
    pred = tape_forward(leaf, Tensor(x), model.seq_out, y_t if teacher_forcing else None)
    loss = tape_loss(loss_fn)(pred, y_t)
    return loss.item(), grad_of(loss, leaf)
