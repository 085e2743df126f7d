"""A small reverse-mode automatic differentiation engine over numpy.

The paper trains its mobility models with PyTorch; this repository runs
in an offline environment without it, so the gradient machinery the
meta-learning algorithms need is implemented here from scratch:

* :class:`Tensor` wraps an ``ndarray`` and records the operations that
  produced it;
* :meth:`Tensor.backward` walks the recorded graph in reverse
  topological order and accumulates gradients;
* all arithmetic supports numpy broadcasting, with gradients reduced
  back to the operand shapes (:func:`_unbroadcast`).

The engine is first-order: gradients are plain arrays, not tensors, so
double backprop is unsupported.  The meta-learning stack therefore uses
first-order MAML (see ``DESIGN.md`` §3/§5).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

ArrayLike = "np.ndarray | float | int | list | tuple"


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: "ArrayLike",
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._prev = _prev
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value: "Tensor | ArrayLike") -> "Tensor":
        """Coerce a raw value into a constant tensor."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        """Pickle a tensor as a detached leaf.

        The tape (``_backward`` closures and parent links) cannot cross
        a process boundary; values, gradients, and the leaf flag can.
        A round-tripped tensor therefore behaves like a freshly created
        leaf carrying the same data — which is all a process boundary
        needs to carry (parameters in, parameters out).
        """
        return (self.data, self.grad, self.requires_grad, self.name)

    def __setstate__(self, state: tuple) -> None:
        self.data, self.grad, self.requires_grad, self.name = state
        self._backward = None
        self._prev = ()

    # ------------------------------------------------------------------
    # shape / dtype surface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared; callers must not mutate)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data, off the tape."""
        return Tensor(self.data, requires_grad=False)

    def clone(self, requires_grad: bool | None = None) -> "Tensor":
        """A copy of the data as a fresh leaf tensor."""
        rg = self.requires_grad if requires_grad is None else requires_grad
        return Tensor(self.data.copy(), requires_grad=rg)

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.shape}{grad_flag})"

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

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data + other.data, _prev=(self, other))
        out.requires_grad = self.requires_grad or other.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = _backward
        return out

    def __radd__(self, other: "ArrayLike") -> "Tensor":
        return Tensor.ensure(other) + self

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: "Tensor | ArrayLike") -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other: "ArrayLike") -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data * other.data, _prev=(self, other))
        out.requires_grad = self.requires_grad or other.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = _backward
        return out

    def __rmul__(self, other: "ArrayLike") -> "Tensor":
        return self * other

    def __truediv__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data / other.data, _prev=(self, other))
        out.requires_grad = self.requires_grad or other.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data**2), other.data.shape)
                )

        out._backward = _backward
        return out

    def __rtruediv__(self, other: "ArrayLike") -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are unsupported; use exp/log")
        out = Tensor(self.data**exponent, _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor | ArrayLike") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(self.data @ other.data, _prev=(self, other))
        out.requires_grad = self.requires_grad or other.requires_grad

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
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        out._backward = _backward
        return out

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
        out = Tensor(value, _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - value**2))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        out = Tensor(value, _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value * (1.0 - value))

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask, _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out._backward = _backward
        return out

    def exp(self) -> "Tensor":
        value = np.exp(np.clip(self.data, -700.0, 700.0))
        out = Tensor(value, _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * value)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data), _prev=(self,))
        out.requires_grad = self.requires_grad
        sign = np.sign(self.data)

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * sign)

        out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor(self.data.reshape(shape), _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else tuple(reversed(range(self.data.ndim)))
        out = Tensor(self.data.transpose(order), _prev=(self,))
        out.requires_grad = self.requires_grad
        inverse = np.argsort(order)

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], _prev=(self,))
        out.requires_grad = self.requires_grad

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, key, out.grad)
                self._accumulate(grad)

        out._backward = _backward
        return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot concatenate an empty list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), _prev=tuple(tensors))
    out.requires_grad = any(t.requires_grad for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index: list = [slice(None)] * out.grad.ndim
                index[axis] = slice(int(lo), int(hi))
                t._accumulate(out.grad[tuple(index)])

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot stack an empty list")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), _prev=tuple(tensors))
    out.requires_grad = any(t.requires_grad for t in tensors)

    def _backward() -> None:
        slices = np.split(out.grad, len(tensors), axis=axis)
        for t, g in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(g.reshape(t.data.shape))

    out._backward = _backward
    return out


def grad_of(loss: Tensor, params: Iterable[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar ``loss`` w.r.t. ``params``.

    Clears any stale gradients first so repeated calls do not
    accumulate; returns zero arrays for parameters the loss does not
    depend on.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
