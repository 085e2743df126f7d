"""First-order optimisers over :class:`~repro.nn.tensor.Tensor` parameters."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    """Base optimiser: holds parameters and applies in-place updates."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: Sequence[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("all optimised tensors must require gradients")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                # In place: the parameter buffer identity is stable across
                # steps, so no per-parameter allocation per update.
                np.subtract(p.data, self.lr * v, out=p.data)
            else:
                np.subtract(p.data, self.lr * p.grad, out=p.data)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            m_hat = m / b1t
            v_hat = v / b2t
            np.subtract(p.data, self.lr * m_hat / (np.sqrt(v_hat) + self.eps), out=p.data)

