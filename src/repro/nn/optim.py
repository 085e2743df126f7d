"""First-order updates over named parameter arrays."""

from __future__ import annotations

from typing import Mapping, MutableMapping

import numpy as np


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    Holds the mapping of named arrays it optimises (for example a
    model's ``params``) and steps each array in place.
    """

    def __init__(
        self,
        params: MutableMapping[str, np.ndarray],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = b1, b2
        self.eps = eps
        self._m = {name: np.zeros_like(p) for name, p in params.items()}
        self._v = {name: np.zeros_like(p) for name, p in params.items()}
        self._t = 0

    def step(self, grads: Mapping[str, np.ndarray]) -> None:
        """One update from the gradients of every parameter, by name."""
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for name, m in self._m.items():
            p, g, v = self.params[name], grads[name], self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            m_hat = m / b1t
            v_hat = v / b2t
            np.subtract(p, self.lr * m_hat / (np.sqrt(v_hat) + self.eps), out=p)


def apply_gradient_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    lr: float,
) -> dict[str, np.ndarray]:
    """One SGD step into fresh arrays: ``theta' = theta - lr * grad``.

    A parameter without a gradient is copied unchanged.
    """
    return {
        name: p.copy() if name not in grads else p - lr * grads[name]
        for name, p in params.items()
    }


def flatten_gradients(grads: Mapping[str, np.ndarray]) -> np.ndarray:
    """Concatenate named gradients into a flat vector (sorted names)."""
    items = sorted(grads.items())
    return np.concatenate([g.ravel() for _, g in items]) if items else np.zeros(0)
