"""Loss functions, including the task assignment-oriented loss (Eqs. 6-7).

The paper's key observation (Section III-C): prediction errors at
trajectory points near historically task-dense regions matter more for
assignment than errors in task deserts.  ``Eq. 6`` therefore re-weights
the squared error per point with ``f_w`` from ``Eq. 7``:

    f_w(l) = kappa * |{tau : dis(tau, l) < d_q}| / rho_t + delta

where ``rho_t`` is the expected task count per unit disc of radius
``d_q`` and ``kappa``/``delta`` bound the influence of history.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: A loss maps ``(pred, target)`` to ``(value, dL/dpred)``.
LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements, and its gradient.

    Every loss here replays the rounding order of its autograd
    reference (``tests/tape.py``), so values and gradients equal it bit
    for bit: ``mean`` is ``sum * (1/N)``, and scaling by the
    power-of-two 2 commutes with rounding.
    """
    diff = np.asarray(pred, dtype=np.float64) - target
    inv = 1.0 / diff.size
    return float((diff * diff).sum() * inv), diff * (2.0 * inv)


def mae_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all elements, and its gradient."""
    diff = np.asarray(pred, dtype=np.float64) - target
    inv = 1.0 / diff.size
    return float(np.abs(diff).sum() * inv), np.sign(diff) * inv


def weighted_mse_loss(
    pred: np.ndarray, target: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-point weighted MSE (the paper's Eq. 6), and its gradient.

    ``weights`` has one entry per trajectory point, i.e. shape
    broadcastable to ``pred.shape[:-1]``; the ``(x, y)`` components of a
    point share its weight.  The gradient is ``g + g`` with
    ``g = ((1/N) * W) * diff``, the reference's rounding order.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    w = w[..., None]
    diff = np.asarray(pred, dtype=np.float64) - target
    inv = 1.0 / diff.size
    sq = diff * diff
    sq *= w
    g = (inv * w) * diff
    return float(sq.sum() * inv), g + g


class TaskDensityWeighter:
    """Computes ``f_w`` (Eq. 7) from a corpus of historical task locations.

    Parameters
    ----------
    historical_tasks_xy:
        ``(n, 2)`` planar locations of historical tasks.
    d_q:
        Query radius: tasks within ``d_q`` of a trajectory point count
        toward its weight.
    kappa:
        Influence factor in ``(0, 1)``.
    delta:
        Positive offset; the weight of a point with no nearby tasks.
    """

    def __init__(
        self,
        historical_tasks_xy: np.ndarray,
        d_q: float = 1.0,
        kappa: float = 0.5,
        delta: float = 0.5,
    ) -> None:
        tasks = np.asarray(historical_tasks_xy, dtype=float).reshape(-1, 2)
        if not (math.isfinite(d_q) and d_q > 0):
            raise ValueError(f"d_q must be finite and positive, got {d_q!r}")
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"kappa must lie in (0, 1), got {kappa!r}")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"delta must be finite and positive, got {delta!r}")
        self.d_q = float(d_q)
        self.kappa = float(kappa)
        self.delta = float(delta)
        self._n_tasks = len(tasks)
        self._tree = None
        if self._n_tasks:
            # Imported here: scipy is slow to import and only training
            # with a task corpus needs it.
            from scipy.spatial import cKDTree

            self._tree = cKDTree(tasks)
        # rho_t: mean number of tasks per unit disc of radius d_q, estimated
        # from the corpus extent so weights are scale-free.
        if self._n_tasks:
            extent = tasks.max(axis=0) - tasks.min(axis=0)
            area = float(max(extent[0], 1e-9) * max(extent[1], 1e-9))
            disc = np.pi * self.d_q**2
            self.rho_t = max(self._n_tasks * disc / area, 1.0)
        else:
            self.rho_t = 1.0

    def weights(self, points_xy: np.ndarray) -> np.ndarray:
        """``f_w`` for each point in an ``(..., 2)`` array.

        Returns an array of the leading shape of ``points_xy``.
        """
        pts = np.asarray(points_xy, dtype=float)
        lead_shape = pts.shape[:-1]
        flat = pts.reshape(-1, 2)
        if self._tree is None:
            counts = np.zeros(len(flat))
        else:
            counts = np.array(
                self._tree.query_ball_point(flat, r=self.d_q, return_length=True),
                dtype=float,
            )
        w = self.kappa * counts / self.rho_t + self.delta
        return w.reshape(lead_shape)

    def point_weights(self, target_xy: np.ndarray) -> np.ndarray:
        """Eq. 6's weight for each point of an ``(..., 2)`` target array.

        Weights are computed at the *ground-truth* locations (the task
        distribution around where the worker actually goes), matching
        ``f_w(l_i)`` in Eq. 6, then rescaled to batch mean 1 so the
        loss magnitude (and hence the effective learning rate) is
        comparable with plain MSE — the comparison should isolate the
        *relative* re-weighting, not a global step-size change.
        """
        w = self.weights(target_xy)
        mean = float(w.mean())
        if mean > 0:
            w = w / mean
        return w

    def loss(self, pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
        """The full task assignment-oriented loss on normalised targets."""
        return weighted_mse_loss(pred, target, self.point_weights(target))


def loss_weights(loss_fn, target: np.ndarray) -> np.ndarray | None:
    """The per-point weights ``loss_fn`` applies against ``target``.

    For the task-oriented loss (:meth:`TaskDensityWeighter.loss`) this
    is ``f_w`` per target point, the ``weights`` of
    :func:`weighted_mse_loss`; for an unweighted loss it is ``None``.
    ``f_w`` depends only on the target, so a loop stepping on one fixed
    target computes it once.
    """
    if getattr(loss_fn, "__func__", None) is TaskDensityWeighter.loss:
        return loss_fn.__self__.point_weights(target)
    return None


def make_loss(name: str, weighter: TaskDensityWeighter | None = None) -> LossFn:
    """Factory mapping config names to loss callables.

    ``"mse"`` is the conventional baseline (the *-loss* variants in the
    experiments); ``"task_oriented"`` requires a fitted weighter.
    """
    if name == "mse":
        return mse_loss
    if name == "mae":
        return mae_loss
    if name == "task_oriented":
        if weighter is None:
            raise ValueError("task_oriented loss requires a TaskDensityWeighter")
        return weighter.loss
    raise ValueError(f"unknown loss '{name}'")
