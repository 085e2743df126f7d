"""Cell-demand forecasters behind one ``DemandForecaster`` protocol.

Three interchangeable predictors of the next bins of a
``(n_bins, n_cells)`` demand matrix:

* :class:`EWMAForecaster` — an exponentially weighted moving average
  per cell; the cheap always-available baseline the online dispatcher
  defaults to (no fit required);
* :class:`SeasonalNaiveForecaster` — repeats the value one season ago
  per cell (rush-hour waves repeat), falling back to the last bin when
  history is shorter than a season;
* :class:`Seq2SeqForecaster` — the :mod:`repro.nn` LSTM
  encoder-decoder regressing the next ``seq_out`` bins of the busiest
  cells from the last ``seq_in`` (trained and run on the fused
  kernels), with the EWMA carrying the quiet cells it does not model.

``predict(history, steps)`` is pure: the same history always yields
the same forecast, so engine runs that share a seed stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.forecast.demand import DemandSeries, demand_windows


@runtime_checkable
class DemandForecaster(Protocol):
    """The contract the dispatch layer codes against."""

    def fit(self, series: DemandSeries) -> "DemandForecaster":
        """Train on a demand series; returns ``self`` for chaining."""
        ...

    def predict(self, history: np.ndarray, steps: int = 1) -> np.ndarray:
        """Forecast the next ``steps`` bins from ``(n_bins, n_cells)``
        history; returns ``(steps, n_cells)`` non-negative rates."""
        ...


def _as_history(history: np.ndarray) -> np.ndarray:
    arr = np.asarray(history, dtype=float)
    if arr.ndim != 2:
        raise ValueError("history must be 2-D (bins x cells)")
    return arr


@dataclass
class EWMAForecaster:
    """Per-cell exponentially weighted moving average.

    ``alpha`` is the weight of the most recent bin; the forecast is
    flat over the requested horizon (an EWMA carries no trend).
    """

    alpha: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def fit(self, series: DemandSeries) -> "EWMAForecaster":
        return self

    def predict(self, history: np.ndarray, steps: int = 1) -> np.ndarray:
        history = _as_history(history)
        if history.shape[0] == 0:
            return np.zeros((steps, history.shape[1]))
        level = history[0].astype(float)
        for row in history[1:]:
            level = self.alpha * row + (1.0 - self.alpha) * level
        return np.tile(level, (steps, 1))


@dataclass
class SeasonalNaiveForecaster:
    """Repeat the demand observed one season (``period_bins``) ago.

    With history shorter than a season the forecast degrades to the
    last observed bin (plain naive), never to zeros.
    """

    period_bins: int = 8

    def __post_init__(self) -> None:
        if self.period_bins < 1:
            raise ValueError("period_bins must be at least 1")

    def fit(self, series: DemandSeries) -> "SeasonalNaiveForecaster":
        return self

    def predict(self, history: np.ndarray, steps: int = 1) -> np.ndarray:
        history = _as_history(history)
        n = history.shape[0]
        if n == 0:
            return np.zeros((steps, history.shape[1]))
        rows = []
        for s in range(steps):
            lag = self.period_bins - s % self.period_bins
            rows.append(history[n - lag] if n >= lag else history[-1])
        return np.stack(rows)


@dataclass
class Seq2SeqForecaster:
    """The :mod:`repro.nn` encoder-decoder over the busiest cells.

    Features are the ``top_cells`` highest-demand cells of the training
    series (selection is part of the fitted state); counts are scaled
    into ``[0, 1]`` by the training maximum so the loss stays
    well-conditioned at any arrival rate.  Cells outside the selection
    are forecast by an embedded EWMA, so the full ``(steps, n_cells)``
    contract holds.  Training and inference are seeded and
    deterministic; ``fit`` steps Adam on the fused BPTT gradients
    (teacher-forced MSE) and ``predict`` runs the fused forward.
    """

    hidden_size: int = 24
    seq_in: int = 6
    seq_out: int = 1
    top_cells: int = 12
    epochs: int = 60
    lr: float = 2e-2
    alpha: float = 0.4
    seed: int = 0
    _model: object | None = field(default=None, repr=False, compare=False)
    _active: np.ndarray | None = field(default=None, repr=False, compare=False)
    _scale: float = field(default=1.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seq_in < 1 or self.seq_out < 1:
            raise ValueError("seq_in and seq_out must be positive")
        if self.top_cells < 1:
            raise ValueError("top_cells must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")

    @property
    def fitted(self) -> bool:
        return self._model is not None

    def fit(self, series: DemandSeries) -> "Seq2SeqForecaster":
        from repro.nn import Adam, fused, make_mobility_model, mse_loss

        active = series.active_cells(top_k=self.top_cells)
        if active.size == 0:
            # A silent training window: nothing to regress on, the
            # embedded EWMA handles every cell.
            self._model = None
            self._active = active
            return self
        sub = series.counts[:, active]
        self._scale = float(max(sub.max(), 1.0))
        x, y = demand_windows(sub / self._scale, self.seq_in, self.seq_out)
        rng = np.random.default_rng(self.seed)
        model = make_mobility_model(
            input_size=int(active.size),
            hidden_size=self.hidden_size,
            seq_out=self.seq_out,
            rng=rng,
        )
        if len(x):
            optimizer = Adam(model.params, lr=self.lr)
            for _ in range(self.epochs):
                _, grads = fused.loss_and_grads(
                    model, model.params, x, y, mse_loss, teacher_forcing=True
                )
                optimizer.step(grads)
        self._model = model
        self._active = active
        return self

    def predict(self, history: np.ndarray, steps: int = 1) -> np.ndarray:
        history = _as_history(history)
        base = EWMAForecaster(alpha=self.alpha).predict(history, steps)
        if self._model is None or self._active is None or self._active.size == 0:
            return base
        sub = history[:, self._active] / self._scale
        if sub.shape[0] >= self.seq_in:
            window = sub[-self.seq_in :]
        else:  # pad a short history with leading zeros
            window = np.zeros((self.seq_in, sub.shape[1]))
            if sub.shape[0]:
                window[-sub.shape[0] :] = sub
        pred = np.asarray(self._model.predict(window))
        out = base
        n = min(steps, self.seq_out)
        out[:n, self._active] = np.maximum(pred[:n] * self._scale, 0.0)
        return out


def make_forecaster(model: str, **kwargs) -> DemandForecaster:
    """Factory over the three forecasters; ``model`` names the class."""
    factories = {
        "ewma": EWMAForecaster,
        "seasonal_naive": SeasonalNaiveForecaster,
        "seq2seq": Seq2SeqForecaster,
    }
    if model not in factories:
        raise ValueError(
            f"unknown forecaster '{model}' (available: {', '.join(sorted(factories))})"
        )
    return factories[model](**kwargs)
