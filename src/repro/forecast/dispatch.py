"""Proactive dispatch: forecast-triggered batches and pre-positioning.

Two levers, both driven by one :class:`ForecastRuntime` that watches
the arrival stream bin by bin:

* :class:`ForecastTrigger` — extends the demand-adaptive trigger with
  a *predicted* pressure term: a batch is pulled forward when the
  pending queue plus the forecast demand over the next horizon exceeds
  ``demand_threshold`` (the reactive thresholds still apply);
* pre-positioning — between batches the runtime compares predicted
  demand plus the standing queue against the idle supply per grid
  cell and plans :class:`Move`\\ s of idle workers toward the largest
  predicted gaps, subject to each worker's detour budget
  (``detour_fraction`` of it), availability window, and a per-worker
  cooldown.  :func:`relocated_worker` splices the move into the
  worker's routine so acceptance decisions downstream see the
  relocated position.

The runtime also keeps the forecast honest: every completed bin is
scored against the prediction made for it before it started, feeding
``forecast.mae`` (overall histogram) and ``forecast.mae{cell=i-j}``
(per-cell running means) through :mod:`repro.obs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.forecast.demand import DemandSeries
from repro.forecast.models import make_forecaster
from repro.geo.grid import Grid
from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.sc.entities import SpatialTask, Worker
from repro.serve.triggers import DemandAdaptiveTrigger

_FORECAST_MODELS = ("ewma", "seasonal_naive", "seq2seq")

#: Relative widening of the planner's numpy distance filter: orders of
#: magnitude above the rounding gap between ``np.hypot`` and the exact
#: ``math.hypot`` test, so the filter never drops an admissible worker.
_FILTER_SLACK = 1e-9


@dataclass(frozen=True)
class ForecastConfig:
    """Tunables of the forecasting layer (``ServeConfig.forecast``).

    Attributes
    ----------
    model:
        ``"ewma"``, ``"seasonal_naive"``, or ``"seq2seq"`` (the
        :mod:`repro.nn` encoder-decoder, fit online once
        ``fit_after_bins`` bins of history exist; EWMA carries the
        forecasts before that).
    bin_minutes / history_bins / horizon_bins:
        Time binning: forecasts look ``horizon_bins`` ahead from the
        last ``history_bins`` (the seq2seq ``seq_in``/``seq_out``).
    grid_rows / grid_cols / width_km / height_km:
        The demand grid.  Extent ``None`` infers the tight bounding
        box of the run's tasks at engine start.
    demand_threshold:
        :class:`ForecastTrigger` pressure threshold — fire a batch
        early when ``len(pending) + predicted demand`` reaches it
        (``None`` leaves only the inherited reactive thresholds).
    prepositioning:
        Enable idle-worker moves toward predicted gaps.
    gap_threshold / max_moves / detour_fraction / cooldown_minutes:
        Pre-positioning knobs: minimum predicted gap worth serving, a
        per-round move cap, the fraction of each worker's detour
        budget a move may spend, and the per-worker refractory period.
    """

    model: str = "ewma"
    bin_minutes: float = 2.0
    history_bins: int = 6
    horizon_bins: int = 1
    grid_rows: int = 8
    grid_cols: int = 8
    width_km: float | None = None
    height_km: float | None = None
    alpha: float = 0.4
    period_bins: int | None = None
    seq_hidden: int = 24
    seq_epochs: int = 60
    seq_lr: float = 2e-2
    seq_top_cells: int = 12
    fit_after_bins: int = 8
    demand_threshold: float | None = None
    prepositioning: bool = False
    gap_threshold: float = 1.0
    max_moves: int = 4
    detour_fraction: float = 0.5
    cooldown_minutes: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in _FORECAST_MODELS:
            raise ValueError(
                f"forecast model must be one of {', '.join(_FORECAST_MODELS)}"
            )
        if self.bin_minutes <= 0:
            raise ValueError("bin_minutes must be positive")
        if self.history_bins < 1 or self.horizon_bins < 1:
            raise ValueError("history_bins and horizon_bins must be at least 1")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must have at least one cell per axis")
        for name in ("width_km", "height_km"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None to infer)")
        if self.period_bins is not None and self.period_bins < 1:
            raise ValueError("period_bins must be at least 1 (or None)")
        if self.demand_threshold is not None and self.demand_threshold <= 0:
            raise ValueError("demand_threshold must be positive (or None)")
        if self.gap_threshold <= 0:
            raise ValueError("gap_threshold must be positive")
        if self.max_moves < 1:
            raise ValueError("max_moves must be at least 1")
        if not 0.0 < self.detour_fraction <= 1.0:
            raise ValueError("detour_fraction must lie in (0, 1]")
        if self.cooldown_minutes < 0:
            raise ValueError("cooldown_minutes must be non-negative")

    def make_forecaster(self):
        if self.model == "ewma":
            return make_forecaster("ewma", alpha=self.alpha)
        if self.model == "seasonal_naive":
            return make_forecaster(
                "seasonal_naive",
                period_bins=self.period_bins
                if self.period_bins is not None
                else self.history_bins,
            )
        return make_forecaster(
            "seq2seq",
            hidden_size=self.seq_hidden,
            seq_in=self.history_bins,
            seq_out=self.horizon_bins,
            top_cells=self.seq_top_cells,
            epochs=self.seq_epochs,
            lr=self.seq_lr,
            alpha=self.alpha,
            seed=self.seed,
        )


@dataclass(frozen=True, slots=True)
class ForecastTrigger(DemandAdaptiveTrigger):
    """Demand-adaptive firing plus a predicted-pressure term.

    Inherits the reactive thresholds; additionally fires (respecting
    ``min_interval``) when the pending queue plus the runtime's
    predicted demand over the next forecast horizon reaches
    ``demand_threshold``.  With no runtime attached it degrades to the
    plain adaptive trigger.
    """

    demand_threshold: float | None = None
    runtime: "ForecastRuntime | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        DemandAdaptiveTrigger.__post_init__(self)
        if self.demand_threshold is not None and self.demand_threshold <= 0:
            raise ValueError("demand threshold must be positive (or None)")

    def should_fire_early(
        self,
        now: float,
        last_batch: float,
        pending: Mapping[int, SpatialTask],
    ) -> bool:
        if DemandAdaptiveTrigger.should_fire_early(self, now, last_batch, pending):
            return True
        if self.demand_threshold is None or self.runtime is None or not pending:
            return False
        if now - last_batch < self.min_interval:
            return False
        return len(pending) + self.runtime.predicted_pending(now) >= self.demand_threshold


@dataclass(frozen=True)
class Move:
    """One planned pre-position: an idle worker toward a predicted gap."""

    worker_id: int
    cell: tuple[int, int]
    target: Point
    distance_km: float
    depart_t: float
    arrive_t: float
    gap: float


def relocated_worker(worker: Worker, move: Move) -> Worker:
    """The worker with ``move`` spliced into their routine.

    The relocated routine keeps every sample up to the departure time,
    travels straight to the target, dwells there until the next
    original sample strictly after arrival (or, with none left, until
    the original check-out time), then resumes the original tail —
    so the availability span is unchanged and the already-queued
    check-out event stays correct.
    """
    routine = worker.routine
    here = routine.position_at(move.depart_t)
    samples: list[TrajectoryPoint] = [
        p for p in routine if p.time < move.depart_t - 1e-9
    ]
    samples.append(TrajectoryPoint(here, move.depart_t))
    samples.append(TrajectoryPoint(move.target, move.arrive_t))
    tail = [p for p in routine if p.time > move.arrive_t + 1e-9]
    if tail:
        samples.extend(tail)
    elif routine.end_time > move.arrive_t + 1e-9:
        samples.append(TrajectoryPoint(move.target, routine.end_time))
    return Worker(
        worker_id=worker.worker_id,
        routine=Trajectory(samples),
        detour_budget_km=worker.detour_budget_km,
        speed_km_per_min=worker.speed_km_per_min,
        history=worker.history,
        available_from=worker.available_from,
        available_until=worker.available_until,
    )


class ForecastRuntime:
    """Online demand tracking, forecasting, and gap planning for one run.

    Created by the engine at ``run()`` start; fed every task arrival
    (:meth:`observe_arrival`) and clock advance (:meth:`advance`), and
    queried by the trigger (:meth:`predicted_pending`) and the
    pre-positioning step (:meth:`plan_moves`).  All state is derived
    deterministically from the event stream, so runs sharing a seed
    share every forecast.
    """

    def __init__(
        self,
        config: ForecastConfig,
        t_start: float,
        t_end: float,
        tasks: Sequence[SpatialTask] = (),
    ) -> None:
        if t_end <= t_start:
            raise ValueError("horizon must have positive length")
        self.config = config
        self.t_start = t_start
        self.t_end = t_end
        if config.width_km is not None and config.height_km is not None:
            self.grid = Grid(
                width_km=config.width_km,
                height_km=config.height_km,
                rows=config.grid_rows,
                cols=config.grid_cols,
            )
        else:
            from repro.forecast.demand import grid_for_tasks

            self.grid = grid_for_tasks(
                tasks,
                rows=config.grid_rows,
                cols=config.grid_cols,
                width_km=config.width_km,
                height_km=config.height_km,
            )
        self.n_bins = max(int(math.ceil((t_end - t_start) / config.bin_minutes)), 1)
        self.counts = np.zeros((self.n_bins, self.grid.n_cells), dtype=float)
        self.forecaster = config.make_forecaster()
        self._fitted = config.model != "seq2seq"
        self._completed = 0
        self._one_step: dict[int, np.ndarray] = {}
        self._horizon_cache: tuple[int, np.ndarray] | None = None
        self._err_sum = np.zeros(self.grid.n_cells, dtype=float)
        self._err_bins = 0
        self._cooldown: dict[int, float] = {}
        self.n_prepositioned = 0

    # -- stream hooks ---------------------------------------------------
    def _bin_of(self, t: float) -> int:
        b = int((t - self.t_start) / self.config.bin_minutes)
        return min(max(b, 0), self.n_bins - 1)

    # Locations binned below are finite: ``SpatialTask`` and the worker's
    # ``Trajectory`` refuse non-finite values, naming the field, when built.
    def observe_arrival(self, task: SpatialTask, t: float) -> None:
        flat = self.grid.to_flat_cell_array(
            np.array([[task.location.x, task.location.y]], dtype=float)
        )[0]
        self.counts[self._bin_of(t), flat] += 1.0

    def advance(self, t: float) -> None:
        """Finalise every bin fully before ``t`` and score its forecast."""
        current = self._bin_of(t)
        while self._completed < current:
            self._finalize(self._completed)
        # A one-step forecast of the current (in-progress) bin, made
        # strictly from the bins before it, scored when it completes.
        if current not in self._one_step:
            self._one_step[current] = self.forecaster.predict(
                self._history(current), steps=1
            )[0]

    def finish(self) -> None:
        """Score every remaining bin at the end of the run."""
        while self._completed < self.n_bins:
            self._finalize(self._completed)

    def _finalize(self, b: int) -> None:
        predicted = self._one_step.pop(b, None)
        if predicted is not None:
            err = np.abs(predicted - self.counts[b])
            self._err_sum += err
            self._err_bins += 1
            obs.histogram("forecast.mae", float(err.mean()))
            self._emit_cell_errors()
        self._completed = b + 1
        self._maybe_fit()

    def _history(self, upto_bin: int) -> np.ndarray:
        lo = max(upto_bin - self.config.history_bins, 0)
        return self.counts[lo:upto_bin]

    def _maybe_fit(self) -> None:
        if self._fitted or self._completed < self.config.fit_after_bins:
            return
        self._fitted = True
        series = DemandSeries(
            grid=self.grid,
            bin_minutes=self.config.bin_minutes,
            t_start=self.t_start,
            counts=self.counts[: self._completed],
        )
        self.forecaster.fit(series)

    def _emit_cell_errors(self) -> None:
        from repro.obs.metrics import labelled

        if not self._err_bins:
            return
        means = self._err_sum / self._err_bins
        for flat in np.nonzero(self._err_sum > 0)[0]:
            i, j = flat // self.grid.cols, flat % self.grid.cols
            obs.gauge(labelled("forecast.mae", cell=f"{i}-{j}"), float(means[flat]))

    # -- queries --------------------------------------------------------
    def predicted_cells(self, t: float) -> np.ndarray:
        """Per-cell predicted arrivals over the next ``horizon_bins``."""
        current = self._bin_of(t)
        if self._horizon_cache is not None and self._horizon_cache[0] == current:
            return self._horizon_cache[1]
        pred = self.forecaster.predict(
            self._history(current), steps=self.config.horizon_bins
        )
        total = np.maximum(pred, 0.0).sum(axis=0)
        self._horizon_cache = (current, total)
        return total

    def predicted_pending(self, t: float) -> float:
        """Total predicted arrivals over the next forecast horizon."""
        return float(self.predicted_cells(t).sum())

    def plan_moves(
        self,
        t: float,
        idle_workers: Sequence[Worker],
        pending: Mapping[int, SpatialTask],
    ) -> list[Move]:
        """Moves of idle workers toward the largest predicted gaps.

        Demand per cell is the forecast plus the standing queue; supply
        is the idle roster.  Cells with ``gap >= gap_threshold`` are
        served largest-gap first, each taking its nearest eligible idle
        workers (within ``detour_fraction`` of the detour budget, able
        to arrive inside both their availability window and the run
        horizon, and off cooldown) up to ``ceil(gap)`` of them, until
        ``max_moves`` is spent.

        One numpy pass per call bins the queue and the idle roster and
        computes each worker's reach and latest arrival; per gap cell a
        numpy distance filter keeps the workers that might qualify, and
        only those get the exact ``Point.distance_to`` test, so move
        distances, arrival times and ``(distance, worker_id)`` order
        are those of the per-pair rules.
        """
        cfg = self.config
        grid = self.grid
        demand = self.predicted_cells(t).copy()
        if pending:
            tasks = list(pending.values())
            task_cells = grid.to_flat_cell_array(
                np.array([(task.location.x, task.location.y) for task in tasks], dtype=float)
            )
            np.add.at(demand, task_cells, 1.0)
        locations = [worker.last_shared_location(t) for worker in idle_workers]
        xy = np.array([(loc.x, loc.y) for loc in locations], dtype=float).reshape(-1, 2)
        cells = grid.to_flat_cell_array(xy)
        gaps = demand - np.bincount(cells, minlength=grid.n_cells)
        obs.gauge("forecast.gap", float(np.maximum(gaps, 0.0).sum()))
        targets = [
            flat for flat in np.lexsort((np.arange(gaps.size), -gaps))
            if gaps[flat] >= cfg.gap_threshold
        ]
        if not targets or not locations:
            return []
        # Per-worker terms, once per call: reach (the detour share a move
        # may spend), the latest allowed arrival, and the distance bound
        # both imply for the numpy filter.  The bound is widened by a
        # slack far above the rounding of either exact test, so the
        # filter only ever admits extra workers and the exact test
        # decides.  Cooling-down and already-moved workers get -inf.
        reach = [cfg.detour_fraction * w.detour_budget_km for w in idle_workers]
        latest = [min(w.availability_end(), self.t_end) - 1e-9 for w in idle_workers]
        speed = [w.speed_km_per_min for w in idle_workers]
        speed_arr = np.array(speed, dtype=float)
        bound = np.minimum(reach, (np.array(latest) - t) * speed_arr)
        bound += _FILTER_SLACK * (1.0 + np.abs(bound) + abs(t) * speed_arr)
        cooling = [self._cooldown.get(w.worker_id, -math.inf) > t for w in idle_workers]
        bound[cooling] = -np.inf
        moves: list[Move] = []
        for flat in targets:
            if len(moves) >= cfg.max_moves:
                break
            i, j = flat // grid.cols, flat % grid.cols
            centre = grid.cell_center(i, j)
            wanted = int(math.ceil(gaps[flat]))
            near = np.hypot(xy[:, 0] - centre.x, xy[:, 1] - centre.y) <= bound
            near &= cells != flat  # a worker already in the cell supplies it
            candidates = []
            for k in np.flatnonzero(near).tolist():
                dist = locations[k].distance_to(centre)
                if dist > reach[k]:
                    continue
                arrive = t + dist / speed[k]
                if arrive > latest[k]:
                    continue
                candidates.append((dist, idle_workers[k].worker_id, k, arrive))
            candidates.sort(key=lambda c: (c[0], c[1]))
            for dist, worker_id, k, arrive in candidates[:wanted]:
                if len(moves) >= cfg.max_moves:
                    break
                moves.append(
                    Move(
                        worker_id=worker_id,
                        cell=(i, j),
                        target=centre,
                        distance_km=dist,
                        depart_t=t,
                        arrive_t=arrive,
                        gap=float(gaps[flat]),
                    )
                )
                bound[k] = -np.inf
                self._cooldown[worker_id] = t + cfg.cooldown_minutes
        self.n_prepositioned += len(moves)
        return moves

    # -- summary --------------------------------------------------------
    def mae(self) -> float | None:
        """Mean absolute one-step forecast error per cell-bin, or
        ``None`` when no bin completed with a forecast on record."""
        if not self._err_bins:
            return None
        return float(self._err_sum.mean() / self._err_bins)

    def cell_mae(self) -> dict[str, float]:
        """Running per-cell MAE for cells with any error mass."""
        if not self._err_bins:
            return {}
        means = self._err_sum / self._err_bins
        return {
            f"{flat // self.grid.cols}-{flat % self.grid.cols}": float(means[flat])
            for flat in np.nonzero(self._err_sum > 0)[0]
        }
