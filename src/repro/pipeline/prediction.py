"""Online prediction: building worker snapshots per assignment batch.

The platform knows each worker's *shared location track* up to the
current batch time (workers "merely share their current location ...
when they are online", Section II); the predictive provider feeds the
last ``seq_in`` shared samples to the worker's adapted model and rolls
it out autoregressively for the assignment horizon.  The oracle and
current-location providers implement the UB and LB baselines' views.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.pipeline.config import AssignmentConfig
from repro.pipeline.training import TrainedPredictor
from repro.sc.acceptance import oracle_future_route
from repro.sc.entities import Worker, WorkerSnapshot


def rollout(model, recent_norm: np.ndarray, horizon_points: int, seq_out: int) -> np.ndarray:
    """Autoregressive rollout: predict ``horizon_points`` future points.

    ``recent_norm`` is the ``(seq_in, 2)`` normalised input window;
    each model call emits ``seq_out`` points which are appended to the
    window for the next call.  Calls run the model's fused forward on
    weights prepared once per rollout (``model.predictor()``), which
    gives the points of one ``model.predict`` call per block bit for
    bit.
    """
    predict = model.predictor()
    window = np.asarray(recent_norm, dtype=float).copy()
    out: list[np.ndarray] = []
    while sum(len(o) for o in out) < horizon_points:
        pred = predict(window)
        out.append(pred)
        window = np.concatenate([window, pred])[-len(recent_norm) :]
    return np.concatenate(out)[:horizon_points]


@dataclass
class PredictiveSnapshotProvider:
    """Snapshots from the trained per-worker mobility models.

    A worker's model input changes only when they share a new sample,
    while batches usually fire more often, so the provider keeps each
    worker's latest rollout keyed on the exact bytes of the normalised
    input window and reuses it on a byte-equal window.  The key is the
    model input itself: a new sample, or a routine replaced under the
    same id, yields a different window and a fresh rollout.  Memoised
    ``predicted_xy`` arrays are shared between snapshots and therefore
    read-only.
    """

    predictor: TrainedPredictor
    assignment: AssignmentConfig
    sample_step: float = 10.0

    def __post_init__(self) -> None:
        self._models: dict[int, object] = {}
        self._latest: dict[int, tuple[bytes, np.ndarray]] = {}

    def _model(self, worker_id: int):
        if worker_id not in self._models:
            self._models[worker_id] = self.predictor.model_for(worker_id)
        return self._models[worker_id]

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        city = self.predictor.city
        seq_in = self.predictor.config.seq_in
        recent_xy, _ = _recent_shared_track(worker, t, seq_in)
        recent_norm = city.grid.normalize(recent_xy)
        key = recent_norm.tobytes()
        latest = self._latest.get(worker.worker_id)
        if latest is not None and latest[0] == key:
            pred_xy = latest[1]
        else:
            model = self._model(worker.worker_id)
            pred_norm = rollout(model, recent_norm, self.assignment.horizon_points, self.predictor.config.seq_out)
            pred_xy = city.grid.denormalize(pred_norm)
            pred_xy.setflags(write=False)
            self._latest[worker.worker_id] = (key, pred_xy)
        pred_times = t + self.sample_step * np.arange(1, len(pred_xy) + 1)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=worker.last_shared_location(t),
            predicted_xy=pred_xy,
            predicted_times=pred_times,
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=self.predictor.matching_rates.get(worker.worker_id, 0.0),
        )


@dataclass
class OracleSnapshotProvider:
    """UB's view: the real future route, matching rate 1."""

    horizon_points: int = 6

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        xy, times = oracle_future_route(worker, t, self.horizon_points)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=worker.location_at(t),
            predicted_xy=xy,
            predicted_times=times,
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=1.0,
        )


@dataclass
class CurrentLocationSnapshotProvider:
    """LB's view: nothing but the last *shared* location report.

    Between reports the platform's view is stale by up to one sample
    step - exactly the information gap mobility prediction closes.
    """

    def __call__(self, worker: Worker, t: float) -> WorkerSnapshot:
        here = worker.last_shared_location(t)
        return WorkerSnapshot(
            worker_id=worker.worker_id,
            current_location=here,
            predicted_xy=np.array([[here.x, here.y]]),
            predicted_times=np.array([t]),
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
            matching_rate=0.0,
        )


def _recent_shared_track(worker: Worker, t: float, seq_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The last ``seq_in`` locations the worker shared up to time ``t``.

    Pads by repeating the earliest sample when the worker just came
    online, so the model always receives a full window.
    """
    times = worker.routine.times
    hi = bisect.bisect_right(times, t)
    lo = max(hi - seq_in, 0)
    xy = worker.routine.xy[lo:hi]
    ts = np.asarray(times[lo:hi])
    if len(xy) == 0:
        here = worker.routine.position_at(t)
        xy = np.array([[here.x, here.y]])
        ts = np.array([t])
    while len(xy) < seq_in:
        xy = np.concatenate([xy[:1], xy])
        ts = np.concatenate([ts[:1] - 1.0, ts])
    return xy, ts
