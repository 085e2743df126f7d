"""Loaders for the real corpora the paper evaluates on.

The offline reproduction ships synthetic generators, but adopters with
access to the actual datasets can ingest them here:

* :func:`load_porto_csv` — the Kaggle "Porto taxi" CSV (one row per
  trip, ``POLYLINE`` column of ``[lon, lat]`` pairs sampled every 15 s);
* :func:`load_gowalla_checkins` — the SNAP Gowalla check-in TSV
  (``user<TAB>iso-time<TAB>lat<TAB>lon<TAB>venue``);
* :func:`load_didi_orders` — ride-order CSVs with pickup time and
  coordinates.

All loaders project latitude/longitude to the planar kilometre frame
with a local equirectangular projection anchored at the data's centroid
and emit the same :class:`~repro.sc.entities.Worker` /
:class:`~repro.sc.entities.SpatialTask` objects the generators do, so
the whole pipeline runs unchanged on real data.  A coordinate or time
that is not a finite number fails at its row, naming the file, the
line and the field: one ``nan`` latitude would otherwise shift the
projection's anchor and poison every trajectory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.geo.grid import Grid
from repro.geo.point import EARTH_RADIUS_KM, Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.sc.entities import SpatialTask, Worker


@dataclass(frozen=True, slots=True)
class Projection:
    """Local equirectangular lat/lon -> planar km projection."""

    lat0: float
    lon0: float

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        x = math.radians(lon - self.lon0) * EARTH_RADIUS_KM * math.cos(math.radians(self.lat0))
        y = math.radians(lat - self.lat0) * EARTH_RADIUS_KM
        return x, y

    @staticmethod
    def around(latlon: np.ndarray) -> "Projection":
        """Projection anchored at the centroid of ``(n, 2)`` lat/lon."""
        arr = np.asarray(latlon, dtype=float).reshape(-1, 2)
        if len(arr) == 0:
            raise ValueError("cannot anchor a projection on zero points")
        return Projection(lat0=float(arr[:, 0].mean()), lon0=float(arr[:, 1].mean()))


def fit_grid(points_xy: np.ndarray, rows: int = 100, cols: int = 50, margin: float = 0.02) -> tuple[Grid, np.ndarray]:
    """A grid covering the data's bounding box, plus the shifted points.

    The planar frame uses non-negative coordinates, so the points are
    translated to start at the (margin-padded) origin.
    """
    pts = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise ValueError("cannot fit a grid on zero points")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = np.maximum(hi - lo, 1e-6)
    pad = extent * margin
    shifted = pts - lo + pad
    width, height = (extent + 2 * pad).tolist()
    return Grid(width_km=float(width), height_km=float(height), rows=rows, cols=cols), shifted


def _finite(raw, where: str, field: str) -> float:
    """``raw`` as a finite float; anything else fails naming ``where`` and ``field``."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {field} {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {field} must be finite, got {raw!r}")
    return value


def _parse_polyline(raw: str, where: str) -> list[tuple[float, float]]:
    """The Kaggle POLYLINE column: a JSON list of ``[lon, lat]``."""
    try:
        pairs = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed POLYLINE: {raw[:60]}...") from exc
    return [
        (_finite(lat, where, f"POLYLINE point {k} latitude"),
         _finite(lon, where, f"POLYLINE point {k} longitude"))
        for k, (lon, lat) in enumerate(pairs)
    ]


def load_porto_csv(
    path: str | Path,
    max_trips: int | None = None,
    sample_seconds: float = 15.0,
    detour_budget_km: float = 4.0,
    speed_km_per_min: float = 0.7,
) -> tuple[Grid, list[Worker], Projection]:
    """Load Kaggle Porto trips into per-taxi daily Workers.

    Each taxi becomes one worker; each calendar day's trips concatenate
    into one daily trajectory (minutes since that day's midnight).  The
    last observed day becomes the worker's test ``routine``; earlier
    days become ``history``.
    """
    path = Path(path)
    per_taxi_day: dict[tuple[str, str], list[TrajectoryPoint]] = {}
    all_latlon: list[tuple[float, float]] = []

    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"TAXI_ID", "TIMESTAMP", "POLYLINE"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"Porto CSV must contain columns {sorted(required)}")
        for i, row in enumerate(reader):
            if max_trips is not None and i >= max_trips:
                break
            where = f"{path}:{reader.line_num}"
            latlon = _parse_polyline(row["POLYLINE"], where)
            if len(latlon) < 2:
                continue
            stamp = _finite(row["TIMESTAMP"], where, "TIMESTAMP")
            start = datetime.fromtimestamp(stamp, tz=timezone.utc)
            day_key = start.strftime("%Y-%m-%d")
            minute0 = start.hour * 60 + start.minute + start.second / 60.0
            for k, pair in enumerate(latlon):
                all_latlon.append(pair)
                t = minute0 + k * sample_seconds / 60.0
                per_taxi_day.setdefault((row["TAXI_ID"], day_key), []).append(
                    TrajectoryPoint(Point(pair[0], pair[1]), t)  # placeholder lat/lon, projected below
                )

    if not all_latlon:
        raise ValueError(f"no usable trips found in {path}")
    projection = Projection.around(np.array(all_latlon))
    raw_xy = np.array([projection.to_xy(lat, lon) for lat, lon in all_latlon])
    grid, _ = fit_grid(raw_xy)
    offset = raw_xy.min(axis=0) - np.array([grid.width_km, grid.height_km]) * 0.02

    def to_planar(p: Point) -> Point:
        x, y = projection.to_xy(p.x, p.y)
        return grid.clamp(Point(x - offset[0], y - offset[1]))

    workers: list[Worker] = []
    taxis = sorted({taxi for taxi, _ in per_taxi_day})
    for worker_id, taxi in enumerate(taxis):
        days = sorted(day for t, day in per_taxi_day if t == taxi)
        trajectories: list[Trajectory] = []
        for day in days:
            pts = sorted(per_taxi_day[(taxi, day)], key=lambda p: p.time)
            dedup: list[TrajectoryPoint] = []
            for p in pts:
                if dedup and p.time <= dedup[-1].time:
                    continue
                dedup.append(TrajectoryPoint(to_planar(p.location), p.time))
            if len(dedup) >= 2:
                trajectories.append(Trajectory(dedup))
        if not trajectories:
            continue
        workers.append(
            Worker(
                worker_id=worker_id,
                routine=trajectories[-1],
                detour_budget_km=detour_budget_km,
                speed_km_per_min=speed_km_per_min,
                history=trajectories[:-1],
            )
        )
    return grid, workers, projection


def load_gowalla_checkins(
    path: str | Path,
    max_rows: int | None = None,
    detour_budget_km: float = 4.0,
    speed_km_per_min: float = 0.7,
) -> tuple[Grid, list[Worker], Projection]:
    """Load SNAP Gowalla check-ins into per-user daily Workers.

    Rows: ``user<TAB>2010-10-19T23:55:27Z<TAB>lat<TAB>lon<TAB>venue``.
    """
    path = Path(path)
    per_user_day: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    all_latlon: list[tuple[float, float]] = []

    with path.open() as handle:
        for i, line in enumerate(handle):
            if max_rows is not None and i >= max_rows:
                break
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 4:
                continue
            user, stamp, lat_s, lon_s = parts[0], parts[1], parts[2], parts[3]
            where = f"{path}:{i + 1}"
            try:
                when = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            except ValueError:
                raise ValueError(f"{where}: time {stamp!r} is not an ISO timestamp") from None
            lat = _finite(lat_s, where, "latitude")
            lon = _finite(lon_s, where, "longitude")
            all_latlon.append((lat, lon))
            minute = when.hour * 60 + when.minute + when.second / 60.0
            per_user_day.setdefault((user, when.strftime("%Y-%m-%d")), []).append((minute, lat, lon))

    if not all_latlon:
        raise ValueError(f"no usable check-ins found in {path}")
    projection = Projection.around(np.array(all_latlon))
    raw_xy = np.array([projection.to_xy(lat, lon) for lat, lon in all_latlon])
    grid, _ = fit_grid(raw_xy)
    offset = raw_xy.min(axis=0) - np.array([grid.width_km, grid.height_km]) * 0.02

    workers: list[Worker] = []
    users = sorted({user for user, _ in per_user_day})
    for worker_id, user in enumerate(users):
        days = sorted(day for u, day in per_user_day if u == user)
        trajectories: list[Trajectory] = []
        for day in days:
            pts = []
            last_t = -1.0
            for minute, lat, lon in sorted(per_user_day[(user, day)]):
                if minute <= last_t:
                    continue
                x, y = projection.to_xy(lat, lon)
                pts.append(TrajectoryPoint(grid.clamp(Point(x - offset[0], y - offset[1])), minute))
                last_t = minute
            if len(pts) >= 2:
                trajectories.append(Trajectory(pts))
        if not trajectories:
            continue
        workers.append(
            Worker(
                worker_id=worker_id,
                routine=trajectories[-1],
                detour_budget_km=detour_budget_km,
                speed_km_per_min=speed_km_per_min,
                history=trajectories[:-1],
            )
        )
    return grid, workers, projection


def load_didi_orders(
    path: str | Path,
    grid: Grid,
    projection: Projection,
    valid_time_minutes: tuple[float, float] = (30.0, 40.0),
    max_rows: int | None = None,
    seed: int = 0,
    offset_xy: Sequence[float] = (0.0, 0.0),
) -> list[SpatialTask]:
    """Load ride orders (``order_id,start_epoch,pickup_lon,pickup_lat``)
    as spatial tasks on an existing grid/projection (the worker side's).
    """
    path = Path(path)
    rng = np.random.default_rng(seed)
    lo, hi = valid_time_minutes
    if lo <= 0 or hi < lo:
        raise ValueError("valid-time interval must be positive and ordered")
    tasks: list[SpatialTask] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for i, row in enumerate(reader):
            if max_rows is not None and len(tasks) >= max_rows:
                break
            if len(row) < 4 or row[0].lower().startswith("order"):
                continue
            where = f"{path}:{reader.line_num}"
            epoch = _finite(row[1], where, "start_epoch")
            lon = _finite(row[2], where, "pickup_lon")
            lat = _finite(row[3], where, "pickup_lat")
            when = datetime.fromtimestamp(epoch, tz=timezone.utc)
            minute = when.hour * 60 + when.minute + when.second / 60.0
            x, y = projection.to_xy(lat, lon)
            loc = grid.clamp(Point(x - offset_xy[0], y - offset_xy[1]))
            valid = float(rng.uniform(lo, hi))
            tasks.append(
                SpatialTask(task_id=i, location=loc, release_time=minute, deadline=minute + valid)
            )
    tasks.sort(key=lambda t: t.release_time)
    return tasks
