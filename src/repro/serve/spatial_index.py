"""Uniform-grid spatial index for sparse candidate generation.

Dense assignment enumerates every (task, worker) pair — O(W x T) per
batch — even though Theorem 2 discards any pair whose predicted points
all lie further than ``min(d/2, sp * (deadline - t))`` from the task.
Bucketing task locations into a uniform grid (the same trick as
``repro.geo.grid``, but hashed and extent-free) lets each worker fetch
only the tasks near its predicted trajectory, so the candidate graph
fed to PPI/KM is sparse wherever the city is larger than the detour
radius.

Exactness: ``min(d/2, d^t) <= d/2``, so querying every predicted point
with radius ``d/2`` returns a **superset** of the pairs the dense path
can match; running PPI/KM on that superset yields the identical plan
(guarded by the parity tests).  The optional ``max_candidates`` cap
(k-nearest predicted-proximity pruning, cf. Cheng et al.'s candidate
pruning around predicted positions) trades that exactness for bounded
per-batch work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.sc.entities import SpatialTask, WorkerSnapshot


def cells_in_radius(
    x: float, y: float, radius: float, cell_km: float
) -> list[tuple[int, int]]:
    """Grid cells a radius query around ``(x, y)`` touches.

    The bounding-box cell range ``cell(x - r, y - r) .. cell(x + r,
    y + r)`` — a superset of the cells the disk intersects, and exactly
    the cells :meth:`UniformGridIndex._query_positions` scans.  Shard
    and halo construction in :mod:`repro.dist.shard` reuses this so
    "which shards can this worker reach" and "which buckets will the
    index read" are the same arithmetic by construction: any point a
    query could return lives in one of these cells.

    A point exactly on a cell edge belongs to the higher cell
    (``floor`` semantics), consistent with the index's bucketing.
    """
    if radius < 0:
        raise ValueError("query radius must be non-negative")
    if cell_km <= 0:
        raise ValueError("cell size must be positive")
    cx0 = math.floor((x - radius) / cell_km)
    cy0 = math.floor((y - radius) / cell_km)
    cx1 = math.floor((x + radius) / cell_km)
    cy1 = math.floor((y + radius) / cell_km)
    return [(cx, cy) for cx in range(cx0, cx1 + 1) for cy in range(cy0, cy1 + 1)]


@dataclass
class UniformGridIndex:
    """A hash-bucketed uniform grid over 2-D points.

    Unlike :class:`repro.geo.grid.Grid` this has no fixed extent —
    cells are keyed by ``(floor(x / cell), floor(y / cell))`` — so it
    never clamps and costs only the occupied buckets.
    """

    cell_km: float = 1.0
    _buckets: dict[tuple[int, int], list[int]] = field(default_factory=dict, repr=False)
    _ids: list[int] = field(default_factory=list, repr=False)
    _xy: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cell_km <= 0:
            raise ValueError("cell size must be positive")

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell_km), math.floor(y / self.cell_km)

    def build(self, items: Sequence[tuple[int, float, float]]) -> "UniformGridIndex":
        """(Re)build from ``(id, x, y)`` tuples; returns self."""
        self._buckets = {}
        self._ids = []
        xy = np.empty((len(items), 2), dtype=float)
        for pos, (item_id, x, y) in enumerate(items):
            self._ids.append(item_id)
            xy[pos] = (x, y)
            self._buckets.setdefault(self._cell(x, y), []).append(pos)
        self._xy = xy
        return self

    def __len__(self) -> int:
        return len(self._ids)

    def query(self, x: float, y: float, radius: float) -> list[tuple[int, float]]:
        """All indexed ``(id, distance)`` within ``radius`` of ``(x, y)``."""
        return [
            (self._ids[pos], dist)
            for pos, dist in self._query_positions(x, y, radius)
        ]

    def _query_positions(self, x: float, y: float, radius: float) -> list[tuple[int, float]]:
        if radius < 0:
            raise ValueError("query radius must be non-negative")
        if self._xy is None or not len(self._ids):
            return []
        positions: list[int] = []
        for cell in cells_in_radius(x, y, radius, self.cell_km):
            bucket = self._buckets.get(cell)
            if bucket:
                positions.extend(bucket)
        if not positions:
            return []
        pts = self._xy[positions]
        dists = np.sqrt(((pts - np.array([x, y])) ** 2).sum(axis=1))
        keep = dists <= radius
        return [(positions[i], float(dists[i])) for i in np.flatnonzero(keep)]

    def query_points(self, xy: np.ndarray, radius: float) -> dict[int, float]:
        """Min distance per indexed id over a set of query points.

        This is the per-worker candidate query: ``xy`` is the worker's
        predicted trajectory and the result maps each task id within
        ``radius`` of *some* predicted point to the smallest such
        distance.
        """
        best: dict[int, float] = {}
        arr = np.asarray(xy, dtype=float).reshape(-1, 2)
        for x, y in arr:
            for pos, dist in self._query_positions(float(x), float(y), radius):
                item_id = self._ids[pos]
                if dist < best.get(item_id, math.inf):
                    best[item_id] = dist
        return best


def latest_horizon(
    tasks: Sequence[SpatialTask], current_time: float
) -> float:
    """Minutes until the latest pending deadline (the radius cap).

    Exposed so a coordinator splitting ``tasks`` across shards can
    compute the horizon over the *global* task set and pass it to each
    per-shard :func:`build_candidates` call — a shard-local horizon
    would shrink some workers' query radii and break exact agreement
    with the dense graph.
    """
    latest_deadline = max((t.deadline for t in tasks), default=current_time)
    return max(latest_deadline - current_time, 0.0)


def build_candidates(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    cell_km: float = 1.0,
    max_candidates: int | None = None,
    horizon: float | None = None,
) -> dict[int, list[int]]:
    """Sparse candidate graph ``task_id -> worker ids`` for one batch.

    Queries every snapshot's predicted points against a grid index of
    the pending task locations with radius ``d/2`` (capped by how far
    the worker could travel before the latest pending deadline), so the
    graph is a superset of the Theorem-2-feasible pairs — PPI/KM on it
    match the dense plan exactly.  Worker ids per task are ordered by
    snapshot position, reproducing the dense enumeration order;
    ``max_candidates`` keeps only the k nearest workers per task
    (approximate, but bounds the per-task degree).  ``horizon``
    overrides the deadline horizon (see :func:`latest_horizon`); the
    default derives it from ``tasks``.
    """
    index = UniformGridIndex(cell_km=cell_km)
    index.build([(t.task_id, t.location.x, t.location.y) for t in tasks])
    if horizon is None:
        horizon = latest_horizon(tasks, current_time)

    per_task: dict[int, list[tuple[int, float]]] = {}
    for pos, snap in enumerate(snapshots):
        if len(snap.predicted_xy) == 0:
            continue
        radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
        if radius <= 0:
            continue
        for task_id, dist in index.query_points(snap.predicted_xy, radius).items():
            per_task.setdefault(task_id, []).append((pos, dist))

    graph: dict[int, list[int]] = {}
    for task_id, hits in per_task.items():
        if max_candidates is not None and len(hits) > max_candidates:
            hits = sorted(hits, key=lambda h: h[1])[:max_candidates]
            hits.sort(key=lambda h: h[0])
        graph[task_id] = [snapshots[pos].worker_id for pos, _ in hits]
    return graph
