"""Uniform-grid spatial index for sparse candidate generation.

Dense assignment enumerates every (task, worker) pair — O(W x T) per
batch — even though Theorem 2 discards any pair whose predicted points
all lie further than ``min(d/2, sp * (deadline - t))`` from the task.
Bucketing task locations into a uniform grid (the same trick as
``repro.geo.grid``, but extent-free) lets each worker fetch only the
tasks near its predicted trajectory, so the candidate graph fed to
PPI/KM is sparse wherever the city is larger than the detour radius.

:func:`build_candidates` runs the whole batch as one numpy pass: the
tasks are sorted once by ``(cell column, cell row)``, every eligible
snapshot's predicted points are stacked into one array
(:func:`predicted_points`), and for each (point, occupied column) pair a
``searchsorted`` finds the contiguous run of tasks whose rows fall in
the point's bounding-box cell range — the cells :func:`cells_in_radius`
lists.  The pass itself, :func:`candidates_from_points`, reads only
arrays (task ids and locations, the stacked points, worker ids), so a
shard server (:mod:`repro.dist.server`) runs the same code on the
arrays of its stripe.  :class:`UniformGridIndex` is the per-point form
of the same scan, kept as the reference the tests compare the batched
pass against.

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
from typing import NamedTuple, Sequence

import numpy as np

from repro.sc.entities import SpatialTask, WorkerSnapshot


def cells_in_radius(
    x: float, y: float, radius: float, cell_km: float
) -> list[tuple[int, int]]:
    """Grid cells a radius query around ``(x, y)`` touches.

    The bounding-box cell range ``cell(x - r, y - r) .. cell(x + r,
    y + r)`` — a superset of the cells the disk intersects, and exactly
    the cells :meth:`UniformGridIndex._query_positions` scans.  The
    batched :func:`build_candidates` and the shard halo
    (:meth:`repro.dist.shard.ShardPlanner.memberships`) compute the same
    ranges with the same floor arithmetic over a whole batch, so "which
    shards can this worker reach" and "which cells will the index read"
    agree by construction: any point a query could return lives in one
    of these cells.

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


class PredictedPoints(NamedTuple):
    """One batch's predicted points, stacked for a single numpy pass."""

    #: ``(P, 2)`` predicted points of every eligible snapshot, in order.
    xy: np.ndarray
    #: ``(P,)`` snapshot position owning each point.
    owner: np.ndarray
    #: ``(P,)`` query radius of each point's snapshot.
    radius: np.ndarray


def predicted_points(
    snapshots: Sequence[WorkerSnapshot], horizon: float
) -> PredictedPoints:
    """Stack every eligible snapshot's predicted points for one batch.

    A snapshot's radius is ``min(d/2, sp * horizon)``; snapshots with no
    predicted points or a radius ``<= 0`` can reach no task and are
    skipped, so the stack may be empty.  A non-finite point or radius
    raises ``ValueError`` naming the worker: the cell arithmetic
    downstream would otherwise place it silently in a bogus cell.
    """
    blocks: list[np.ndarray] = []
    owners: list[int] = []
    radii: list[float] = []
    for pos, snap in enumerate(snapshots):
        if len(snap.predicted_xy) == 0:
            continue
        radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
        if radius <= 0:
            continue
        blocks.append(snap.predicted_xy)
        owners.append(pos)
        radii.append(radius)
    counts = [len(block) for block in blocks]
    points = PredictedPoints(
        xy=np.concatenate(blocks) if blocks else np.empty((0, 2)),
        owner=np.repeat(np.asarray(owners, dtype=np.intp), counts),
        radius=np.repeat(np.asarray(radii, dtype=float), counts),
    )
    bad_radius = ~np.isfinite(points.radius)
    if bad_radius.any():
        i = int(np.argmax(bad_radius))
        raise ValueError(
            f"worker {snapshots[points.owner[i]].worker_id}: non-finite query radius "
            f"{points.radius[i]} (from detour_budget_km and speed_km_per_min)"
        )
    bad_point = ~np.isfinite(points.xy).all(axis=1)
    if bad_point.any():
        i = int(np.argmax(bad_point))
        raise ValueError(
            f"worker {snapshots[points.owner[i]].worker_id}: non-finite predicted_xy "
            f"point {points.xy[i].tolist()}"
        )
    return points


def task_arrays(tasks: Sequence[SpatialTask]) -> tuple[np.ndarray, np.ndarray]:
    """The batch's task ids and ``(T, 2)`` locations, in batch order."""
    ids = np.array([t.task_id for t in tasks])
    xy = np.array([(t.location.x, t.location.y) for t in tasks], dtype=float)
    return ids, xy.reshape(-1, 2)


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the runs ``starts[i] .. starts[i] + counts[i] - 1``.

    Returns ``(run index, value)`` per element, runs in order.
    """
    counts = np.maximum(counts, 0)
    run = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return run, np.arange(len(run)) - offsets[run] + starts[run]


def build_candidates(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    cell_km: float = 1.0,
    max_candidates: int | None = None,
    horizon: float | None = None,
) -> dict[int, list[int]]:
    """Sparse candidate graph ``task_id -> worker ids`` for one batch.

    Queries every snapshot's predicted points against the grid cells of
    the pending task locations with radius ``d/2`` (capped by how far
    the worker could travel before the latest pending deadline), so the
    graph is a superset of the Theorem-2-feasible pairs — PPI/KM on it
    match the dense plan exactly.  Worker ids per task are ordered by
    snapshot position, reproducing the dense enumeration order;
    ``max_candidates`` keeps only the k nearest workers per task
    (approximate, but bounds the per-task degree; ties go to the
    earlier snapshot).  ``horizon`` overrides the deadline horizon (see
    :func:`latest_horizon`); the default derives it from ``tasks``.

    The batch runs as one numpy pass (see the module docstring) and
    scans exactly the cells a per-point :meth:`UniformGridIndex.query`
    would, with the same distance expression, so the graph equals the
    per-point one bit for bit.
    """
    if cell_km <= 0:
        raise ValueError("cell size must be positive")
    if horizon is None:
        horizon = latest_horizon(tasks, current_time)
    if not tasks:
        return {}
    return candidates_from_points(
        *task_arrays(tasks),
        predicted_points(snapshots, horizon),
        [snap.worker_id for snap in snapshots],
        cell_km,
        max_candidates,
    )


def candidates_from_points(
    task_ids: np.ndarray,
    task_xy: np.ndarray,
    points: PredictedPoints,
    worker_ids: Sequence[int] | np.ndarray,
    cell_km: float,
    max_candidates: int | None = None,
) -> dict[int, list[int]]:
    """:func:`build_candidates` on plain arrays: the one index pass.

    ``task_ids`` and ``task_xy`` are the tasks in batch order (see
    :func:`task_arrays`); ``points`` are predicted points stacked by
    :func:`predicted_points` (or any subset of them, in stack order),
    whose ``owner`` indexes ``worker_ids``, the worker id of every
    snapshot position.  A caller that also needs the points elsewhere
    (the sharded build's halo accounting) stacks them once, and a shard
    server builds its stripe from these arrays alone.
    """
    if not len(task_ids) or not len(points.xy):
        return {}

    if not np.isfinite(task_xy).all():
        bad = int(np.argmax(~np.isfinite(task_xy).all(axis=1)))
        raise ValueError(f"task {task_ids[bad]}: non-finite location")
    # Tasks sorted by (column rank, row rank): each occupied column's
    # tasks form one run, sorted by row inside it.
    task_cell = np.floor(task_xy / cell_km)
    cols, col_rank = np.unique(task_cell[:, 0], return_inverse=True)
    rows, row_rank = np.unique(task_cell[:, 1], return_inverse=True)
    key = col_rank.reshape(-1) * len(rows) + row_rank.reshape(-1)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]

    # Each point's bounding-box cell range, as in cells_in_radius, cut
    # down to the occupied columns and rows.
    reach = points.radius[:, None]
    lo = np.floor((points.xy - reach) / cell_km)
    hi = np.floor((points.xy + reach) / cell_km)
    col_lo = np.searchsorted(cols, lo[:, 0], "left")
    col_hi = np.searchsorted(cols, hi[:, 0], "right")
    row_lo = np.searchsorted(rows, lo[:, 1], "left")
    row_hi = np.searchsorted(rows, hi[:, 1], "right")

    # One task run per (point, occupied column) pair.
    point, col = _expand(col_lo, col_hi - col_lo)
    run_start = np.searchsorted(sorted_key, col * len(rows) + row_lo[point], "left")
    run_stop = np.searchsorted(sorted_key, col * len(rows) + row_hi[point], "left")
    run, slot = _expand(run_start, run_stop - run_start)
    point = point[run]
    task = order[slot]

    dist = np.sqrt(((task_xy[task] - points.xy[point]) ** 2).sum(axis=1))
    keep = dist <= points.radius[point]
    if not keep.any():
        return {}
    owner = points.owner[point[keep]]
    dist = dist[keep]
    # Tasks sharing an id count as one, as in a per-id index.
    id_rank: dict[int, int] = {}
    task_rank = np.array([id_rank.setdefault(i, len(id_rank)) for i in task_ids.tolist()])
    ident = task_rank[task[keep]]

    # The nearest hit per (task, snapshot), in (task, snapshot) order.
    by_pair = np.lexsort((dist, owner, ident))
    ident, owner, dist = ident[by_pair], owner[by_pair], dist[by_pair]
    first = np.ones(len(ident), dtype=bool)
    first[1:] = (ident[1:] != ident[:-1]) | (owner[1:] != owner[:-1])
    ident, owner, dist = ident[first], owner[first], dist[first]

    if max_candidates is not None:
        # Per task: nearest first, ties to the earlier snapshot (a
        # stable sort of the snapshot-ordered list), keep the first k.
        nearest = np.lexsort((owner, dist, ident))
        grouped = ident[nearest]
        position = np.arange(len(nearest))
        group_start = np.where(np.r_[True, grouped[1:] != grouped[:-1]], position, 0)
        rank = position - np.maximum.accumulate(group_start)
        kept = np.empty(len(nearest), dtype=bool)
        kept[nearest] = rank < max_candidates
        ident, owner = ident[kept], owner[kept]

    ids = list(id_rank)
    workers = np.asarray(worker_ids)[owner].tolist()
    bounds = np.flatnonzero(ident[1:] != ident[:-1]) + 1
    starts = [0, *bounds.tolist()]
    stops = [*bounds.tolist(), len(workers)]
    return {
        ids[rank]: workers[a:b]
        for rank, a, b in zip(ident[starts].tolist(), starts, stops)
    }
