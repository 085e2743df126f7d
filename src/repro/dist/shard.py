"""Spatial sharding of the assignment stage, with exact merge.

The paper's Theorem 2 bounds how far a worker can detour:
``min(d/2, sp * (deadline - t))``.  That makes one assignment batch
spatially decomposable — a worker whose predicted points all lie
further than that radius from a task can never serve it — so the grid
splits into ``K`` x-stripes of index cell columns, and each stripe's
candidate generation runs independently:

* **tasks** are owned by exactly one stripe (the one owning their cell
  column) — the merge is a disjoint union, no conflicts by construction;
* **workers** join every stripe their radius-expanded predicted points
  touch (the *halo*), computed with the same
  :func:`repro.serve.spatial_index.cells_in_radius` column ranges the
  batched index pass scans, so shard membership covers exactly the
  cells a query could read;
* the **horizon** (latest pending deadline) is computed once over the
  global task set and passed down, because a shard-local horizon would
  shrink halo radii.

Under those three rules the merged candidate graph **equals** the dense
single-process :func:`~repro.serve.spatial_index.build_candidates`
output — including per-task worker order (stripes preserve global
snapshot order) and ``max_candidates`` pruning (each task's full
candidate list lives in its owning stripe).  The parity tests pin this.

:class:`ShardPlanner` is the one stripe/halo implementation: it keeps
a sticky :class:`ShardLayout` and computes every worker's halo in one
numpy pass per batch (:func:`stripe_ranges`, :func:`stripe_members`).
The stripe builds themselves run on stateless shard servers
(:mod:`repro.dist.server`), each sent its stripe's tasks and halo
points as arrays (:func:`repro.dist.serve.stripe_build_requests`); in
one process, :func:`sharded_build_candidates` builds the dense graph
once and uses the planner only for the per-stripe accounting.

Matching then decomposes by *connected components* of the edge graph:
stages 1 and 3 of PPI (and all of KM) are global max-weight matchings,
and a maximum matching restricted to a connected component is the
component of a global maximum matching whenever the optimum is unique —
the ordinary case with generic float weights (reciprocal distances).
:class:`ComponentMatcher` plugs into
:func:`repro.assignment.ppi.ppi_assign` /
:func:`repro.assignment.baselines.km_assign` via their ``matcher`` hook
and re-sorts the merged matching into the ascending left-id order the
dense solver emits.  PPI's stage-2 epsilon-chunking is order-sensitive
and *not* component-decomposable, so it stays on the coordinator — its
chunks are at most ``epsilon`` edges anyway.

A sharded assignment round is the composition of the two::

    ppi_assign(tasks, snapshots, t,
               sharded_build_candidates(tasks, snapshots, t, ShardPlanner(shards)),
               matcher=ComponentMatcher())
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.obs.metrics import labelled
from repro.assignment.hungarian import WarmStartState, maximum_weight_matching
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve.spatial_index import (
    PredictedPoints,
    candidates_from_points,
    latest_horizon,
    predicted_points,
    task_arrays,
)

Edge = tuple[int, int, float]


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One x-stripe of index cell columns, ``col_lo..col_hi`` inclusive."""

    shard_id: int
    col_lo: int
    col_hi: int

    def owns_column(self, col: int) -> bool:
        return self.col_lo <= col <= self.col_hi


@dataclass
class ShardStats:
    """Per-batch accounting of one sharded candidate build."""

    n_shards: int = 0
    tasks_per_shard: list[int] = field(default_factory=list)
    snapshots_per_shard: list[int] = field(default_factory=list)
    pairs_per_shard: list[int] = field(default_factory=list)
    n_boundary_workers: int = 0
    merge_seconds: float = 0.0


def fill_shard_stats(
    stats: ShardStats,
    tasks_per_shard: Sequence[int],
    members: Sequence[Sequence[int]],
    pairs_per_shard: Sequence[int],
    merge_seconds: float,
) -> None:
    """Record one batch's decomposition and publish its pair counters.

    ``members`` holds each stripe's snapshot positions; a snapshot in
    more than one stripe is a boundary worker.  Both build paths (serial
    and shard servers) report through here, so each emits the same
    ``dist.shard.pairs{shard=S}`` counters.
    """
    seen: dict[int, int] = {}
    for posns in members:
        for pos in posns:
            seen[pos] = seen.get(pos, 0) + 1
    stats.n_shards = len(members)
    stats.tasks_per_shard = list(tasks_per_shard)
    stats.snapshots_per_shard = [len(posns) for posns in members]
    stats.pairs_per_shard = list(pairs_per_shard)
    stats.n_boundary_workers = sum(1 for c in seen.values() if c > 1)
    stats.merge_seconds = merge_seconds
    for s, pairs in enumerate(stats.pairs_per_shard):
        obs.counter(labelled("dist.shard.pairs", shard=s), pairs)


def make_shards(
    tasks: Sequence[SpatialTask], k: int, cell_km: float = 1.0
) -> list[ShardSpec]:
    """Partition the occupied cell columns into ``K`` contiguous stripes.

    Stripes split the *occupied* column list (columns that actually hold
    tasks) into near-equal runs, so skewed workloads still spread across
    shards.  ``k`` is capped at the occupied column count — more stripes
    than columns cannot own anything.
    """
    if k < 1:
        raise ValueError("need at least one shard")
    if cell_km <= 0:
        raise ValueError("cell size must be positive")
    cols = sorted({math.floor(t.location.x / cell_km) for t in tasks})
    if not cols:
        return []
    k = min(k, len(cols))
    shards: list[ShardSpec] = []
    base, extra = divmod(len(cols), k)
    start = 0
    for shard_id in range(k):
        size = base + (1 if shard_id < extra else 0)
        run = cols[start : start + size]
        start += size
        shards.append(ShardSpec(shard_id=shard_id, col_lo=run[0], col_hi=run[-1]))
    return shards


@dataclass(frozen=True)
class ShardLayout:
    """A sticky stripe layout extended to a *total* column→shard map.

    :func:`make_shards` only assigns the columns occupied by the batch
    that built it; a layout reused across batches must own every column
    a future task might land in.  The gaps and the open ends clamp to
    the nearest stripe via midpoint boundaries.  Any total map keeps the
    sharded build exact: a task's owning stripe and a worker's halo
    stripes go through the *same* map, so a worker in query range of a
    task always joins the stripe that owns it — stripe skew only ever
    costs balance, never candidates.
    """

    specs: tuple[ShardSpec, ...]
    #: ``boundaries[s]`` = last column routed to stripe ``s`` (midpoint
    #: between ``specs[s].col_hi`` and ``specs[s + 1].col_lo``).
    boundaries: tuple[int, ...]
    cell_km: float
    generation: int = 0

    @classmethod
    def from_specs(
        cls, specs: Sequence[ShardSpec], cell_km: float, generation: int = 0
    ) -> "ShardLayout":
        ordered = tuple(sorted(specs, key=lambda s: s.col_lo))
        bounds = tuple(
            (ordered[s].col_hi + ordered[s + 1].col_lo) // 2
            for s in range(len(ordered) - 1)
        )
        return cls(specs=ordered, boundaries=bounds, cell_km=cell_km, generation=generation)

    def shard_for_column(self, col: int) -> int:
        return bisect_left(self.boundaries, col)

    def shard_for_x(self, x: float) -> int:
        """The stripe owning the cell column of x-coordinate ``x``."""
        return self.shard_for_column(math.floor(x / self.cell_km))

    def shards_for_x(self, x: np.ndarray) -> np.ndarray:
        """:meth:`shard_for_x` of every x-coordinate in one array pass."""
        bounds = np.asarray(self.boundaries, dtype=float)
        return np.searchsorted(bounds, np.floor(x / self.cell_km), "left")

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class ShardPlanner:
    """Keeps the stripe layout across batches and computes worker halos.

    Recomputing :func:`make_shards` each batch is serial overhead, and
    the layout is stable across consecutive batches: it is computed once
    from the first non-empty task batch and kept (optionally refreshed
    every ``relayout_every`` batches).  Halo memberships are computed
    fresh each batch in one numpy pass over every predicted point.
    """

    shards: int
    cell_km: float = 1.0
    #: refresh the stripe layout every N batches; ``None`` = sticky.
    relayout_every: int | None = None
    _layout: ShardLayout | None = None
    _batches: int = 0
    _generation: int = 0

    def layout_for(self, tasks: Sequence[SpatialTask]) -> ShardLayout | None:
        """The sticky layout, (re)built from ``tasks`` when due."""
        self._batches += 1
        due = self._layout is None or (
            self.relayout_every is not None
            and self._batches % self.relayout_every == 1
        )
        if due:
            specs = make_shards(tasks, self.shards, self.cell_km)
            if specs:
                self._generation += 1
                self._layout = ShardLayout.from_specs(
                    specs, self.cell_km, generation=self._generation
                )
        return self._layout

    def memberships(
        self,
        layout: ShardLayout,
        snapshots: Sequence[WorkerSnapshot],
        horizon: float,
    ) -> list[list[int]]:
        """Snapshot positions per stripe, preserving global snapshot order.

        A snapshot joins every stripe whose columns intersect the cells
        its radius-``min(d/2, sp * horizon)`` queries would scan — the
        halo.  Each predicted point's column range ``cx0..cx1`` is the
        :func:`~repro.serve.spatial_index.cells_in_radius` range,
        computed for the whole batch at once; stripes are contiguous
        column runs under the layout's total column map, so the point
        touches stripes ``shard_for_column(cx0) .. shard_for_column(cx1)``
        (:func:`stripe_ranges`).  Snapshots the dense path skips (no
        predicted points, zero radius) join nothing, exactly as the
        dense pass skips them.
        """
        points = predicted_points(snapshots, horizon)
        return stripe_members(points, *stripe_ranges(layout, points), len(layout))


def stripe_ranges(layout: ShardLayout, points: PredictedPoints) -> tuple[np.ndarray, np.ndarray]:
    """The first and last stripe each predicted point's query can reach."""
    x = points.xy[:, 0]
    return layout.shards_for_x(x - points.radius), layout.shards_for_x(x + points.radius)


def stripe_members(
    points: PredictedPoints, first: np.ndarray, last: np.ndarray, n_stripes: int
) -> list[list[int]]:
    """Snapshot positions per stripe from the points' :func:`stripe_ranges`."""
    members: list[list[int]] = []
    for shard_id in range(n_stripes):
        owner = points.owner[(first <= shard_id) & (last >= shard_id)]
        # Owners are non-decreasing (points stack in snapshot order), so
        # dropping repeats needs no sort.
        keep = np.ones(len(owner), dtype=bool)
        keep[1:] = owner[1:] != owner[:-1]
        members.append(owner[keep].tolist())
    return members


def sharded_build_candidates(
    tasks: Sequence[SpatialTask],
    snapshots: Sequence[WorkerSnapshot],
    current_time: float,
    planner: ShardPlanner,
    max_candidates: int | None = None,
    stats: ShardStats | None = None,
) -> dict[int, list[int]]:
    """The dense candidate graph, accounted stripe by stripe.

    One candidate build over the global task index: a single
    process executing every stripe would only re-query each boundary
    worker's halo once per stripe it touches.  The result equals the
    union of the per-stripe builds a shard server runs — a task's hits
    can only come from workers whose halo touches its owning stripe
    (halo and ownership go through the same total map), so the dense
    graph partitioned by task ownership is that union, hit for hit and
    in the same snapshot order.  ``planner`` supplies the sticky layout
    (an empty task set with no layout yet builds nothing); with
    ``stats`` given, its halo memberships fill the per-shard accounting
    and the ``dist.shard.pairs{shard=S}`` counters of the decomposition
    a shard-server run would execute.
    """
    layout = planner.layout_for(tasks)
    if layout is None:
        return {}
    # The candidate build and the halo accounting read the same stacked
    # predicted points, so they are stacked once.
    points = predicted_points(snapshots, latest_horizon(tasks, current_time))
    task_ids, task_xy = task_arrays(tasks)
    worker_ids = [snap.worker_id for snap in snapshots]
    merged = candidates_from_points(
        task_ids, task_xy, points, worker_ids, layout.cell_km, max_candidates
    )
    obs.histogram("dist.merge.seconds", 0.0)
    if stats is not None:
        tasks_per_shard = [0] * len(layout)
        pairs = [0] * len(layout)
        for task in tasks:
            owner = layout.shard_for_x(task.location.x)
            tasks_per_shard[owner] += 1
            pairs[owner] += len(merged.get(task.task_id, ()))
        members = stripe_members(points, *stripe_ranges(layout, points), len(layout))
        fill_shard_stats(stats, tasks_per_shard, members, pairs, 0.0)
    return merged


# ----------------------------------------------------------------------
# connected-component matching
# ----------------------------------------------------------------------
def connected_components(edges: Sequence[Edge]) -> list[list[Edge]]:
    """Split an edge list into connected components of its bipartite graph.

    Task and worker ids live in separate namespaces, so vertices are
    keyed by side.  Components come out ordered by their smallest edge
    index and keep the input's edge order within — determinism the
    merge re-sort then makes irrelevant, but it keeps debugging sane.
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(v: tuple[str, int]) -> tuple[str, int]:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def union(a: tuple[str, int], b: tuple[str, int]) -> None:
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for left, right, _ in edges:
        union(("t", left), ("w", right))

    by_root: dict[tuple[str, int], list[Edge]] = {}
    for edge in edges:
        by_root.setdefault(find(("t", edge[0])), []).append(edge)
    return list(by_root.values())


#: The per-state solve counters a :class:`WarmMatchCache` totals.
_STATE_COUNTS = ("identical_hits", "warm_solves", "cold_solves", "rows_reaugmented", "rows_total")


@dataclass
class WarmMatchCache:
    """Per-component :class:`WarmStartState` pool for a streaming matcher.

    A batch's matcher runs several solves (PPI's stages, then each
    connected component); the next batch's graph decomposes *almost*
    the same way.  States are keyed by ``(call index within the batch,
    component fingerprint)`` — the fingerprint is the smallest left id,
    stable while a component keeps any of its tasks.  A wrong reuse is
    harmless (the warm state is a pure accelerator, exactness lives in
    the state's own edge check), so the key only has to be *usually*
    right.  Entries untouched for ``keep_rounds`` batches are dropped;
    their solve counts carry over into retired totals, so every count
    below covers the whole run.
    """

    keep_rounds: int = 8
    _states: dict = field(default_factory=dict)
    _last_used: dict = field(default_factory=dict)
    _round: int = 0
    _calls: int = 0
    _round_start: dict = field(default_factory=dict)
    _retired: dict = field(default_factory=lambda: dict.fromkeys(_STATE_COUNTS, 0))

    def begin_round(self) -> None:
        """Start a new batch: reset the call counter, evict stale states.

        The tier counts are snapshotted after eviction, so
        :meth:`round_tier` compares this round's solves against the
        counts the run had before it.
        """
        self._round += 1
        self._calls = 0
        if self._round % self.keep_rounds == 0:
            floor = self._round - self.keep_rounds
            stale = [k for k, used in self._last_used.items() if used < floor]
            for k in stale:
                state = self._states.pop(k)
                del self._last_used[k]
                for name in _STATE_COUNTS:
                    self._retired[name] += getattr(state, name)
        self._round_start = self.tier_counts()

    def next_call(self) -> int:
        idx = self._calls
        self._calls += 1
        return idx

    def state_for(self, key: tuple) -> WarmStartState:
        state = self._states.get(key)
        if state is None:
            state = WarmStartState()
            self._states[key] = state
        self._last_used[key] = self._round
        return state

    def _total(self, name: str) -> int:
        return self._retired[name] + sum(getattr(s, name) for s in self._states.values())

    @property
    def identical_hits(self) -> int:
        return self._total("identical_hits")

    @property
    def rows_reaugmented(self) -> int:
        return self._total("rows_reaugmented")

    @property
    def rows_total(self) -> int:
        return self._total("rows_total")

    def tier_counts(self) -> dict[str, int]:
        """Solve counts per warm-start tier over the whole run."""
        return {
            "identical": self._total("identical_hits"),
            "warm": self._total("warm_solves"),
            "cold": self._total("cold_solves"),
        }

    def round_tier(self) -> str | None:
        """The worst warm-start tier a solve of the current round hit.

        A cold solve anywhere makes the round ``cold``, else a seeded
        re-augment makes it ``warm``, else whole-solve reuse makes it
        ``identical``; ``None`` when the round ran no solve.  The
        decision log records it on each batch's accepted offers.
        """
        counts = self.tier_counts()
        for tier in ("cold", "warm", "identical"):
            if counts[tier] > self._round_start.get(tier, 0):
                return tier
        return None

    def __len__(self) -> int:
        return len(self._states)


@dataclass
class ComponentMatcher:
    """A drop-in :data:`repro.assignment.hungarian.Matcher` that decomposes.

    Solves each connected component with the dense Hungarian solver and
    merges the results back into ascending left-id order, the exact
    order :func:`maximum_weight_matching` emits.  Equal to the global solve
    whenever the maximum-weight matching is unique (see the module
    docstring); edge lists at or below ``inline_below`` are solved
    directly, the decomposition overhead not being worth it (PPI's
    stage-2 chunks always land here).

    With ``warm`` set, every solve runs inline seeded from the cache's
    per-component :class:`WarmStartState` — unchanged components skip
    the solve entirely via the state's identical-edge-list fast path,
    changed ones re-augment only affected rows.
    """

    inline_below: int = 16
    warm: WarmMatchCache | None = None
    #: filled per call: component count and largest component size.
    last_n_components: int = 0
    last_max_component: int = 0

    def __call__(self, edges: Sequence[Edge]) -> list[Edge]:
        warm = self.warm
        call_idx = warm.next_call() if warm is not None else 0
        if len(edges) <= self.inline_below:
            self.last_n_components = 1 if edges else 0
            self.last_max_component = len(edges)
            state = warm.state_for((call_idx, "inline")) if warm is not None else None
            return maximum_weight_matching(list(edges), warm=state)
        components = connected_components(edges)
        self.last_n_components = len(components)
        self.last_max_component = max(len(c) for c in components)
        obs.histogram("dist.match.components", len(components))
        if warm is not None:
            solved = [
                maximum_weight_matching(
                    c, warm=warm.state_for((call_idx, "c", min(e[0] for e in c)))
                )
                for c in components
            ]
        else:
            solved = [maximum_weight_matching(c) for c in components]
        merged = [edge for part in solved for edge in part]
        merged.sort(key=lambda e: e[0])
        return merged
