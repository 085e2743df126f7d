"""The Kuhn-Munkres (KM) assignment solver, from scratch.

Every stage of PPI (Algorithm 4) and every baseline ends in "call the
KM algorithm" [35, 36].  This module implements the O(n^3)
shortest-augmenting-path formulation (Jonker-Volgenant style dual
potentials) for dense rectangular cost matrices, plus a sparse
max-weight-matching convenience that matches the paper's usage: build a
bipartite graph of candidate ``(task, worker, weight)`` edges and take
the maximum-weight matching, leaving vertices unmatched when no
positive-weight edge is chosen.

Streaming callers solve a *sequence* of closely related matchings —
successive serve batches share most of their candidate graph — so
:func:`maximum_weight_matching` optionally carries a
:class:`WarmStartState` across solves.  Two tiers of reuse:

* **identical edge list** — the cached matching is returned outright
  (unconditionally exact; nothing about the problem changed);
* **changed edge list** — the previous solve's column potentials seed
  a fresh JV solve: rows re-derive their potential as a row-minimum
  (the classic column-reduction init, feasible for *any* column
  seeds), previously matched pairs that are still tight keep their
  match, and only the remaining free rows are re-augmented.  The
  result is an optimal matching by complementary slackness; it equals
  the cold solve whenever the optimum is unique — the ordinary case
  with generic float weights, the same caveat
  :class:`repro.dist.shard.ComponentMatcher` already carries.

PPI and ``km_assign`` reach the matcher through :func:`solve_matching`,
which answers the empty list and the star forest — every vertex on one
side in a single edge, which is most of PPI's stage-2 chunks — in
closed form, and hands every other list to the solver.

Correctness is cross-validated against
``scipy.optimize.linear_sum_assignment`` in the test suite; scipy is
never used at runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf
from typing import Callable, Sequence

import numpy as np

from repro import obs


@dataclass(frozen=True, slots=True)
class Edge:
    """A candidate assignment edge in a bipartite task-worker graph."""

    left: int
    right: int
    weight: float


def solve_assignment(cost: np.ndarray, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment for a dense ``(n, m)`` cost matrix.

    Returns ``(row_indices, col_indices)`` of the min-cost (or
    max-cost) complete matching of the smaller side, in the same format
    as ``scipy.optimize.linear_sum_assignment``.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if cost.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite; encode missing edges before solving")
    if maximize:
        cost = -cost

    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    # Only reach for the clock when a recorder is live: solve_assignment
    # is the innermost hot call of every PPI stage and baseline.
    recorder = obs.get_recorder()
    if recorder.enabled:
        started = time.perf_counter()
        rows, cols = _shortest_augmenting_paths(cost)
        recorder.counter("km.solves")
        recorder.histogram("km.solve_seconds", time.perf_counter() - started)
        recorder.histogram("km.matrix_size", cost.size)
    else:
        rows, cols = _shortest_augmenting_paths(cost)
    if transposed:
        rows, cols = cols, rows
        order = np.argsort(rows)
        rows, cols = rows[order], cols[order]
    return rows, cols


def _shortest_augmenting_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """JV-style assignment for ``n <= m`` rectangular min-cost matrices.

    Maintains dual potentials ``u`` (rows) and ``v`` (columns) and
    augments one row at a time along the shortest alternating path in
    the reduced-cost graph.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    # match[j] = row assigned to column j (0 = none); columns are 1-indexed.
    match = np.zeros(m + 1, dtype=int)
    _augment_rows(cost, u, v, match, range(1, n + 1))
    return _extract_matching(match, n, m)


def _augment_rows(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    match: np.ndarray,
    rows: Sequence[int],
) -> None:
    """Augment each 1-indexed row in ``rows`` into the matching in place.

    The core JV loop, factored out so a warm start can seed ``u``/``v``
    and ``match`` and re-augment only the rows whose seeded match was
    lost.  Scratch buffers (``minv``/``used``/``way``) are allocated
    once per solve and reset per row — this is the innermost hot loop
    of every matching call.
    """
    m = cost.shape[1]
    inf = np.inf
    way = np.zeros(m + 1, dtype=int)
    minv = np.empty(m + 1)
    used = np.empty(m + 1, dtype=bool)

    for row in rows:
        match[0] = row
        j0 = 0
        minv.fill(inf)
        used.fill(False)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used[1:]
            reduced = cost[i0 - 1, :] - u[i0] - v[1:]
            improve = free & (reduced < minv[1:])
            minv[1:][improve] = reduced[improve]
            way[1:][improve] = j0
            masked = np.where(free, minv[1:], inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        # Unwind the augmenting path.
        while j0 != 0:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1


def _extract_matching(match: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.empty(n, dtype=int)
    cols = np.empty(n, dtype=int)
    idx = 0
    for j in range(1, m + 1):
        if match[j] != 0:
            rows[idx] = match[j] - 1
            cols[idx] = j - 1
            idx += 1
    order = np.argsort(rows[:idx])
    return rows[:idx][order], cols[:idx][order]


def assignment_cost(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Total cost of a solved assignment."""
    return float(np.asarray(cost, dtype=float)[rows, cols].sum())


@dataclass
class WarmStartState:
    """Solver state carried across :func:`maximum_weight_matching` calls.

    Holds the previous solve's edge list (for the exact-reuse fast
    path), its matching, and its column dual potentials keyed by vertex
    id, so the next solve over a mostly unchanged graph re-augments
    only the rows whose matched edge disappeared or went slack.  The
    state is a pure accelerator: any content (stale, empty, from an
    unrelated graph) yields an optimal matching; a fresh state's first
    solve runs the exact cold path.

    Attributes double as accounting for benches and tests:
    ``identical_hits`` counts whole-solve reuses, ``warm_solves`` /
    ``cold_solves`` the seeded vs from-scratch solves, and
    ``rows_reaugmented`` the augmenting paths actually run.
    ``last_tier`` names the tier the most recent solve took
    (``"identical"`` / ``"warm"`` / ``"cold"``) so decision-log
    consumers can label the batch that produced an assignment.
    """

    edges_key: tuple | None = None
    zero_ok: bool = False
    matching: list[tuple[int, int, float]] = field(default_factory=list)
    cols_side: str = "right"
    v_by_id: dict = field(default_factory=dict)
    identical_hits: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    rows_reaugmented: int = 0
    rows_total: int = 0
    last_tier: str | None = None


def _warm_matching(
    weight: np.ndarray,
    present: np.ndarray,
    lefts: list,
    rights: list,
    warm: WarmStartState,
) -> tuple[np.ndarray, np.ndarray]:
    """One maximize-solve of ``weight`` seeded from ``warm``.

    Works on the min-cost form (negated weights, transposed when rows
    outnumber columns).  Column potentials from the previous solve seed
    ``v`` on columns whose previous match survives; row potentials are
    re-derived as row minima (feasible for any ``v``); surviving tight
    pairs keep their match and only the remaining free rows are
    augmented.  With nothing to seed, everything stays zero — exactly
    the cold solver.  Returns ``(rows, cols)`` in left/right index
    space, same contract as :func:`solve_assignment`.
    """
    cost = -weight
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
        row_ids, col_ids = rights, lefts
        cols_side = "left"
    else:
        row_ids, col_ids = lefts, rights
        cols_side = "right"
    n, m = cost.shape
    row_pos = {vid: i for i, vid in enumerate(row_ids)}
    col_pos = {vid: j for j, vid in enumerate(col_ids)}

    # Previous matched pairs that still exist in the new graph.
    seeds: list[tuple[int, int, object]] = []
    if warm.cols_side == cols_side:
        for left, right, _w in warm.matching:
            l_id, r_id = (right, left) if transposed else (left, right)
            i, j = row_pos.get(l_id), col_pos.get(r_id)
            if i is None or j is None:
                continue
            if present[i, j] if not transposed else present[j, i]:
                seeds.append((i, j, r_id))

    v = np.zeros(m)
    u = np.zeros(n)
    if seeds:
        for i, j, col_id in seeds:
            v[j] = min(0.0, float(warm.v_by_id.get(col_id, 0.0)))
        # Keep a seeded pair only while it is tight under repaired
        # duals; dropping one resets its column potential, which can
        # un-tighten others, so iterate to a fixed point (pairs only
        # ever leave, so this terminates).
        while True:
            reduced = cost - v[None, :]
            u = reduced.min(axis=1)
            kept: list[tuple[int, int, object]] = []
            dropped = False
            for i, j, col_id in seeds:
                if reduced[i, j] - u[i] == 0.0:
                    kept.append((i, j, col_id))
                else:
                    v[j] = 0.0
                    dropped = True
            seeds = kept
            if not dropped:
                break
        if not seeds:
            u = np.zeros(n)
            v = np.zeros(m)

    u1 = np.zeros(n + 1)
    v1 = np.zeros(m + 1)
    match = np.zeros(m + 1, dtype=int)
    if seeds:
        u1[1:] = u
        v1[1:] = v
        for i, j, _col_id in seeds:
            match[j + 1] = i + 1
    matched_rows = {i for i, _j, _c in seeds}
    free = [i + 1 for i in range(n) if i not in matched_rows]
    _augment_rows(cost, u1, v1, match, free)
    warm.rows_reaugmented += len(free)
    warm.rows_total += n
    if seeds:
        warm.warm_solves += 1
        warm.last_tier = "warm"
    else:
        warm.cold_solves += 1
        warm.last_tier = "cold"

    warm.cols_side = cols_side
    warm.v_by_id = {col_ids[j]: float(v1[j + 1]) for j in range(m)}
    rows, cols = _extract_matching(match, n, m)
    if transposed:
        rows, cols = cols, rows
        order = np.argsort(rows)
        rows, cols = rows[order], cols[order]
    return rows, cols


def maximum_weight_matching(
    edges: Sequence[Edge | tuple[int, int, float]],
    allow_zero_weight: bool = False,
    warm: WarmStartState | None = None,
) -> list[tuple[int, int, float]]:
    """Maximum-weight bipartite matching over a sparse edge list.

    This is "call the KM algorithm on ``M_c``" from Algorithm 4: the
    candidate pairs form a bipartite graph; vertices may stay
    unmatched.  Weights must be finite and non-negative (PPI uses
    ``1 / minB`` and reciprocal detours, both positive); any other
    weight, NaN included, raises :class:`ValueError` naming its edge.

    Returns the chosen ``(left, right, weight)`` edges.  Edges of zero
    weight are dropped unless ``allow_zero_weight`` — an unmatched
    vertex and a zero-weight match are equivalent under the objective.

    ``warm`` carries solver state across calls (see
    :class:`WarmStartState`): an unchanged edge list returns the cached
    matching outright, and a changed one seeds the solve with the
    previous duals, re-augmenting only affected rows.  Equal to the
    cold solve whenever the optimum is unique (module docstring).
    """
    normalized = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
    if obs.enabled():
        obs.histogram("km.edges", len(normalized))
    if warm is not None:
        key = tuple((e.left, e.right, e.weight) for e in normalized)
        if warm.edges_key == key and warm.zero_ok == allow_zero_weight:
            warm.identical_hits += 1
            warm.last_tier = "identical"
            return list(warm.matching)
    if not normalized:
        if warm is not None:
            warm.edges_key = key
            warm.zero_ok = allow_zero_weight
            warm.matching = []
        return []
    for e in normalized:
        if not 0.0 <= e.weight < inf:
            raise ValueError(
                f"edge ({e.left}, {e.right}) has weight {e.weight}; "
                "weights must be finite and non-negative"
            )

    lefts = sorted({e.left for e in normalized})
    rights = sorted({e.right for e in normalized})
    left_pos = {v: i for i, v in enumerate(lefts)}
    right_pos = {v: i for i, v in enumerate(rights)}

    weight = np.zeros((len(lefts), len(rights)))
    present = np.zeros((len(lefts), len(rights)), dtype=bool)
    for e in normalized:
        i, j = left_pos[e.left], right_pos[e.right]
        if e.weight > weight[i, j] or not present[i, j]:
            weight[i, j] = max(weight[i, j], e.weight)
        present[i, j] = True

    if warm is not None:
        rows, cols = _warm_matching(weight, present, lefts, rights, warm)
    else:
        rows, cols = solve_assignment(weight, maximize=True)
    chosen: list[tuple[int, int, float]] = []
    for r, c in zip(rows, cols):
        if not present[r, c]:
            continue
        w = float(weight[r, c])
        if w <= 0.0 and not allow_zero_weight:
            continue
        chosen.append((lefts[r], rights[c], w))
    if warm is not None:
        warm.edges_key = key
        warm.zero_ok = allow_zero_weight
        warm.matching = list(chosen)
    return chosen


#: A max-weight bipartite matcher over ``(left, right, weight)`` edges.
#: Must reproduce :func:`maximum_weight_matching`'s contract: a matching
#: of maximum total weight, emitted in ascending left-id order.  The
#: default is the dense Hungarian solver; :mod:`repro.dist.shard`
#: substitutes a connected-component decomposition that solves each
#: component independently (exact whenever the optimum is unique, which
#: generic float weights make the ordinary case).
Matcher = Callable[[Sequence[tuple[int, int, float]]], list[tuple[int, int, float]]]


def solve_matching(
    edges: Sequence[tuple[int, int, float]],
    matcher: Matcher = maximum_weight_matching,
) -> list[tuple[int, int, float]]:
    """``matcher(edges)``, without the solve when the optimum is known.

    An empty list matches nothing.  When every right id (or every left
    id) is distinct, the graph is a forest of stars and its
    maximum-weight matching is each centre's heaviest edge; those edges
    are returned with non-positive weights dropped, in ascending left-id
    order, exactly as :func:`maximum_weight_matching` emits them, and
    counted in ``km.solves``.  A centre whose heaviest weight is tied
    has two optima, a weight that is negative or not finite is left to
    the matcher's own handling, and any other graph needs a real solve:
    those lists go to ``matcher`` unchanged.
    """
    if not edges:
        return []
    n = len(edges)
    if len({e[1] for e in edges}) == n:
        side = 0
    elif len({e[0] for e in edges}) == n:
        side = 1
    else:
        return matcher(edges)
    best: dict = {}
    ties: dict = {}
    for edge in edges:
        w = edge[2]
        if not 0.0 <= w < inf:
            return matcher(edges)
        centre = edge[side]
        held = best.get(centre)
        if held is None or w > held[2]:
            best[centre] = edge
        elif w == held[2]:
            ties[centre] = w
    if any(best[centre][2] == w for centre, w in ties.items()):
        return matcher(edges)
    obs.counter("km.solves")
    return sorted((left, right, float(w)) for left, right, w in best.values() if w > 0.0)
