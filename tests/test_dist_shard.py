"""Sharded candidate generation and component matching vs. the dense path.

The exactness ladder, tested rung by rung:

1. ``cells_in_radius`` is the same arithmetic the grid index queries
   with (boundary cells included);
2. ``ShardPlanner`` halo membership via that helper makes the merged
   per-stripe candidate graphs (what a shard server builds) EQUAL the
   dense ``build_candidates`` output;
3. ``ComponentMatcher`` reproduces the global KM matching;
4. therefore sharded PPI/KM plans equal the dense plans — including an
   adversarial workload where one worker's Theorem-2 disk straddles
   three shards.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.assignment.baselines import km_assign
from repro.assignment.hungarian import maximum_weight_matching
from repro.assignment.ppi import ppi_assign
from repro.dist import (
    ComponentMatcher,
    ShardLayout,
    ShardPlanner,
    ShardStats,
    WarmMatchCache,
    connected_components,
    make_shards,
    sharded_build_candidates,
)
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve import UniformGridIndex, build_candidates, cells_in_radius, latest_horizon


def make_task(task_id, x, y, deadline=60.0, release=0.0):
    return SpatialTask(task_id, Point(float(x), float(y)), release, deadline)


def make_snapshot(worker_id, points, detour=4.0, speed=1.0, mr=0.9):
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    here = Point(float(xy[0, 0]), float(xy[0, 1])) if len(xy) else Point(0.0, 0.0)
    return WorkerSnapshot(
        worker_id=worker_id,
        current_location=here,
        predicted_xy=xy,
        predicted_times=10.0 * np.arange(1, len(xy) + 1),
        detour_budget_km=detour,
        speed_km_per_min=speed,
        matching_rate=mr,
    )


def random_workload(rng, n_tasks=40, n_workers=30, extent=30.0):
    tasks = [
        make_task(i, *rng.uniform(0, extent, 2), deadline=float(rng.uniform(5.0, 60.0)))
        for i in range(n_tasks)
    ]
    snaps = [
        make_snapshot(
            w,
            rng.uniform(0, extent, size=(4, 2)),
            detour=float(rng.uniform(2.0, 6.0)),
            speed=float(rng.uniform(0.5, 1.5)),
            mr=float(rng.uniform(0.1, 1.0)),
        )
        for w in range(n_workers)
    ]
    return tasks, snaps


def plan_tuples(plan):
    return [(p.task_id, p.worker_id, p.score, p.stage) for p in plan]


def stripe_union(tasks, snaps, t, planner, max_candidates=None):
    """One ``build_candidates`` per stripe over its owned tasks and halo
    members, with the global horizon, merged — a shard server's build."""
    layout = planner.layout_for(tasks)
    horizon = latest_horizon(tasks, t)
    members = planner.memberships(layout, snaps, horizon)
    merged = {}
    for s in range(len(layout)):
        owned = [task for task in tasks if layout.shard_for_x(task.location.x) == s]
        graph = build_candidates(
            owned, [snaps[pos] for pos in members[s]], t,
            cell_km=layout.cell_km, max_candidates=max_candidates, horizon=horizon,
        )
        assert not merged.keys() & graph.keys()  # task ownership is disjoint
        merged.update(graph)
    return merged


class TestCellsInRadius:
    def test_point_exactly_on_cell_edge(self):
        """Floor semantics: a point on the edge belongs to the higher
        cell, and a zero-radius query touches only that cell."""
        assert cells_in_radius(2.0, 3.0, 0.0, 1.0) == [(2, 3)]
        # Shifted epsilon below the edge: the lower cell.
        assert cells_in_radius(np.nextafter(2.0, -np.inf), 3.0, 0.0, 1.0) == [(1, 3)]

    def test_radius_spanning_three_plus_shards(self):
        """A disk wider than a stripe touches every column it overlaps."""
        cells = cells_in_radius(5.0, 0.5, 4.0, 1.0)
        cols = {cx for cx, _ in cells}
        assert cols == set(range(1, 10))  # floor(1.0)..floor(9.0)

    def test_matches_index_query_cells(self):
        """The helper must return exactly the buckets the index scans:
        every indexed point the query returns lives in a listed cell."""
        rng = np.random.default_rng(0)
        items = [(i, float(x), float(y)) for i, (x, y) in enumerate(rng.uniform(-5, 15, (50, 2)))]
        index = UniformGridIndex(cell_km=1.3).build(items)
        for qx, qy in rng.uniform(-5, 15, size=(8, 2)):
            listed = set(cells_in_radius(float(qx), float(qy), 2.0, 1.3))
            for item_id, _ in index.query(float(qx), float(qy), 2.0):
                _, x, y = items[item_id]
                cell = (int(np.floor(x / 1.3)), int(np.floor(y / 1.3)))
                assert cell in listed

    def test_validation(self):
        with pytest.raises(ValueError):
            cells_in_radius(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            cells_in_radius(0.0, 0.0, 1.0, 0.0)


class TestMakeShards:
    def test_disjoint_contiguous_cover(self):
        rng = np.random.default_rng(1)
        tasks, _ = random_workload(rng)
        specs = make_shards(tasks, 4, cell_km=1.0)
        assert [s.shard_id for s in specs] == list(range(len(specs)))
        for a, b in zip(specs, specs[1:]):
            assert a.col_hi < b.col_lo  # disjoint, ordered
        # Every task column is owned by exactly one stripe.
        for task in tasks:
            col = int(np.floor(task.location.x / 1.0))
            owners = [s.shard_id for s in specs if s.owns_column(col)]
            assert len(owners) == 1

    def test_k_capped_at_occupied_columns(self):
        tasks = [make_task(i, 0.5 + i, 0.0) for i in range(3)]
        assert len(make_shards(tasks, 10, cell_km=1.0)) == 3

    def test_empty_and_validation(self):
        assert make_shards([], 4) == []
        with pytest.raises(ValueError):
            make_shards([make_task(0, 0, 0)], 0)
        with pytest.raises(ValueError):
            make_shards([make_task(0, 0, 0)], 2, cell_km=0.0)


class TestShardedCandidates:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("max_candidates", [None, 3])
    def test_merged_graph_equals_dense(self, seed, shards, max_candidates):
        rng = np.random.default_rng(seed)
        tasks, snaps = random_workload(rng)
        dense = build_candidates(tasks, snaps, 0.0, cell_km=1.5, max_candidates=max_candidates)
        union = stripe_union(
            tasks, snaps, 0.0, ShardPlanner(shards, cell_km=1.5), max_candidates
        )
        assert union == dense  # keys, worker lists, AND list order
        merged = sharded_build_candidates(
            tasks, snaps, 0.0, ShardPlanner(shards, cell_km=1.5), max_candidates
        )
        assert merged == dense

    def test_adversarial_straddle_three_shards(self):
        """One worker whose Theorem-2 disk spans three stripes: it must
        be shipped to all three and the merge must still equal dense."""
        tasks = [make_task(i, 3 * i + 0.5, 0.5) for i in range(6)]  # cols 0..15
        wide = make_snapshot(0, [(9.0, 0.0)], detour=14.0, speed=2.0)  # radius 7
        rng = np.random.default_rng(9)
        snaps = [wide] + [make_snapshot(w + 1, rng.uniform(0, 18, (3, 2))) for w in range(8)]
        planner = ShardPlanner(3, cell_km=1.0)
        layout = planner.layout_for(tasks)
        members = planner.memberships(layout, snaps, latest_horizon(tasks, 0.0))
        shards_with_wide = [s for s, posns in enumerate(members) if 0 in posns]
        assert len(shards_with_wide) == 3  # the straddler reaches every stripe
        dense = build_candidates(tasks, snaps, 0.0, cell_km=1.0)
        assert stripe_union(tasks, snaps, 0.0, planner) == dense
        stats = ShardStats()
        merged = sharded_build_candidates(tasks, snaps, 0.0, planner, stats=stats)
        assert merged == dense
        assert stats.n_boundary_workers >= 1
        assert stats.n_shards == 3
        assert sum(stats.pairs_per_shard) == sum(len(v) for v in merged.values())

    def test_predicted_points_are_stacked_once(self, monkeypatch):
        """The candidate build and the halo accounting share one stack of
        the batch's predicted points, and the stats still equal those of
        the planner's own memberships."""
        import repro.dist.shard as shard_mod
        import repro.serve.spatial_index as index_mod

        rng = np.random.default_rng(5)
        tasks, snaps = random_workload(rng)
        planner = ShardPlanner(3, cell_km=1.5)
        layout = planner.layout_for(tasks)
        members = planner.memberships(layout, snaps, latest_horizon(tasks, 0.0))

        calls = []
        original = index_mod.predicted_points

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(index_mod, "predicted_points", counting)
        monkeypatch.setattr(shard_mod, "predicted_points", counting)
        stats = ShardStats()
        merged = sharded_build_candidates(tasks, snaps, 0.0, planner, stats=stats)
        assert len(calls) == 1
        assert merged == build_candidates(tasks, snaps, 0.0, cell_km=1.5)
        assert stats.snapshots_per_shard == [len(m) for m in members]

    def test_zero_radius_workers_join_nothing(self):
        tasks = [make_task(0, 0.5, 0.5)]
        dead = make_snapshot(1, [(0.5, 0.5)], detour=0.0)
        empty = make_snapshot(2, np.zeros((0, 2)))
        planner = ShardPlanner(1, cell_km=1.0)
        layout = planner.layout_for(tasks)
        assert planner.memberships(layout, [dead, empty], 60.0) == [[]]
        stats = ShardStats()
        assert sharded_build_candidates(tasks, [dead, empty], 0.0, planner, stats=stats) == {}
        assert stats.snapshots_per_shard == [0] and stats.n_boundary_workers == 0


class TestComponentMatcher:
    def _edges(self, rng, n_left=20, n_right=16, p=0.12):
        edges = []
        for t in range(n_left):
            for w in range(n_right):
                if rng.random() < p:
                    edges.append((t, w, float(rng.uniform(0.1, 5.0))))
        return edges

    def test_components_partition_edges(self):
        rng = np.random.default_rng(2)
        edges = self._edges(rng)
        comps = connected_components(edges)
        flat = [e for c in comps for e in c]
        assert sorted(flat) == sorted(edges)

    def test_task_and_worker_ids_are_separate_namespaces(self):
        """Task 0 and worker 0 are different vertices: these two edges
        share no endpoint and must be separate components."""
        comps = connected_components([(0, 1, 1.0), (1, 0, 1.0)])
        assert len(comps) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_global_solver(self, seed):
        rng = np.random.default_rng(seed)
        edges = self._edges(rng)
        matcher = ComponentMatcher(inline_below=0)
        assert matcher(edges) == maximum_weight_matching(edges)
        assert matcher.last_n_components >= 1

    def test_small_lists_solved_inline(self):
        matcher = ComponentMatcher(inline_below=16)
        edges = [(0, 0, 2.0), (1, 1, 3.0)]
        assert matcher(edges) == maximum_weight_matching(edges)
        assert matcher.last_n_components == 1  # never decomposed

    def test_empty(self):
        assert ComponentMatcher()([]) == []


class TestShardedAssignment:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_ppi_plan_equals_dense(self, seed, shards):
        rng = np.random.default_rng(seed)
        tasks, snaps = random_workload(rng)
        dense_graph = build_candidates(tasks, snaps, 0.0, cell_km=1.5)
        dense = ppi_assign(tasks, snaps, 0.0, dense_graph)
        sharded = ppi_assign(
            tasks, snaps, 0.0,
            sharded_build_candidates(tasks, snaps, 0.0, ShardPlanner(shards, cell_km=1.5)),
            matcher=ComponentMatcher(),
        )
        assert plan_tuples(sharded) == plan_tuples(dense)

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_km_plan_equals_dense(self, seed, shards):
        rng = np.random.default_rng(seed)
        tasks, snaps = random_workload(rng)
        dense_graph = build_candidates(tasks, snaps, 0.0, cell_km=1.5)
        dense = km_assign(tasks, snaps, 0.0, dense_graph)
        sharded = km_assign(
            tasks, snaps, 0.0,
            sharded_build_candidates(tasks, snaps, 0.0, ShardPlanner(shards, cell_km=1.5)),
            matcher=ComponentMatcher(),
        )
        assert plan_tuples(sharded) == plan_tuples(dense)

    def test_adversarial_straddle_plans_match(self):
        tasks = [make_task(i, 3 * i + 0.5, 0.5) for i in range(6)]
        wide = make_snapshot(0, [(9.0, 0.0)], detour=14.0, speed=2.0)
        rng = np.random.default_rng(11)
        snaps = [wide] + [make_snapshot(w + 1, rng.uniform(0, 18, (3, 2))) for w in range(8)]
        dense_graph = build_candidates(tasks, snaps, 0.0, cell_km=1.0)
        dense = ppi_assign(tasks, snaps, 0.0, dense_graph)
        stats = ShardStats()
        sharded = ppi_assign(
            tasks, snaps, 0.0,
            sharded_build_candidates(tasks, snaps, 0.0, ShardPlanner(3, cell_km=1.0), stats=stats),
            matcher=ComponentMatcher(),
        )
        assert plan_tuples(sharded) == plan_tuples(dense)
        assert stats.n_boundary_workers >= 1


class TestShardPlanner:
    def test_layout_is_a_total_map(self):
        tasks = [make_task(0, 0.5, 0.5), make_task(1, 10.5, 0.5), make_task(2, 20.5, 0.5)]
        layout = ShardLayout.from_specs(make_shards(tasks, 3, 1.0), 1.0)
        seen = {layout.shard_for_column(col) for col in range(-50, 80)}
        assert seen == {0, 1, 2}
        # Columns between stripes clamp to the nearest one.
        assert layout.shard_for_column(-100) == 0
        assert layout.shard_for_column(100) == 2

    @given(
        st.sets(st.integers(-40, 40), min_size=1, max_size=25),
        st.integers(1, 6),
    )
    @example({0, 2, 6}, 3)  # column 4 ties between stripes 1 and 2
    def test_column_map_equals_nearest_stripe(self, cols, k):
        """``shard_for_column`` is "the owning stripe, else the nearest,
        ties to the lower" for every column, including columns outside
        the stripes, between them, and on the midpoints."""

        def nearest_stripe(specs, col):
            best_id, best_gap = None, math.inf
            for spec in specs:
                if spec.owns_column(col):
                    return spec.shard_id
                gap = min(abs(col - spec.col_lo), abs(col - spec.col_hi))
                if gap < best_gap:
                    best_id, best_gap = spec.shard_id, gap
            return best_id

        tasks = [make_task(i, col + 0.5, 0.5) for i, col in enumerate(sorted(cols))]
        specs = make_shards(tasks, k, 1.0)
        layout = ShardLayout.from_specs(specs, 1.0)
        for col in range(min(cols) - 10, max(cols) + 11):
            assert layout.shard_for_column(col) == nearest_stripe(specs, col)

    def test_sticky_layout_build_equals_dense_across_batches(self):
        """The planner keeps batch 1's layout; batch 2's tasks land in
        different columns, and the build must still equal dense."""
        rng = np.random.default_rng(9)
        planner = ShardPlanner(shards=4, cell_km=1.5)
        for batch in range(4):
            tasks, snaps = random_workload(rng, n_tasks=25, n_workers=20)
            dense = build_candidates(tasks, snaps, 0.0, cell_km=1.5)
            assert stripe_union(tasks, snaps, 0.0, planner) == dense
            assert sharded_build_candidates(tasks, snaps, 0.0, planner) == dense
        assert planner._layout is not None
        assert planner._layout.generation == 1  # never re-laid-out

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predicted_point_names_the_worker(self, bad):
        tasks = [make_task(0, 0.5, 0.5), make_task(1, 10.5, 0.5)]
        planner = ShardPlanner(shards=2, cell_km=1.0)
        layout = planner.layout_for(tasks)
        snaps = [make_snapshot(5, [(0.5, 0.5)]), make_snapshot(9, [(1.0, 1.0), (2.0, bad)])]
        with pytest.raises(ValueError, match=r"worker 9: non-finite predicted_xy"):
            planner.memberships(layout, snaps, 60.0)

    def test_planner_with_warm_matcher_plan_equals_dense(self):
        rng = np.random.default_rng(12)
        planner = ShardPlanner(shards=3, cell_km=1.5)
        warm = WarmMatchCache()
        for _ in range(3):
            tasks, snaps = random_workload(rng, n_tasks=30, n_workers=25)
            dense_graph = build_candidates(tasks, snaps, 0.0, cell_km=1.5)
            dense = ppi_assign(tasks, snaps, 0.0, dense_graph)
            graph = sharded_build_candidates(tasks, snaps, 0.0, planner)
            warm.begin_round()
            sharded = ppi_assign(tasks, snaps, 0.0, graph, matcher=ComponentMatcher(warm=warm))
            assert plan_tuples(sharded) == plan_tuples(dense)
