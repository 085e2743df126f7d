"""Cross-module property-based tests (the invariants of DESIGN.md §7)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assignment.hungarian import maximum_weight_matching
from repro.assignment.matching_rate import matching_rate, theorem2_bound
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.cluster.game import best_response_clustering
from repro.dist.shard import ShardLayout, ShardPlanner, make_shards
from repro.geo.detour import min_detour
from repro.geo.grid import Grid
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.serve.spatial_index import (
    UniformGridIndex,
    build_candidates,
    cells_in_radius,
    latest_horizon,
)
from repro.similarity.distribution import sliced_wasserstein
from tests.test_dist_shard import stripe_union

coord = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@st.composite
def snapshots_and_tasks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n_workers = draw(st.integers(1, 6))
    n_tasks = draw(st.integers(1, 8))
    workers = []
    for wid in range(n_workers):
        pts = rng.uniform(0, 10, size=(draw(st.integers(1, 5)), 2))
        workers.append(
            WorkerSnapshot(
                worker_id=wid,
                current_location=Point(*rng.uniform(0, 10, size=2)),
                predicted_xy=pts,
                predicted_times=10.0 * np.arange(1, len(pts) + 1),
                detour_budget_km=float(rng.uniform(0.5, 8.0)),
                speed_km_per_min=float(rng.uniform(0.2, 1.0)),
                matching_rate=float(rng.uniform(0, 1)),
            )
        )
    tasks = [
        SpatialTask(
            task_id=i,
            location=Point(*rng.uniform(0, 10, size=2)),
            release_time=0.0,
            deadline=float(rng.uniform(5, 60)),
        )
        for i in range(n_tasks)
    ]
    return tasks, workers


class TestPPIProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=snapshots_and_tasks(), epsilon=st.integers(1, 6))
    def test_ppi_always_produces_valid_matching(self, data, epsilon):
        tasks, workers = data
        plan = ppi_assign(tasks, workers, 0.0, config=PPIConfig(a=0.3, epsilon=epsilon))
        # AssignmentPlan.add enforces injectivity; re-validate ids too.
        assert plan.task_ids() <= {t.task_id for t in tasks}
        assert plan.worker_ids() <= {w.worker_id for w in workers}

    @settings(max_examples=40, deadline=None)
    @given(data=snapshots_and_tasks())
    def test_ppi_edges_respect_theorem2_or_stage3_bound(self, data):
        tasks, workers = data
        cfg = PPIConfig(a=0.3)
        plan = ppi_assign(tasks, workers, 0.0, config=cfg)
        by_task = {t.task_id: t for t in tasks}
        by_worker = {w.worker_id: w for w in workers}
        for pair in plan:
            task, worker = by_task[pair.task_id], by_worker[pair.worker_id]
            bound = theorem2_bound(
                worker.detour_budget_km, task.deadline, 0.0, worker.speed_km_per_min
            )
            tloc = np.array([task.location.x, task.location.y])
            dis_min = float(np.sqrt(((worker.predicted_xy - tloc) ** 2).sum(axis=1)).min())
            assert dis_min <= bound + 1e-9, "every PPI edge obeys the stage-3 radius"


class TestMatchingProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    def test_max_weight_matching_beats_greedy(self, seed, n):
        rng = np.random.default_rng(seed)
        edges = [
            (int(rng.integers(6)), int(rng.integers(6)), float(rng.uniform(0.1, 5)))
            for _ in range(n)
        ]
        best = {}
        for l, r, w in edges:
            if w > best.get((l, r), 0.0):
                best[(l, r)] = w
        edges = [(l, r, w) for (l, r), w in best.items()]
        optimal = sum(w for _, _, w in maximum_weight_matching(edges))
        # Greedy by weight.
        used_l, used_r, greedy = set(), set(), 0.0
        for l, r, w in sorted(edges, key=lambda e: -e[2]):
            if l not in used_l and r not in used_r:
                greedy += w
                used_l.add(l)
                used_r.add(r)
        assert optimal >= greedy - 1e-9


def random_batch(rng, n_tasks, n_workers, extent=30.0):
    """A batch spread over several stripes, with dead-radius and
    track-less snapshots mixed in (the halo must skip both)."""
    tasks = [
        SpatialTask(
            task_id=i,
            location=Point(*rng.uniform(0, extent, size=2)),
            release_time=0.0,
            deadline=float(rng.uniform(1, 60)),
        )
        for i in range(n_tasks)
    ]
    snaps = []
    for wid in range(n_workers):
        n_pts = int(rng.integers(0, 5))
        snaps.append(
            WorkerSnapshot(
                worker_id=wid,
                current_location=Point(*rng.uniform(0, extent, size=2)),
                predicted_xy=rng.uniform(0, extent, size=(n_pts, 2)),
                predicted_times=10.0 * np.arange(1, n_pts + 1),
                detour_budget_km=float(rng.choice([0.0, rng.uniform(0.5, 12.0)])),
                speed_km_per_min=float(rng.uniform(0.1, 1.5)),
                matching_rate=float(rng.uniform(0, 1)),
            )
        )
    return tasks, snaps


@st.composite
def index_batches(draw):
    """Batches that stress the batched candidate pass: negative
    coordinates, points exactly on cell edges, duplicate task
    locations, empty tracks and zero-radius workers."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    cell_km = draw(st.sampled_from([0.5, 1.0, 1.3, 2.5]))
    on_edges = draw(st.booleans())

    def coords(n):
        xy = rng.uniform(-10.0, 10.0, size=(n, 2))
        return np.round(xy / cell_km) * cell_km if on_edges else xy

    task_xy = coords(draw(st.integers(0, 20)))
    if len(task_xy) > 1 and draw(st.booleans()):
        task_xy[1:] = task_xy[rng.integers(0, len(task_xy), len(task_xy) - 1)]
    tasks = [
        SpatialTask(i, Point(float(x), float(y)), 0.0, float(rng.uniform(0.5, 40.0)))
        for i, (x, y) in enumerate(task_xy)
    ]
    snaps = []
    for wid in range(draw(st.integers(0, 12))):
        pts = coords(int(rng.integers(0, 6)))
        snaps.append(
            WorkerSnapshot(
                worker_id=100 + wid,
                current_location=Point(0.0, 0.0),
                predicted_xy=pts,
                predicted_times=10.0 * np.arange(1, len(pts) + 1),
                detour_budget_km=float(rng.choice([0.0, 2.0, rng.uniform(0.5, 9.0)])),
                speed_km_per_min=float(rng.uniform(0.1, 1.5)),
                matching_rate=0.5,
            )
        )
    return tasks, snaps, cell_km


def per_point_candidates(tasks, snaps, t, cell_km, max_candidates, horizon):
    """The candidate graph one :meth:`UniformGridIndex.query` per
    predicted point gives: min distance per (task, worker), workers in
    snapshot order, nearest-``k`` with ties to the earlier snapshot."""
    index = UniformGridIndex(cell_km=cell_km).build(
        [(task.task_id, task.location.x, task.location.y) for task in tasks]
    )
    if horizon is None:
        horizon = latest_horizon(tasks, t)
    per_task = {}
    for pos, snap in enumerate(snaps):
        radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
        if len(snap.predicted_xy) == 0 or radius <= 0:
            continue
        best = {}
        for x, y in snap.predicted_xy:
            for task_id, dist in index.query(float(x), float(y), radius):
                best[task_id] = min(dist, best.get(task_id, np.inf))
        for task_id, dist in best.items():
            per_task.setdefault(task_id, []).append((pos, dist))
    graph = {}
    for task_id, hits in per_task.items():
        if max_candidates is not None and len(hits) > max_candidates:
            hits = sorted(sorted(hits, key=lambda h: h[1])[:max_candidates])
        graph[task_id] = [snaps[pos].worker_id for pos, _ in hits]
    return graph


class TestCandidateIndexProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        batch=index_batches(),
        max_candidates=st.one_of(st.none(), st.integers(1, 3)),
        horizon=st.one_of(st.none(), st.floats(0.0, 20.0)),
        t=st.floats(0.0, 5.0),
    )
    def test_batched_pass_equals_per_point_queries(self, batch, max_candidates, horizon, t):
        tasks, snaps, cell_km = batch
        got = build_candidates(
            tasks, snaps, t, cell_km=cell_km, max_candidates=max_candidates, horizon=horizon
        )
        assert got == per_point_candidates(tasks, snaps, t, cell_km, max_candidates, horizon)

    @settings(max_examples=150, deadline=None)
    @given(batch=index_batches(), shards=st.integers(1, 6), horizon=st.floats(0.0, 30.0))
    def test_memberships_equal_per_point_cell_scan(self, batch, shards, horizon):
        """A snapshot joins exactly the stripes that own a column of some
        point's ``cells_in_radius`` range."""
        tasks, snaps, cell_km = batch
        specs = make_shards(tasks or [SpatialTask(0, Point(0.0, 0.0), 0.0, 1.0)], shards, cell_km)
        layout = ShardLayout.from_specs(specs, cell_km)
        want = [[] for _ in layout.specs]
        for pos, snap in enumerate(snaps):
            radius = min(snap.detour_budget_km / 2.0, snap.speed_km_per_min * horizon)
            if len(snap.predicted_xy) == 0 or radius <= 0:
                continue
            touched = {
                layout.shard_for_column(cx)
                for x, y in snap.predicted_xy
                for cx, _ in cells_in_radius(float(x), float(y), radius, cell_km)
            }
            for shard_id in sorted(touched):
                want[shard_id].append(pos)
        got = ShardPlanner(shards, cell_km=cell_km).memberships(layout, snaps, horizon)
        assert got == want


class TestShardProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shards=st.integers(1, 6),
        max_candidates=st.one_of(st.none(), st.integers(1, 4)),
        cell_km=st.sampled_from([0.7, 1.0, 2.5]),
        n_batches=st.integers(1, 3),
    )
    def test_stripe_builds_union_to_dense(self, seed, shards, max_candidates, cell_km, n_batches):
        """What each shard server builds — its owned tasks against its
        halo members, under the global horizon — merges to the dense
        graph, batch after batch under one sticky layout."""
        rng = np.random.default_rng(seed)
        planner = ShardPlanner(shards, cell_km=cell_km)
        for _ in range(n_batches):
            tasks, snaps = random_batch(rng, int(rng.integers(1, 25)), int(rng.integers(1, 20)))
            t = float(rng.uniform(0, 5))
            dense = build_candidates(
                tasks, snaps, t, cell_km=cell_km, max_candidates=max_candidates
            )
            assert stripe_union(tasks, snaps, t, planner, max_candidates) == dense


class TestGameProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_equilibrium_partition_and_potential(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0, 1, size=(n, n))
        sim = (raw + raw.T) / 2
        np.fill_diagonal(sim, 1.0)
        init = rng.integers(0, max(n // 2, 1), size=n)
        result = best_response_clustering(sim, init, gamma=float(rng.uniform(0.05, 0.9)))
        assert result.converged
        assert sorted(i for c in result.clusters() for i in c) == list(range(n))
        trace = result.potential_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


class TestGeoProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_detour_dominated_by_out_and_back(self, seed):
        """Insertion detour never exceeds twice the closest distance."""
        rng = np.random.default_rng(seed)
        route = rng.uniform(0, 10, size=(rng.integers(2, 8), 2))
        target = Point(*rng.uniform(0, 10, size=2))
        detour, _ = min_detour(route, target)
        closest = float(np.sqrt(((route - [target.x, target.y]) ** 2).sum(axis=1)).min())
        assert detour <= 2 * closest + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(x=coord, y=coord)
    def test_grid_cell_roundtrip_error_bounded(self, x, y):
        grid = Grid(width_km=20.0, height_km=10.0, rows=100, cols=50)
        p = grid.clamp(Point(x, y))
        i, j = grid.to_cell(p)
        center = grid.cell_center(i, j)
        assert p.distance_to(center) <= np.hypot(grid.cell_width, grid.cell_height) / 2 + 1e-9


class TestSimilarityProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(0, 5))
    def test_sliced_wasserstein_monotone_in_shift(self, seed, shift):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(20, 2))
        rng0 = np.random.default_rng(0)
        near = sliced_wasserstein(a, a + shift / 2, rng=rng0)
        rng0 = np.random.default_rng(0)
        far = sliced_wasserstein(a, a + shift, rng=rng0)
        assert far >= near - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(0, 3))
    def test_matching_rate_identity(self, seed, a):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(15, 2))
        assert matching_rate(r, r, a) == 1.0


class TestPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=15))
    def test_plan_rejects_exactly_duplicates(self, pairs):
        tasks = [t for t, _ in pairs]
        workers = [w for _, w in pairs]
        has_dupe = len(set(tasks)) != len(tasks) or len(set(workers)) != len(workers)
        build = lambda: AssignmentPlan(
            [AssignmentPair(t, w, 1.0) for t, w in pairs]
        )
        if has_dupe:
            with pytest.raises(ValueError):
                build()
        else:
            assert len(build()) == len(pairs)
