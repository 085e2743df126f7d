"""Warm-started matching: cold vs warm plans bit-identical.

The warm path has two tiers (identical edge list -> cached matching;
changed edge list -> dual-seeded re-augmentation) and both must
reproduce the cold solve exactly under unique optima — which generic
float weights give.  The stream test drives the full serving engine for
50+ batches of worker churn (staggered check-ins/outs, prediction-cache
deviation invalidations) and compares ``result_signature``.
"""

from unittest import mock

import numpy as np
import pytest

from repro.assignment.hungarian import Edge, WarmStartState, maximum_weight_matching
from repro.assignment.ppi import ppi_assign
from repro.dist import WarmMatchCache, component_candidate_assign, shard
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)


class TestWarmStartSolver:
    def test_identical_edges_reuse_cached_matching(self):
        edges = [Edge(0, 10, 2.0), Edge(1, 11, 3.0), Edge(0, 11, 1.0)]
        warm = WarmStartState()
        first = maximum_weight_matching(edges, warm=warm)
        again = maximum_weight_matching(edges, warm=warm)
        assert first == again == maximum_weight_matching(edges)
        assert warm.identical_hits == 1
        assert again is not warm.matching  # caller gets a copy

    def test_first_warm_solve_equals_cold(self):
        rng = np.random.default_rng(3)
        edges = [
            Edge(l, 100 + r, float(rng.random() + 0.01))
            for l in range(8)
            for r in range(6)
            if rng.random() < 0.7
        ]
        assert maximum_weight_matching(edges, warm=WarmStartState()) == (
            maximum_weight_matching(edges)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churned_sequences_match_cold(self, seed):
        """Random add/remove/reweight churn: every step equals cold."""
        rng = np.random.default_rng(seed)
        lefts = list(range(12))
        rights = list(range(100, 112))
        edges = {
            (l, r): float(rng.random() * 10 + 0.01)
            for l in lefts
            for r in rights
            if rng.random() < 0.5
        }
        warm = WarmStartState()
        for _ in range(25):
            for k in list(edges):
                if rng.random() < 0.15:
                    del edges[k]
            for l in lefts:
                for r in rights:
                    if (l, r) not in edges and rng.random() < 0.05:
                        edges[(l, r)] = float(rng.random() * 10 + 0.01)
            edge_list = [Edge(l, r, w) for (l, r), w in sorted(edges.items())]
            assert maximum_weight_matching(edge_list, warm=warm) == (
                maximum_weight_matching(edge_list)
            )
        assert warm.warm_solves > 0
        # The point of warm starting: most rows never re-augment.
        assert warm.rows_reaugmented < warm.rows_total

    def test_orientation_flip_is_safe(self):
        """More lefts than rights transposes the matrix; a flip between
        solves must not seed garbage."""
        warm = WarmStartState()
        wide = [Edge(l, 100 + r, float(3 + l + 0.1 * r)) for l in range(3) for r in range(6)]
        tall = [Edge(l, 100 + r, float(3 + l + 0.1 * r)) for l in range(6) for r in range(3)]
        for edges in (wide, tall, wide, tall):
            assert maximum_weight_matching(edges, warm=warm) == (
                maximum_weight_matching(edges)
            )

    def test_empty_and_zero_weight_edges(self):
        warm = WarmStartState()
        assert maximum_weight_matching([], warm=warm) == []
        assert maximum_weight_matching([], warm=warm) == []
        zero = [Edge(0, 10, 0.0), Edge(1, 11, 5.0)]
        assert maximum_weight_matching(zero, warm=warm) == (
            maximum_weight_matching(zero)
        )
        with_zero = maximum_weight_matching(zero, allow_zero_weight=True, warm=warm)
        assert with_zero == maximum_weight_matching(zero, allow_zero_weight=True)

    def test_allow_zero_weight_change_busts_the_fast_path(self):
        """Same edges, different zero policy: the cached matching from
        one policy must not serve the other."""
        edges = [Edge(0, 10, 0.0), Edge(1, 11, 2.0)]
        warm = WarmStartState()
        drop = maximum_weight_matching(edges, warm=warm)
        keep = maximum_weight_matching(edges, allow_zero_weight=True, warm=warm)
        assert drop != keep
        assert warm.identical_hits == 0

    def test_negative_weights_still_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_matching([Edge(0, 1, -1.0)], warm=WarmStartState())


class TestWarmMatchCache:
    def test_states_keyed_per_call_and_component(self):
        cache = WarmMatchCache()
        cache.begin_round()
        a = cache.state_for((cache.next_call(), "c", 0))
        b = cache.state_for((cache.next_call(), "c", 0))
        assert a is not b
        cache.begin_round()
        assert cache.state_for((cache.next_call(), "c", 0)) is a

    def test_stale_states_evicted(self):
        cache = WarmMatchCache(keep_rounds=2)
        cache.begin_round()
        cache.state_for((0, "c", 0))
        for _ in range(5):
            cache.begin_round()
        assert len(cache) == 0


def _run_stream(seed, warm_start, n_batches=52):
    """One serving run over ``n_batches`` one-minute batches with churn:
    staggered worker shifts plus noisy predictions against a deviation
    threshold, so cache entries invalidate mid-stream."""
    horizon = float(n_batches)
    stream = StreamConfig(
        n_workers=25, n_tasks=80, t_end=horizon, seed=seed, min_shift_fraction=0.3
    )
    tasks = make_task_stream(stream)
    workers = make_worker_fleet(stream)
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed, noise_km=0.3),
        ServeConfig(
            batch_window=1.0,
            use_index=True,
            cache_ttl=5.0,
            cache_deviation_km=0.5,
        ),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign(ppi_assign, warm_start=warm_start),
    )
    return engine.run(tasks, 0.0, horizon)


class TestStreamParity:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_50_batch_churn_stream_bit_identical(self, seed):
        cold = _run_stream(seed, warm_start=False)
        warmed = _run_stream(seed, warm_start=True)
        assert cold.n_batches >= 50
        assert result_signature(warmed) == result_signature(cold)

    def test_warm_cache_actually_engages(self):
        # Dense enough that some of PPI's edge lists are not star forests
        # and so reach the matcher (``solve_matching`` answers the rest).
        fn = component_candidate_assign(ppi_assign, warm_start=True)
        stream = StreamConfig(n_workers=40, n_tasks=120, t_end=40.0, seed=1)
        engine = ServeEngine(
            make_worker_fleet(stream),
            DeadReckoningProvider(seed=1),
            ServeConfig(batch_window=1.0, use_index=True, cache_ttl=5.0),
            assign_fn=ppi_assign,
            candidate_assign_fn=fn,
        )
        ref = ServeEngine(
            make_worker_fleet(stream),
            DeadReckoningProvider(seed=1),
            ServeConfig(batch_window=1.0, use_index=True, cache_ttl=5.0),
            assign_fn=ppi_assign,
            candidate_assign_fn=ppi_assign,
        )
        tasks = make_task_stream(stream)
        got = engine.run(tasks, 0.0, 40.0)
        want = ref.run(tasks, 0.0, 40.0)
        assert result_signature(got) == result_signature(want)
        cache = fn.warm_cache
        assert sum(cache.tier_counts().values()) > 0  # the matcher ran
        assert cache.identical_hits > 0 or cache.rows_reaugmented < cache.rows_total

    def test_tier_counts_cover_evicted_states(self):
        """Whole-run tier counts keep the solves of evicted states: one
        tier per solve the component matcher ran.  This stream evicts
        stale states, which used to drop 14 of its 41 solves."""
        fn = component_candidate_assign(ppi_assign, warm_start=True)
        stream = StreamConfig(n_workers=60, n_tasks=240, t_end=40.0, seed=1)
        engine = ServeEngine(
            make_worker_fleet(stream),
            DeadReckoningProvider(seed=1),
            ServeConfig(batch_window=1.0, use_index=True, cache_ttl=5.0),
            assign_fn=ppi_assign,
            candidate_assign_fn=fn,
        )
        with mock.patch.object(shard, "maximum_weight_matching", wraps=maximum_weight_matching) as solver:
            engine.run(make_task_stream(stream), 0.0, 40.0)
        cache = fn.warm_cache
        assert solver.call_count > 0
        assert sum(cache.tier_counts().values()) == solver.call_count
        assert cache.identical_hits == cache.tier_counts()["identical"]
