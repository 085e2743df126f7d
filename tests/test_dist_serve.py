"""ShardedEngine vs ServeEngine: identical serving results at any shard count.

``result_signature`` covers completion/rejection/expiry counts, the
ordered detour list, the completed-task id set, and per-batch records —
if the sharded candidate build changed any plan anywhere, it shows up
here.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.assignment.baselines import km_assign
from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.dist import DistConfig, ShardedEngine, component_candidate_assign
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)


def scenario(seed, n_workers=30, n_tasks=60, t_end=60.0):
    cfg = StreamConfig(n_workers=n_workers, n_tasks=n_tasks, t_end=t_end, seed=seed)
    return make_task_stream(cfg), make_worker_fleet(cfg)


ASSIGN = {"ppi": ppi_assign, "km": km_assign}


def run_reference(tasks, workers, seed, algorithm="ppi", **config_kwargs):
    engine = ServeEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(use_index=True, **config_kwargs),
        assign_fn=ASSIGN[algorithm],
        candidate_assign_fn=ASSIGN[algorithm],
    )
    return engine.run(tasks, 0.0, 60.0)


def run_sharded(tasks, workers, seed, shards, algorithm="ppi", **config_kwargs):
    engine = ShardedEngine(
        workers,
        DeadReckoningProvider(seed=seed),
        ServeConfig(**config_kwargs),
        assign_fn=ASSIGN[algorithm],
        candidate_assign_fn=component_candidate_assign(ASSIGN[algorithm]),
        dist=DistConfig(shards=shards),
    )
    try:
        return engine.run(tasks, 0.0, 60.0), engine
    finally:
        engine.close()


class TestSignatureParity:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_ppi_signature_matches_dense_engine(self, seed, shards):
        tasks, workers = scenario(seed)
        ref = result_signature(run_reference(tasks, workers, seed))
        got, engine = run_sharded(tasks, workers, seed, shards)
        assert result_signature(got) == ref
        assert len(engine.batch_stats) == got.n_batches

    def test_km_signature_matches_dense_engine(self):
        tasks, workers = scenario(2)
        ref = result_signature(run_reference(tasks, workers, 2, algorithm="km"))
        got, _ = run_sharded(tasks, workers, 2, shards=3, algorithm="km")
        assert result_signature(got) == ref

    def test_parity_with_serving_features_on(self):
        """Sharding composes with the cache and the adaptive trigger."""
        kwargs = dict(trigger="adaptive", pending_threshold=10, cache_ttl=4.0)
        tasks, workers = scenario(6)
        ref = result_signature(run_reference(tasks, workers, 6, **kwargs))
        got, _ = run_sharded(tasks, workers, 6, shards=2, **kwargs)
        assert result_signature(got) == ref


class TestShardedEngineBehavior:
    def test_forces_use_index(self):
        _, workers = scenario(0)
        engine = ShardedEngine(
            workers,
            DeadReckoningProvider(seed=0),
            ServeConfig(),  # use_index not set by the caller
            assign_fn=ppi_assign,
            candidate_assign_fn=component_candidate_assign(ppi_assign),
        )
        assert engine.config.use_index is True
        engine.close()

    def test_rejects_process_backend(self):
        _, workers = scenario(0)
        with pytest.raises(ValueError, match="DistConfig.backend"):
            ShardedEngine(
                workers,
                DeadReckoningProvider(seed=0),
                ServeConfig(),
                assign_fn=ppi_assign,
                candidate_assign_fn=component_candidate_assign(ppi_assign),
                dist=DistConfig(backend="process", shards=2),
            )

    def test_reused_engine_routes_each_run_afresh(self):
        """A second run on one engine reports what a fresh engine would:
        stripe routing and batch accounting start over each run."""
        from repro import obs
        from repro.obs.recorder import MetricsRecorder
        from repro.scenarios import build_engine, get_policy, get_scenario, materialize
        data = materialize(get_scenario("smoke"))
        policy = replace(get_policy("indexed"), dist=DistConfig(shards=2))
        engine = build_engine(data.workers, data.provider, policy)
        runs = []
        try:
            for _ in range(2):
                previous = obs.set_recorder(MetricsRecorder())
                try:
                    result = engine.run(data.tasks, data.t_start, data.t_end)
                    counters = obs.get_recorder().metrics.counters
                finally:
                    obs.set_recorder(previous)
                dist = {k: v for k, v in counters.items() if k.startswith("dist.")}
                assert len(engine.batch_stats) == result.n_batches
                runs.append((result_signature(result), dist))
        finally:
            engine.close()
        assert runs[0][1]  # the routing counters were emitted
        assert runs[1] == runs[0]

    def test_requires_candidate_assign_fn(self):
        _, workers = scenario(0)
        with pytest.raises(ValueError):
            ShardedEngine(
                workers, DeadReckoningProvider(seed=0), ServeConfig(), assign_fn=ppi_assign
            )

    def test_partial_carries_ppi_config(self):
        """A non-default PPIConfig reaches the component-matched path
        through functools.partial; plans still equal the serial engine's."""
        tasks, workers = scenario(2)
        narrow = functools.partial(ppi_assign, config=PPIConfig(a=0.05))
        ref = ServeEngine(
            workers,
            DeadReckoningProvider(seed=2),
            ServeConfig(use_index=True),
            assign_fn=narrow,
            candidate_assign_fn=narrow,
        ).run(tasks, 0.0, 60.0)
        engine = ShardedEngine(
            workers,
            DeadReckoningProvider(seed=2),
            ServeConfig(),
            assign_fn=narrow,
            candidate_assign_fn=component_candidate_assign(narrow),
            dist=DistConfig(shards=2),
        )
        try:
            got = engine.run(tasks, 0.0, 60.0)
        finally:
            engine.close()
        assert result_signature(got) == result_signature(ref)
        default = run_reference(tasks, workers, 2)
        assert result_signature(got) != result_signature(default)

    def test_boundary_worker_accounting(self):
        tasks, workers = scenario(0)
        got, engine = run_sharded(tasks, workers, 0, shards=4)
        assert engine.boundary_workers_total == sum(
            s.n_boundary_workers for s in engine.batch_stats
        )
        for stats in engine.batch_stats:
            assert stats.n_shards >= 1
            assert stats.merge_seconds >= 0.0
            assert len(stats.tasks_per_shard) == stats.n_shards

    def test_single_shard_has_no_boundary_workers(self):
        tasks, workers = scenario(3)
        _, engine = run_sharded(tasks, workers, 3, shards=1)
        assert engine.boundary_workers_total == 0
