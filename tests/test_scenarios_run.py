"""Tests for spec → engine compilation and scenario execution.

The load-bearing property is *parity*: a run assembled through the
spec/builder layer must be byte-identical (same ``result_signature``)
to the same run hand-assembled through the legacy ``ServeEngine``
constructor path the benches and CLI used before the registry existed.
"""

from repro.assignment.ppi import ppi_assign
from repro.scenarios import (
    PolicySpec,
    build_engine,
    build_serve_config,
    get_policy,
    get_scenario,
    materialize,
    run_scenario,
    signature_digest,
)
from repro.serve import ServeConfig, ServeEngine
from repro.serve.adapters import result_signature
from repro.serve.streams import (
    DeadReckoningProvider,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
)

SMOKE = get_scenario("smoke")
ADAPTIVE = get_policy("adaptive-indexed")


def legacy_smoke_adaptive_result():
    """The pre-registry construction of smoke × adaptive-indexed."""
    cfg = StreamConfig(
        seed=7, n_workers=40, n_tasks=80, t_end=20.0, width_km=10.0, height_km=10.0
    )
    tasks = make_task_stream(cfg)
    workers = make_worker_fleet(cfg)
    provider = DeadReckoningProvider(seed=7)
    engine = ServeEngine(
        workers,
        provider,
        ServeConfig(
            trigger="adaptive",
            pending_threshold=50,
            cache_ttl=6.0,
            use_index=True,
            index_cell_km=2.0,
        ),
        assign_fn=ppi_assign,
        candidate_assign_fn=ppi_assign,
    )
    return engine.run(tasks, cfg.t_start, cfg.t_end)


class TestMaterialize:
    def test_same_spec_same_data(self):
        a = materialize(SMOKE)
        b = materialize(SMOKE)
        assert [(t.task_id, t.location.x, t.location.y, t.release_time, t.deadline)
                for t in a.tasks] == \
               [(t.task_id, t.location.x, t.location.y, t.release_time, t.deadline)
                for t in b.tasks]
        assert [w.worker_id for w in a.workers] == [w.worker_id for w in b.workers]

    def test_seed_changes_data(self):
        a = materialize(SMOKE)
        reseeded = type(SMOKE)(
            generator=SMOKE.generator, seed=SMOKE.seed + 1, params=SMOKE.params
        )
        b = materialize(reseeded)
        assert [t.location.x for t in a.tasks] != [t.location.x for t in b.tasks]

    def test_variant_generators_materialize(self):
        for name in ("hot-cell-burst", "rush-hour", "worker-churn"):
            data = materialize(get_scenario(name))
            assert len(data.tasks) > 0 and len(data.workers) > 0
            assert data.t_end > data.t_start


class TestBuilders:
    def test_serve_config_field_mapping(self):
        config = build_serve_config(ADAPTIVE)
        assert config.trigger == "adaptive"
        assert config.pending_threshold == 50
        assert config.cache_ttl == 6.0
        assert config.use_index and config.index_cell_km == 2.0
        assert config.batch_window == ADAPTIVE.serve.batch_window
        assert config.min_trigger_interval == ADAPTIVE.serve.min_trigger_interval

    def test_dist_config_only_when_sharded(self):
        data = materialize(SMOKE)
        assert type(build_engine(data.workers, data.provider, ADAPTIVE)) is ServeEngine
        sharded = get_policy("sharded-2")
        engine = build_engine(data.workers, data.provider, sharded)
        try:
            assert engine.dist == sharded.dist and engine.dist.shards == 2
        finally:
            engine.close()

    def test_engine_kind_follows_shards(self):
        from repro.dist import ShardedEngine

        data = materialize(SMOKE)
        engine = build_engine(data.workers, data.provider, ADAPTIVE)
        assert type(engine) is ServeEngine
        sharded = build_engine(data.workers, data.provider, get_policy("sharded-2"))
        try:
            assert isinstance(sharded, ShardedEngine)
        finally:
            sharded.close()


class TestRunScenario:
    def test_signature_parity_with_legacy_path(self):
        spec_result = run_scenario(SMOKE, ADAPTIVE)
        legacy_result = legacy_smoke_adaptive_result()
        assert result_signature(spec_result) == result_signature(legacy_result)
        assert signature_digest(spec_result) == signature_digest(legacy_result)

    def test_deterministic_across_runs(self):
        assert signature_digest(run_scenario(SMOKE, ADAPTIVE)) == signature_digest(
            run_scenario(SMOKE, ADAPTIVE)
        )

    def test_policy_changes_digest(self):
        batch = run_scenario(SMOKE, get_policy("batch-parity"))
        adaptive = run_scenario(SMOKE, ADAPTIVE)
        # Different policies complete the same stream, but their batch
        # traces differ, which the signature must see.
        assert result_signature(batch) != result_signature(adaptive)

    def test_km_algorithm_runs(self):
        policy = PolicySpec.from_dict({"algorithm": "km"})
        result = run_scenario(SMOKE, policy)
        assert result.n_tasks == len(materialize(SMOKE).tasks)
