"""DistConfig, a policy's ``dist`` block, who owns the shard servers, and the sweep pool.

``DistConfig`` is the one description of sharded serving: a policy
document's ``dist`` block loads straight into it, and a
:class:`ShardedEngine` owns shard servers only on the ``shard_server``
transport.  Sweep cells are pure, so the forked cell pool must return
the inline run's summaries, in grid order.
"""

import pickle
import sys
from pathlib import Path

import pytest

from repro.assignment.ppi import ppi_assign
from repro.cli import build_parser
from repro.dist import DistConfig, ShardedEngine, ShardServerBackend, component_candidate_assign
from repro.scenarios import PolicySpec, RunSpec, run_sweep
from repro.scenarios import sweep as sweep_module
from repro.serve import DeadReckoningProvider, ServeConfig, StreamConfig, make_worker_fleet

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from common import available_cpus  # noqa: E402

SWEEP_DOC = {
    "name": "pool",
    "scenario": {
        "generator": "uniform",
        "seed": 1,
        "params": {"n_workers": 25, "n_tasks": 50, "t_end": 15.0,
                   "width_km": 10.0, "height_km": 10.0},
    },
    "policy": {"index": {"enabled": True, "cell_km": 2.0}},
    "sweep": {"scenario.seed": [1, 2], "policy.dist.shards": [1, 2]},
}

#: Summary fields read off the wall clock; everything else is a pure
#: function of the cell.
CLOCK_FIELDS = ("wall_s",)
CLOCK_METRICS = ("running_seconds", "throughput_tasks_per_s")


def without_clocks(summary: dict) -> dict:
    kept = {k: v for k, v in summary.items() if k not in CLOCK_FIELDS}
    kept["metrics"] = {
        k: v for k, v in summary["metrics"].items() if k not in CLOCK_METRICS
    }
    return kept


def sharded_engine(dist: DistConfig) -> ShardedEngine:
    workers = make_worker_fleet(StreamConfig(n_workers=10, n_tasks=10, seed=0))
    return ShardedEngine(
        workers,
        DeadReckoningProvider(seed=0),
        ServeConfig(),
        assign_fn=ppi_assign,
        candidate_assign_fn=component_candidate_assign(ppi_assign),
        dist=dist,
    )


class TestDistConfig:
    def test_defaults_are_serial_noop(self):
        cfg = DistConfig()
        assert cfg.backend == "serial"
        assert cfg.shards == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "threads"},
            {"backend": "process"},
            {"shards": 0},
            {"start_method": "magic"},
            {"spool_dir": "spools"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DistConfig(**kwargs)

    def test_picklable(self):
        cfg = DistConfig(backend="shard_server", shards=2)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestPolicyDistBlock:
    def test_block_loads_into_a_dist_config(self):
        policy = PolicySpec.from_dict(
            {"dist": {"backend": "shard_server", "shards": 2, "warm_start": True}}
        )
        assert policy.dist == DistConfig(backend="shard_server", shards=2, warm_start=True)
        assert policy.to_dict()["dist"] == {
            "backend": "shard_server", "shards": 2, "warm_start": True,
        }

    @pytest.mark.parametrize("key, value", [("spool_dir", "spools"), ("start_method", "spawn")])
    def test_per_run_keys_fail_at_load(self, key, value):
        with pytest.raises(ValueError) as exc:
            PolicySpec.from_dict({"dist": {"shards": 2, key: value}})
        assert key in str(exc.value) and "policy.dist" in str(exc.value)


class TestShardedEngineBackend:
    def test_serial_engine_has_no_backend(self):
        engine = sharded_engine(DistConfig(shards=2))
        assert engine.backend is None
        engine.close()

    @pytest.mark.parametrize("backend", ["serial", "shard_server"])
    def test_close_twice_is_safe(self, backend):
        engine = sharded_engine(DistConfig(backend=backend, shards=2))
        engine.close()
        engine.close()


class TestShardServers:
    def test_spawn_start_method(self):
        """Spawn re-imports the server code, so the command loop must pickle."""
        with ShardServerBackend(1, start_method="spawn") as servers:
            assert servers.handles[0].request("ping") == "pong"

    def test_unknown_start_method_fails_up_front(self):
        with pytest.raises(ValueError):
            ShardServerBackend(1, start_method="magic")


class TestSweepPool:
    def test_pooled_summaries_equal_inline(self):
        spec = RunSpec.from_dict(SWEEP_DOC)
        inline = run_sweep(spec)
        pooled = run_sweep(spec, cell_workers=2)
        assert [s["cell"] for s in pooled] == [0, 1, 2, 3]
        assert [without_clocks(s) for s in pooled] == [without_clocks(s) for s in inline]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_cell_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="cell_workers"):
            run_sweep(RunSpec.from_dict(SWEEP_DOC), cell_workers=workers)

    def test_one_cell_runs_inline(self, monkeypatch):
        def no_pool(method):
            raise AssertionError("a one-cell sweep built a pool")

        monkeypatch.setattr(sweep_module.multiprocessing, "get_context", no_pool)
        doc = {**SWEEP_DOC, "sweep": {}}
        (summary,) = run_sweep(RunSpec.from_dict(doc), cell_workers=2)
        assert summary["cell"] == 0


class TestCli:
    def test_cell_workers_defaults_to_one(self):
        args = build_parser().parse_args(["scenarios", "run", "--scenario", "smoke"])
        assert args.cell_workers == 1

    def test_cell_backend_flag_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenarios", "run", "--scenario", "smoke", "--cell-backend", "process"]
            )


def test_available_cpus_positive():
    assert available_cpus() >= 1
