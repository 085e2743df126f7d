"""Tests for the declarative scenario/policy spec layer."""

import pytest

from repro.scenarios import (
    BUILTIN_POLICIES,
    BUILTIN_SCENARIOS,
    DistSpec,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    TriggerSpec,
    assign_fn,
    dump_spec,
    get_policy,
    get_scenario,
    load_spec,
    parse_sweep_arg,
    resolve_run_spec,
    stream_config_for,
)

FULL_DOC = {
    "name": "full",
    "scenario": {
        "generator": "uniform",
        "seed": 3,
        "params": {"n_workers": 50, "n_tasks": 100, "t_end": 30.0},
    },
    "policy": {
        "algorithm": "km",
        "assignment_window": 8.0,
        "trigger": {"kind": "adaptive", "pending_threshold": 40,
                    "deadline_slack": 1.5, "window": 3.0},
        "shedding": {"max_pending": 120},
        "cache": {"ttl": 6.0, "deviation_km": 2.0},
        "index": {"enabled": True, "cell_km": 2.0, "max_candidates": 32},
        "dist": {"backend": "shard_server", "shards": 2, "warm_start": True},
    },
    "sweep": {"scenario.seed": [1, 2]},
}


class TestRoundTrip:
    def test_run_spec_load_dump_load_identity(self):
        spec = RunSpec.from_dict(FULL_DOC)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_round_trip(self):
        spec = RunSpec.from_dict({})
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_every_builtin_policy_round_trips(self):
        for name, policy in BUILTIN_POLICIES.items():
            assert PolicySpec.from_dict(policy.to_dict()) == policy, name

    def test_every_builtin_scenario_round_trips(self):
        for name, scenario in BUILTIN_SCENARIOS.items():
            assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario, name

    def test_json_file_round_trip(self, tmp_path):
        spec = RunSpec.from_dict(FULL_DOC)
        path = tmp_path / "spec.json"
        dump_spec(spec, path)
        assert load_spec(path) == spec

    def test_yaml_file_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        spec = RunSpec.from_dict(FULL_DOC)
        path = tmp_path / "spec.yaml"
        dump_spec(spec, path)
        assert load_spec(path) == spec


class TestValidation:
    def test_unknown_top_level_key_names_key_and_allowed(self):
        with pytest.raises(ValueError) as exc:
            RunSpec.from_dict({"scenaro": {}})
        message = str(exc.value)
        assert "scenaro" in message
        assert "scenario" in message and "policy" in message

    def test_unknown_policy_block_key(self):
        with pytest.raises(ValueError) as exc:
            PolicySpec.from_dict({"trigger": {"windw": 2.0}})
        message = str(exc.value)
        assert "windw" in message and "window" in message

    def test_unknown_scenario_param_names_allowed_fields(self):
        spec = ScenarioSpec(generator="uniform", params={"n_wrkers": 10})
        with pytest.raises(ValueError) as exc:
            stream_config_for(spec)
        message = str(exc.value)
        assert "n_wrkers" in message and "n_workers" in message

    def test_seed_inside_params_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec.from_dict({"params": {"seed": 3}})

    def test_bad_trigger_kind(self):
        with pytest.raises(ValueError, match="adaptive"):
            TriggerSpec(kind="psychic")

    def test_bad_dist_backend(self):
        with pytest.raises(ValueError, match="serial"):
            DistSpec(backend="carrier-pigeon")
        # The per-call pool does not serve a sharded engine.
        with pytest.raises(ValueError, match="shard_server"):
            DistSpec(backend="process")

    def test_dist_workers_key_rejected(self):
        with pytest.raises(ValueError) as exc:
            PolicySpec.from_dict({"dist": {"shards": 2, "workers": 2}})
        message = str(exc.value)
        assert "workers" in message and "shards" in message

    def test_bad_algorithm(self):
        with pytest.raises(ValueError, match="ppi"):
            PolicySpec(algorithm="greedy")

    def test_assign_fn_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="greedy"):
            assign_fn("greedy")

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            RunSpec.from_dict({"sweep": {"scenario.seed": []}})

    def test_string_scenario_points_at_registry(self):
        with pytest.raises(ValueError, match="resolve_run_spec"):
            RunSpec.from_dict({"scenario": "smoke"})


class TestRegistry:
    def test_resolve_builtin_names(self):
        spec = resolve_run_spec({"scenario": "smoke", "policy": "indexed"})
        assert spec.scenario == get_scenario("smoke")
        assert spec.policy == get_policy("indexed")

    def test_unknown_scenario_lists_builtins(self):
        with pytest.raises(ValueError) as exc:
            get_scenario("nope")
        assert "smoke" in str(exc.value)

    def test_unknown_policy_lists_builtins(self):
        with pytest.raises(ValueError) as exc:
            get_policy("nope")
        assert "indexed" in str(exc.value)

    def test_unknown_generator_param_validated_at_resolution(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            stream_config_for(
                ScenarioSpec(generator="uniform", params={"hot_fraction": 0.5})
            )


class TestParseSweepArg:
    def test_typed_values(self):
        path, values = parse_sweep_arg("scenario.seed=1,2,3")
        assert path == "scenario.seed"
        assert values == [1, 2, 3]

    def test_mixed_json_and_string_tokens(self):
        _, values = parse_sweep_arg("policy.trigger.kind=fixed,adaptive")
        assert values == ["fixed", "adaptive"]
        _, values = parse_sweep_arg("policy.index.enabled=true,false")
        assert values == [True, False]
        _, values = parse_sweep_arg("policy.cache.ttl=0,6.0,null")
        assert values == [0, 6.0, None]

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="--sweep"):
            parse_sweep_arg("scenario.seed")

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="--sweep"):
            parse_sweep_arg("scenario.seed=")
