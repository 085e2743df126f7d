"""Tests for the declarative scenario/policy spec layer."""

import pickle
from dataclasses import fields

import pytest

from repro.forecast.dispatch import ForecastConfig
from repro.scenarios import (
    BUILTIN_POLICIES,
    BUILTIN_SCENARIOS,
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    assign_fn,
    build_serve_config,
    dump_spec,
    get_policy,
    get_scenario,
    load_spec,
    parse_sweep_arg,
    resolve_run_spec,
    stream_config_for,
)
from repro.serve import ServeConfig

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
        document = dump_spec(spec, path)
        assert load_spec(path) == spec
        assert dump_spec(load_spec(path)) == document

    def test_yaml_file_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        spec = RunSpec.from_dict(FULL_DOC)
        path = tmp_path / "spec.yaml"
        document = dump_spec(spec, path)
        assert load_spec(path) == spec
        assert dump_spec(load_spec(path)) == document


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
        with pytest.raises(ValueError, match="adaptive") as exc:
            PolicySpec.from_dict({"trigger": {"kind": "psychic"}})
        assert "policy.trigger.kind" in str(exc.value)

    def test_bad_dist_backend(self):
        with pytest.raises(ValueError, match="serial") as exc:
            PolicySpec.from_dict({"dist": {"backend": "carrier-pigeon"}})
        assert "policy.dist.backend" in str(exc.value)
        # There is no process pool behind a sharded engine.
        with pytest.raises(ValueError, match="shard_server"):
            PolicySpec.from_dict({"dist": {"backend": "process"}})

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


class TestLoadTimeValidation:
    """Values the engine configs reject fail in ``from_dict``, naming the path."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"trigger": {"window": -1}}, "policy.trigger.window"),
            ({"trigger": {"window": "fast"}}, "policy.trigger.window"),
            ({"cache": {"ttl": -5}}, "policy.cache.ttl"),
            ({"cache": {"ttl": None}}, "policy.cache.ttl"),
            ({"index": {"cell_km": 0}}, "policy.index.cell_km"),
            ({"index": {"max_candidates": 0}}, "policy.index.max_candidates"),
            ({"shedding": {"max_pending": 0}}, "policy.shedding.max_pending"),
            ({"forecast": {"enabled": True, "max_moves": 0}}, "policy.forecast.max_moves"),
            ({"trigger": {"kind": "forecast"}}, "policy.trigger.kind"),
            ({"dist": {"shards": 0}}, "policy.dist.shards"),
        ],
        ids=[
            "window-negative", "window-string", "ttl-negative", "ttl-null",
            "cell-zero", "max-candidates-zero", "max-pending-zero",
            "forecast-max-moves-zero", "forecast-trigger-without-block",
            "shards-zero",
        ],
    )
    def test_bad_value_names_document_path(self, doc, path):
        with pytest.raises(ValueError) as exc:
            PolicySpec.from_dict(doc)
        assert path in str(exc.value)

    def test_single_shard_warm_start_needs_the_index(self):
        with pytest.raises(ValueError, match="policy.dist.warm_start"):
            PolicySpec.from_dict({"dist": {"warm_start": True}})
        # The index, or a second shard (which turns it on), is enough.
        PolicySpec.from_dict({"dist": {"warm_start": True}, "index": {"enabled": True}})
        PolicySpec.from_dict({"dist": {"warm_start": True, "shards": 2}})

    def test_engine_reason_is_kept(self):
        with pytest.raises(ValueError, match="batch window must be positive"):
            PolicySpec.from_dict({"trigger": {"window": -1}})


#: The keys each policy block accepts; adding or dropping one is an
#: option change.
BLOCK_KEYS = {
    "trigger": {"kind", "window", "pending_threshold", "deadline_slack", "min_interval"},
    "shedding": {"max_pending"},
    "cache": {"ttl", "deviation_km"},
    "index": {"enabled", "cell_km", "max_candidates"},
    "dist": {"backend", "shards", "warm_start"},
    "forecast": {
        "enabled", "model", "bin_minutes", "history_bins", "horizon_bins",
        "grid_rows", "grid_cols", "demand_threshold", "prepositioning",
        "gap_threshold", "max_moves", "detour_fraction", "cooldown_minutes",
    },
}


class TestDocumentShape:
    def test_default_document_has_the_pinned_keys(self):
        doc = PolicySpec().to_dict()
        assert set(doc) == {"algorithm", "assignment_window", *BLOCK_KEYS}
        assert {name: set(doc[name]) for name in BLOCK_KEYS} == BLOCK_KEYS
        assert doc["forecast"]["enabled"] is False

    @pytest.mark.parametrize("block", sorted(BLOCK_KEYS))
    def test_block_accepts_exactly_the_pinned_keys(self, block):
        allowed = BLOCK_KEYS[block]
        with pytest.raises(ValueError) as exc:
            PolicySpec.from_dict({block: {"no_such_key": 1}})
        listed = str(exc.value).split("allowed: ", 1)[1].rstrip(")")
        assert set(listed.split(", ")) == allowed

    def test_specs_pickle(self):
        for policy in BUILTIN_POLICIES.values():
            assert pickle.loads(pickle.dumps(policy)) == policy


def _config_values(config) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


#: ``ServeConfig()`` / ``ForecastConfig()`` field values, and each
#: policy's departures from them, as the policy layer compiled them
#: before the engine configs became the policy's own fields.
PINNED_SERVE_DEFAULTS = {
    "batch_window": 2.0, "assignment_window": 10.0, "trigger": "fixed",
    "pending_threshold": None, "deadline_slack": None, "min_trigger_interval": 0.25,
    "max_pending": None, "cache_ttl": 0.0, "cache_deviation_km": None,
    "use_index": False, "index_cell_km": 1.0, "max_candidates": None,
    "monitor": None, "decisions": None, "forecast": None,
}
PINNED_FORECAST_DEFAULTS = {
    "model": "ewma", "bin_minutes": 2.0, "history_bins": 6, "horizon_bins": 1,
    "grid_rows": 8, "grid_cols": 8, "width_km": None, "height_km": None,
    "alpha": 0.4, "period_bins": None, "seq_hidden": 24,
    "seq_epochs": 60, "seq_lr": 0.02, "seq_top_cells": 12, "fit_after_bins": 8,
    "demand_threshold": None, "prepositioning": False, "gap_threshold": 1.0,
    "max_moves": 4, "detour_fraction": 0.5, "cooldown_minutes": 4.0, "seed": 0,
}
_INDEXED = {"use_index": True, "index_cell_km": 2.0}
_REACTIVE = {"trigger": "adaptive", "pending_threshold": 50, "cache_ttl": 6.0, **_INDEXED}
_CITY = {"batch_window": 1.0, "max_pending": 600, "cache_ttl": 6.0,
         "cache_deviation_km": 2.0, **_INDEXED}
PINNED_POLICIES = {
    "batch-parity": ({}, None),
    "serve-default": ({}, None),
    "indexed": (_INDEXED, None),
    "adaptive-indexed": (_REACTIVE, None),
    "bench-serve-engine": (
        {"trigger": "adaptive", "pending_threshold": 120, "deadline_slack": 1.0,
         "max_pending": 150, "cache_ttl": 6.0, "cache_deviation_km": 2.0, **_INDEXED},
        None,
    ),
    "reactive-adaptive": (_REACTIVE, None),
    "forecast-prepositioned": (
        _REACTIVE,
        {"grid_rows": 6, "grid_cols": 6, "prepositioning": True, "gap_threshold": 2.0},
    ),
    "sharded-2": (_INDEXED, None),
    "warm-sharded-2": (_INDEXED, None),
    "bench:stream-city": (_CITY, None),
    "bench:stream-burst-observed": (
        {"trigger": "adaptive", "pending_threshold": 80, "deadline_slack": 1.0,
         "max_pending": 120, "cache_ttl": 6.0, "cache_deviation_km": 2.0, **_INDEXED},
        {"prepositioning": True, "max_moves": 8},
    ),
    "bench:stream-churn-sharded": (_CITY, None),
}


def _pinned_policies() -> dict:
    from bench.workloads import POLICIES

    return {**BUILTIN_POLICIES, **{f"bench:{k}": v for k, v in POLICIES.items()}}


class TestCompiledConfigsPinned:
    def test_engine_config_defaults(self):
        assert _config_values(ServeConfig()) == PINNED_SERVE_DEFAULTS
        assert _config_values(ForecastConfig()) == PINNED_FORECAST_DEFAULTS

    def test_every_policy_compiles_to_the_pinned_configs(self):
        policies = _pinned_policies()
        assert set(policies) == set(PINNED_POLICIES)
        for name, policy in policies.items():
            serve, forecast = PINNED_POLICIES[name]
            config = build_serve_config(policy)
            expected_forecast = (
                None if forecast is None else {**PINNED_FORECAST_DEFAULTS, **forecast}
            )
            actual_forecast = (
                None if config.forecast is None else _config_values(config.forecast)
            )
            assert actual_forecast == expected_forecast, name
            values = _config_values(config)
            values.pop("forecast")
            expected = {**PINNED_SERVE_DEFAULTS, **serve}
            expected.pop("forecast")
            assert values == expected, name


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
