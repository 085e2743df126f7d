"""Engine-level forecast tests: parity, determinism, and uplift wiring.

The load-bearing contract is the acceptance criterion of the forecast
subsystem: with ``forecast=None`` (or a configured-but-disabled block)
the engine's ``result_signature`` is bit-identical to the reactive
engine on every built-in registry scenario, and a forecast-enabled run
is deterministic — same seed, same metrics — whether per-batch
candidate builds run serially or on shard servers.
"""

import pytest

from repro.scenarios import (
    BUILTIN_SCENARIOS,
    PolicySpec,
    build_engine,
    get_policy,
    get_scenario,
    materialize,
)
from repro.scenarios.sweep import signature_digest
from repro.serve.adapters import result_signature

BASE_DOC = {
    "trigger": {"kind": "adaptive", "pending_threshold": 50},
    "cache": {"ttl": 6.0},
    "index": {"enabled": True, "cell_km": 2.0},
}


def run_policy(data, policy):
    engine = build_engine(data.workers, data.provider, policy)
    try:
        return engine.run(data.tasks, data.t_start, data.t_end)
    finally:
        if policy.dist.shards > 1:
            engine.close()


def with_forecast(base_doc, **forecast):
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in base_doc.items()}
    doc["forecast"] = forecast
    return PolicySpec.from_dict(doc)


class TestForecastOffParity:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_disabled_block_is_bit_identical(self, name):
        if name == "bench-scale-100k":
            pytest.skip("covered by bench-serve-city at test-budget scale")
        data = materialize(get_scenario(name))
        baseline = run_policy(data, PolicySpec.from_dict(BASE_DOC))
        # A fully-configured but disabled forecast block must compile to
        # forecast=None and leave the engine untouched.
        disabled = run_policy(
            data,
            with_forecast(
                BASE_DOC, enabled=False, model="seq2seq", prepositioning=True,
                demand_threshold=5.0,
            ),
        )
        assert result_signature(baseline) == result_signature(disabled)

    @pytest.mark.parametrize(
        "name", ["smoke", "serve-default", "hot-cell-burst", "rush-hour", "worker-churn"]
    )
    def test_passive_forecasting_is_bit_identical(self, name):
        # Forecasting on, but no forecast trigger and no pre-positioning:
        # the runtime observes and scores without steering anything.
        data = materialize(get_scenario(name))
        baseline = run_policy(data, PolicySpec.from_dict(BASE_DOC))
        passive = run_policy(data, with_forecast(BASE_DOC, enabled=True, model="ewma"))
        assert result_signature(baseline) == result_signature(passive)
        assert passive.forecast_mae is not None


class TestForecastDeterminism:
    def test_same_seed_same_run(self):
        data = materialize(get_scenario("hot-cell-burst"))
        policy = get_policy("forecast-prepositioned")
        a = run_policy(data, policy)
        b = run_policy(data, policy)
        assert result_signature(a) == result_signature(b)
        assert a.forecast_mae == b.forecast_mae
        assert a.n_prepositioned == b.n_prepositioned
        assert a.forecast_cell_mae == b.forecast_cell_mae

    def test_serial_vs_shard_server_backend_identical(self):
        data = materialize(get_scenario("hot-cell-burst"))
        doc = get_policy("forecast-prepositioned").to_dict()
        doc["dist"] = {"shards": 2, "backend": "serial"}
        serial = run_policy(data, PolicySpec.from_dict(doc))
        doc["dist"] = {"shards": 2, "backend": "shard_server"}
        servers = run_policy(data, PolicySpec.from_dict(doc))
        assert result_signature(serial) == result_signature(servers)
        assert serial.forecast_mae == servers.forecast_mae
        assert serial.n_prepositioned == servers.n_prepositioned


#: ``signature_digest`` of each registry scenario under the registry's
#: forecast-enabled policy (``forecast-prepositioned``), recorded with
#: the per-pair gap planner.  The bench-shape scenarios are left out:
#: their one-minute horizons leave the planner nothing to move.
FORECAST_DIGESTS = {
    "smoke": "3e16e739c5705ce9e64686a6f6370719977c7a981c2506d598896bdefa9f9154",
    "serve-default": "deff1449292b5d80dc0d24334ab8bcda9ec34fb8b010020def9a67d930d5aa98",
    "hot-cell-burst": "44d95bb5daa4b16277d86150ed4ed1265b8a3b8f531a3b5f07456d269f624b16",
    "rush-hour": "44e3e81dae432916f4bd3fc8a2e0e03d185e0ba20d8754a5e5b1732293ef4e76",
    "worker-churn": "89b333dd4269d4a4ec280868089045c217e0de4c291f167037b9d07a7b0e06da",
}


@pytest.mark.parametrize("name", sorted(FORECAST_DIGESTS))
def test_forecast_run_keeps_its_pinned_digest(name):
    result = run_policy(materialize(get_scenario(name)), get_policy("forecast-prepositioned"))
    assert result.n_prepositioned > 0
    assert signature_digest(result) == FORECAST_DIGESTS[name]


class TestForecastEffects:
    def test_prepositioning_moves_and_completes_more_on_hot_cells(self):
        data = materialize(get_scenario("hot-cell-burst"))
        reactive = run_policy(data, get_policy("reactive-adaptive"))
        forecast = run_policy(data, get_policy("forecast-prepositioned"))
        assert forecast.n_prepositioned > 0
        assert forecast.n_completed > reactive.n_completed

    def test_forecast_trigger_pulls_batches_forward(self):
        data = materialize(get_scenario("hot-cell-burst"))
        baseline = run_policy(data, PolicySpec.from_dict({"trigger": {"kind": "fixed"}}))
        triggered = run_policy(
            data,
            PolicySpec.from_dict(
                {
                    "trigger": {"kind": "forecast"},
                    "forecast": {"enabled": True, "model": "ewma",
                                 "demand_threshold": 8.0},
                }
            ),
        )
        assert triggered.n_early_batches > 0
        assert baseline.n_early_batches == 0
