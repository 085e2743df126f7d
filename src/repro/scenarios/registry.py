"""The scenario/policy registry: named generators and built-in specs.

Generators map a config dataclass to task/worker factories; resolving a
:class:`~repro.scenarios.specs.ScenarioSpec` validates its params
against the generator's config fields (unknown params fail naming the
key and the allowed keys) and materialises the deterministic data.

Built-in scenarios include the stream shapes of the committed benches
(``bench-serve-*``, ``bench-scale-*``, ``bench-dist-shard``), so the
benches, the CLI, and sweep specs all draw the same populations from
one source of truth instead of re-hardcoding ``StreamConfig`` literals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

from repro.sc.entities import SpatialTask, Worker
from repro.scenarios.specs import PolicySpec, RunSpec, ScenarioSpec
from repro.serve.streams import (
    DeadReckoningProvider,
    HotCellBurstConfig,
    RushHourConfig,
    StreamConfig,
    WorkerChurnConfig,
    make_churn_worker_fleet,
    make_hot_cell_task_stream,
    make_rush_hour_task_stream,
    make_task_stream,
    make_worker_fleet,
)
from repro.tools import check_keys


@dataclass(frozen=True)
class GeneratorEntry:
    """One registered generator: config schema + factories."""

    config_cls: type
    make_tasks: Callable
    make_workers: Callable
    description: str


GENERATORS: dict[str, GeneratorEntry] = {
    "uniform": GeneratorEntry(
        StreamConfig,
        make_task_stream,
        make_worker_fleet,
        "homogeneous Poisson arrivals, waypoint-routine fleet",
    ),
    "hot_cell_burst": GeneratorEntry(
        HotCellBurstConfig,
        make_hot_cell_task_stream,
        make_worker_fleet,
        "uniform stream with demand bursts concentrated in seeded hot cells",
    ),
    "rush_hour": GeneratorEntry(
        RushHourConfig,
        make_rush_hour_task_stream,
        make_worker_fleet,
        "arrival density with AM/PM rush-hour waves over a uniform floor",
    ),
    "worker_churn": GeneratorEntry(
        WorkerChurnConfig,
        make_task_stream,
        make_churn_worker_fleet,
        "uniform arrivals over a fleet with a short-shift churning tail",
    ),
}


def get_generator(name: str) -> GeneratorEntry:
    if name not in GENERATORS:
        raise ValueError(
            f"unknown generator '{name}' (available: {', '.join(sorted(GENERATORS))})"
        )
    return GENERATORS[name]


def stream_config_for(spec: ScenarioSpec):
    """The generator config a scenario spec resolves to.

    Params are validated against the generator's config dataclass, so a
    typo'd param names itself and the allowed fields.
    """
    entry = get_generator(spec.generator)
    allowed = [f.name for f in fields(entry.config_cls) if f.name != "seed"]
    check_keys(f"scenario.params ({spec.generator})", spec.params, allowed)
    return entry.config_cls(**spec.params, seed=spec.seed)


@dataclass(frozen=True)
class ScenarioData:
    """A materialised scenario: the deterministic inputs of one run."""

    tasks: Sequence[SpatialTask]
    workers: Sequence[Worker]
    provider: DeadReckoningProvider
    t_start: float
    t_end: float


def materialize(spec: ScenarioSpec) -> ScenarioData:
    """Resolve a scenario spec to its data (same spec → identical data)."""
    entry = get_generator(spec.generator)
    cfg = stream_config_for(spec)
    return ScenarioData(
        tasks=entry.make_tasks(cfg),
        workers=entry.make_workers(cfg),
        provider=DeadReckoningProvider(seed=spec.seed),
        t_start=cfg.t_start,
        t_end=cfg.t_end,
    )


# ----------------------------------------------------------------------
# Built-in scenarios.  ``bench-*`` entries pin the stream shapes of the
# committed benchmark baselines — change them and the BENCH_*.json
# documents stop describing what the benches measure.

def _uniform(seed: int = 0, **params) -> ScenarioSpec:
    return ScenarioSpec(generator="uniform", seed=seed, params=params)


BUILTIN_SCENARIOS: dict[str, ScenarioSpec] = {
    "smoke": _uniform(
        seed=7, n_workers=40, n_tasks=80, t_end=20.0, width_km=10.0, height_km=10.0
    ),
    "serve-default": _uniform(
        seed=1, n_workers=200, n_tasks=400, t_end=60.0, width_km=20.0, height_km=20.0,
        detour_km=4.0,
    ),
    "hot-cell-burst": ScenarioSpec(
        generator="hot_cell_burst",
        seed=1,
        params=dict(
            n_workers=200, n_tasks=600, t_end=60.0, width_km=20.0, height_km=20.0,
            n_hot_cells=3, hot_fraction=0.7, burst_start=20.0, burst_minutes=15.0,
        ),
    ),
    "rush-hour": ScenarioSpec(
        generator="rush_hour",
        seed=1,
        params=dict(
            n_workers=200, n_tasks=600, t_end=60.0, width_km=20.0, height_km=20.0,
            peak_times=[15.0, 45.0], peak_sigma=4.0, peak_weight=0.7,
        ),
    ),
    "worker-churn": ScenarioSpec(
        generator="worker_churn",
        seed=1,
        params=dict(
            n_workers=300, n_tasks=500, t_end=60.0, width_km=20.0, height_km=20.0,
            churn_rate=0.4, short_shift_fraction=0.15,
        ),
    ),
    # --- committed bench stream shapes --------------------------------
    "bench-serve-guard": _uniform(
        n_workers=1000, n_tasks=400, t_end=1.0, valid_min=20.0, valid_max=40.0,
        width_km=40.0, height_km=40.0,
    ),
    "bench-serve-city": _uniform(
        n_workers=10_000, n_tasks=5_000, t_end=1.0, valid_min=20.0, valid_max=40.0,
        width_km=80.0, height_km=80.0,
    ),
    "bench-serve-engine": _uniform(
        seed=2, n_workers=800, n_tasks=1600, t_end=60.0, width_km=30.0, height_km=30.0,
    ),
    "bench-scale-warm": _uniform(
        n_workers=1000, n_tasks=400, t_end=1.0, valid_min=120.0, valid_max=150.0,
        width_km=40.0, height_km=40.0,
    ),
    "bench-scale-100k": _uniform(
        n_workers=100_000, n_tasks=20_000, t_end=1.0, valid_min=20.0, valid_max=40.0,
        width_km=250.0, height_km=250.0,
    ),
    "bench-dist-shard": _uniform(
        n_workers=2000, n_tasks=800, t_end=1.0, valid_min=20.0, valid_max=40.0,
        width_km=40.0, height_km=40.0,
    ),
}


BUILTIN_POLICIES: dict[str, PolicySpec] = {
    # The paper's batch loop: every serving feature off.
    "batch-parity": PolicySpec.from_dict({}),
    # The serve-sim CLI defaults.
    "serve-default": PolicySpec.from_dict({}),
    "indexed": PolicySpec.from_dict(
        {"index": {"enabled": True, "cell_km": 2.0}}
    ),
    "adaptive-indexed": PolicySpec.from_dict(
        {
            "trigger": {"kind": "adaptive", "pending_threshold": 50},
            "cache": {"ttl": 6.0},
            "index": {"enabled": True, "cell_km": 2.0},
        }
    ),
    # The loaded end-to-end run of benchmarks/bench_serve.py.
    "bench-serve-engine": PolicySpec.from_dict(
        {
            "trigger": {"kind": "adaptive", "pending_threshold": 120,
                        "deadline_slack": 1.0},
            "shedding": {"max_pending": 150},
            "cache": {"ttl": 6.0, "deviation_km": 2.0},
            "index": {"enabled": True, "cell_km": 2.0},
        }
    ),
    # Reactive baseline the forecast bench compares against: identical
    # to adaptive-indexed, named separately so the pairing is explicit.
    "reactive-adaptive": PolicySpec.from_dict(
        {
            "trigger": {"kind": "adaptive", "pending_threshold": 50},
            "cache": {"ttl": 6.0},
            "index": {"enabled": True, "cell_km": 2.0},
        }
    ),
    # Same reactive stack plus demand forecasting and proactive
    # pre-positioning (see docs/FORECASTING.md and bench_forecast.py).
    "forecast-prepositioned": PolicySpec.from_dict(
        {
            "trigger": {"kind": "adaptive", "pending_threshold": 50},
            "cache": {"ttl": 6.0},
            "index": {"enabled": True, "cell_km": 2.0},
            "forecast": {
                "enabled": True,
                "model": "ewma",
                "bin_minutes": 2.0,
                "grid_rows": 6,
                "grid_cols": 6,
                "prepositioning": True,
                "gap_threshold": 2.0,
                "max_moves": 4,
                "detour_fraction": 0.5,
                "cooldown_minutes": 4.0,
            },
        }
    ),
    "sharded-2": PolicySpec.from_dict(
        {"index": {"enabled": True, "cell_km": 2.0}, "dist": {"shards": 2}}
    ),
    "warm-sharded-2": PolicySpec.from_dict(
        {
            "index": {"enabled": True, "cell_km": 2.0},
            "dist": {"shards": 2, "warm_start": True},
        }
    ),
}


def get_scenario(name: str) -> ScenarioSpec:
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(
            f"unknown scenario '{name}' "
            f"(built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))})"
        )
    return BUILTIN_SCENARIOS[name]


def get_policy(name: str) -> PolicySpec:
    if name not in BUILTIN_POLICIES:
        raise ValueError(
            f"unknown policy '{name}' "
            f"(built-ins: {', '.join(sorted(BUILTIN_POLICIES))})"
        )
    return BUILTIN_POLICIES[name]


def resolve_run_spec(data: Mapping | RunSpec) -> RunSpec:
    """A :class:`RunSpec` from a document that may name built-ins.

    ``scenario``/``policy`` entries that are strings are looked up in
    the built-in registries; mapping entries parse as inline specs.
    """
    if isinstance(data, RunSpec):
        return data
    data = dict(data)
    scenario = data.get("scenario", {})
    if isinstance(scenario, str):
        data["scenario"] = get_scenario(scenario).to_dict()
    policy = data.get("policy", {})
    if isinstance(policy, str):
        data["policy"] = get_policy(policy).to_dict()
    return RunSpec.from_dict(data)
