"""Declarative scenario and policy specs.

A *scenario* is a parametric function of its spec — generator name +
params + seed → deterministic data (the CORTEX generator-dataset
pattern): the spec identifies the generator, the params are its
arguments, and two resolutions of the same spec are byte-identical.
A *policy* is everything the serving stack can be configured with —
trigger, shedding, cache, spatial index, forecasting, assignment
algorithm, backend/shards — as one document that loads straight into
the engine's own :class:`~repro.serve.ServeConfig` (whose ``forecast``
holds a :class:`~repro.forecast.dispatch.ForecastConfig`) plus a
:class:`~repro.dist.DistConfig`.  The engine configs own every serving
default and every value check; the document only renames their fields
(see :data:`SERVE_KEYS`, :data:`FORECAST_KEYS` and :data:`DIST_KEYS`).

Specs load from YAML or JSON (one mapping), dump back to plain dicts,
and round-trip exactly: ``load(dump(spec)) == spec``.  Every block is
validated with :func:`repro.tools.check_keys`, so an unknown key fails
with a ``ValueError`` naming the key and the allowed keys, and a value
the engine config rejects fails at load with a ``ValueError`` naming
its document path (``policy.trigger.window``) and the engine's reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from repro.dist import DistConfig
from repro.forecast.dispatch import ForecastConfig
from repro.serve.engine import ServeConfig
from repro.tools import check_keys

#: Policy document key → :class:`ServeConfig` field, block by block.
#: Keys apply in this order, so the trigger kind is set before the
#: knobs it validates.
SERVE_KEYS: dict[str, dict[str, str]] = {
    "trigger": {
        "kind": "trigger",
        "window": "batch_window",
        "pending_threshold": "pending_threshold",
        "deadline_slack": "deadline_slack",
        "min_interval": "min_trigger_interval",
    },
    "shedding": {"max_pending": "max_pending"},
    "cache": {"ttl": "cache_ttl", "deviation_km": "cache_deviation_km"},
    "index": {
        "enabled": "use_index",
        "cell_km": "index_cell_km",
        "max_candidates": "max_candidates",
    },
}

#: The :class:`ForecastConfig` fields a policy's ``forecast`` block sets
#: (same names).  Its ``enabled`` key decides whether the engine gets a
#: forecast config at all; the other config fields keep their defaults.
FORECAST_KEYS = (
    "model",
    "bin_minutes",
    "history_bins",
    "horizon_bins",
    "grid_rows",
    "grid_cols",
    "demand_threshold",
    "prepositioning",
    "gap_threshold",
    "max_moves",
    "detour_fraction",
    "cooldown_minutes",
)

#: The :class:`DistConfig` fields a policy's ``dist`` block sets (same
#: names); the server log, telemetry spool and start method are per run.
DIST_KEYS = ("backend", "shards", "warm_start")


def _block(data: Mapping, name: str, allowed, owner: str) -> Mapping:
    """One nested policy block, key-checked; missing or null → empty."""
    block = data.get(name)
    if block is None:
        return {}
    check_keys(f"{owner}.{name}", block, list(allowed))
    return block


def _apply(config, updates, owner: str):
    """``config`` with each ``(key, field, value)`` of ``updates`` set in turn.

    Every step re-runs the config's own checks; a value they reject (by
    range or by type) raises a ``ValueError`` naming ``owner.key``.
    """
    for key, name, value in updates:
        try:
            config = replace(config, **{name: value})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{owner}.{key}: {exc}") from exc
    return config


@dataclass(frozen=True)
class PolicySpec:
    """One serving policy: algorithm + the engine's config + sharding.

    ``serve`` is the :class:`ServeConfig` the engine runs with (minus
    the per-run ``monitor``/``decisions`` sinks the builders add) and
    ``dist`` the :class:`DistConfig` a sharded engine runs with (minus
    the per-run ``spool_dir``), so a policy carries no defaults or
    checks of its own.
    """

    algorithm: str = "ppi"
    serve: ServeConfig = field(default_factory=ServeConfig)
    dist: DistConfig = field(default_factory=DistConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in ("ppi", "km"):
            raise ValueError("algorithm must be 'ppi' or 'km'")
        # Sharding turns the index on itself; one shard without it would
        # run the dense assign function and never read the warm state.
        if self.dist.warm_start and self.dist.shards == 1 and not self.serve.use_index:
            raise ValueError("policy.dist.warm_start: needs index.enabled on a single shard")

    @classmethod
    def from_dict(cls, data: Mapping, owner: str = "policy") -> "PolicySpec":
        check_keys(
            owner, data, ["algorithm", "assignment_window", *SERVE_KEYS, "dist", "forecast"]
        )
        block = _block(data, "forecast", ["enabled", *FORECAST_KEYS], owner)
        forecast = _apply(
            ForecastConfig(),
            [(f"forecast.{key}", key, block[key]) for key in FORECAST_KEYS if key in block],
            owner,
        )
        # The forecast config goes in first: the 'forecast' trigger needs it.
        serve = ServeConfig(forecast=forecast if block.get("enabled", False) else None)
        updates = []
        if "assignment_window" in data:
            updates.append(("assignment_window", "assignment_window", data["assignment_window"]))
        for name, keys in SERVE_KEYS.items():
            block = _block(data, name, keys, owner)
            updates += [
                (f"{name}.{key}", attr, block[key])
                for key, attr in keys.items()
                if key in block
            ]
        block = _block(data, "dist", DIST_KEYS, owner)
        return cls(
            algorithm=data.get("algorithm", cls.algorithm),
            serve=_apply(serve, updates, owner),
            dist=_apply(
                DistConfig(),
                [(f"dist.{key}", key, block[key]) for key in DIST_KEYS if key in block],
                owner,
            ),
        )

    def to_dict(self) -> dict:
        serve = self.serve
        forecast = serve.forecast or ForecastConfig()
        return {
            "algorithm": self.algorithm,
            "assignment_window": serve.assignment_window,
            **{
                name: {key: getattr(serve, attr) for key, attr in keys.items()}
                for name, keys in SERVE_KEYS.items()
            },
            "dist": {key: getattr(self.dist, key) for key in DIST_KEYS},
            "forecast": {
                "enabled": serve.forecast is not None,
                **{key: getattr(forecast, key) for key in FORECAST_KEYS},
            },
        }


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: generator name + params + seed → deterministic data.

    ``params`` are the generator's config fields (validated against the
    registered config dataclass at resolution time); the seed lives at
    the scenario level so sweeping it never needs to know which
    generator is under it.
    """

    generator: str = "uniform"
    seed: int = 0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping, owner: str = "scenario") -> "ScenarioSpec":
        check_keys(owner, data, ["generator", "seed", "params"])
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(f"{owner}.params must be a mapping")
        if "seed" in params:
            raise ValueError(
                f"set the seed at the {owner} level, not inside {owner}.params"
            )
        return cls(
            generator=data.get("generator", "uniform"),
            seed=int(data.get("seed", 0)),
            params=dict(params),
        )

    def to_dict(self) -> dict:
        return {
            "generator": self.generator,
            "seed": self.seed,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class RunSpec:
    """A full runnable document: scenario × policy (+ optional sweep).

    ``sweep`` maps dotted override paths (``scenario.params.n_tasks``,
    ``policy.trigger.kind``) to the list of values each cell takes; the
    grid is their cross product (see :mod:`repro.scenarios.sweep`).
    """

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    name: str | None = None
    sweep: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        check_keys("spec", data, ["name", "scenario", "policy", "sweep"])
        sweep = data.get("sweep", {})
        if not isinstance(sweep, Mapping):
            raise ValueError("spec.sweep must be a mapping of path -> list of values")
        sweep = {str(k): list(v) for k, v in sweep.items()}
        for path, values in sweep.items():
            if not values:
                raise ValueError(f"sweep axis '{path}' has no values")
        scenario = data.get("scenario", {})
        policy = data.get("policy", {})
        # Built-in names are resolved one layer up (repro.scenarios.registry);
        # at this layer a string is an error with a pointer there.
        if isinstance(scenario, str) or isinstance(policy, str):
            raise ValueError(
                "scenario/policy names must be resolved through "
                "repro.scenarios.registry.resolve_run_spec"
            )
        return cls(
            scenario=ScenarioSpec.from_dict(scenario),
            policy=PolicySpec.from_dict(policy),
            name=data.get("name"),
            sweep=sweep,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "policy": self.policy.to_dict(),
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }


# ----------------------------------------------------------------------
# File I/O: YAML when available (and for .yaml/.yml paths), JSON always.

def _parse_text(text: str, path: Path) -> dict:
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - yaml ships in the image
            raise ValueError(
                f"{path} is YAML but PyYAML is not installed; use a .json spec"
            ) from exc
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"spec file {path} must contain one mapping document")
    return dict(data)


def load_spec(path: str | Path) -> RunSpec:
    """Load a :class:`RunSpec` from a YAML or JSON file.

    Built-in scenario/policy *names* inside the file are resolved via
    the registry (import-cycle-free: the registry imports this module).
    """
    from repro.scenarios.registry import resolve_run_spec

    path = Path(path)
    return resolve_run_spec(_parse_text(path.read_text(), path))


def dump_spec(spec: RunSpec, path: str | Path | None = None) -> dict:
    """Serialise a spec back to its plain-dict document form.

    With ``path`` given the document is also written there (YAML for
    ``.yaml``/``.yml``, JSON otherwise); ``load_spec`` of that file
    returns an equal spec.
    """
    document = spec.to_dict()
    if path is not None:
        path = Path(path)
        if path.suffix.lower() in (".yaml", ".yml"):
            import yaml

            path.write_text(yaml.safe_dump(document, sort_keys=False))
        else:
            path.write_text(json.dumps(document, indent=2) + "\n")
    return document


def parse_sweep_arg(arg: str) -> tuple[str, list]:
    """Parse one CLI ``--sweep path=v1,v2,...`` argument.

    Values go through JSON parsing first (so ``2``, ``2.5``, ``true``,
    ``null`` become typed) and fall back to plain strings (``adaptive``).
    """
    if "=" not in arg:
        raise ValueError(f"--sweep expects path=v1,v2,..., got '{arg}'")
    path, _, raw = arg.partition("=")
    path = path.strip()
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    if not path or not values:
        raise ValueError(f"--sweep expects path=v1,v2,..., got '{arg}'")
    return path, values
