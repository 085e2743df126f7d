"""Declarative scenario and policy specs.

A *scenario* is a parametric function of its spec — generator name +
params + seed → deterministic data (the CORTEX generator-dataset
pattern): the spec identifies the generator, the params are its
arguments, and two resolutions of the same spec are byte-identical.
A *policy* is everything the serving stack can be configured with —
trigger, shedding, cache, spatial index, assignment algorithm,
backend/shards — as one validated document, compiled to
``ServeConfig``/``DistConfig`` by :mod:`repro.scenarios.builders`.

Specs load from YAML or JSON (one mapping), dump back to plain dicts,
and round-trip exactly: ``load(dump(spec)) == spec``.  Every block is
validated with :func:`repro.tools.check_keys`, so an unknown key fails
with a ``ValueError`` naming the key and the allowed keys rather than
an opaque ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from repro.tools import check_keys, dataclass_from_mapping


def _block(cls, data: Mapping | None, owner: str):
    """One nested policy block: missing → defaults, mapping → validated."""
    if data is None:
        return cls()
    return dataclass_from_mapping(cls, data, owner=owner)


@dataclass(frozen=True)
class TriggerSpec:
    """When assignment batches fire (see :mod:`repro.serve.triggers`)."""

    kind: str = "fixed"
    window: float = 2.0
    pending_threshold: int | None = None
    deadline_slack: float | None = None
    min_interval: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "adaptive", "forecast"):
            raise ValueError("trigger kind must be 'fixed', 'adaptive', or 'forecast'")


@dataclass(frozen=True)
class SheddingSpec:
    """Pending-queue bound; overflow sheds the least-slack task."""

    max_pending: int | None = None


@dataclass(frozen=True)
class CacheSpec:
    """Prediction-cache freshness (TTL minutes, deviation invalidation)."""

    ttl: float = 0.0
    deviation_km: float | None = None


@dataclass(frozen=True)
class IndexSpec:
    """Uniform-grid candidate index feeding sparse assignment."""

    enabled: bool = False
    cell_km: float = 1.0
    max_candidates: int | None = None


@dataclass(frozen=True)
class DistSpec:
    """Where per-shard work runs (see :class:`repro.dist.DistConfig`)."""

    backend: str = "serial"
    shards: int = 1
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "shard_server"):
            raise ValueError("dist backend must be 'serial' or 'shard_server'")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")


@dataclass(frozen=True)
class ForecastSpec:
    """Demand forecasting + proactive dispatch (see :mod:`repro.forecast`).

    ``enabled`` gates the whole layer: a disabled block compiles to
    ``ServeConfig.forecast = None`` and the engine stays bit-identical
    to the seed.  The remaining knobs mirror
    :class:`repro.forecast.dispatch.ForecastConfig` (which performs the
    deep validation at compile time).
    """

    enabled: bool = False
    model: str = "ewma"
    bin_minutes: float = 2.0
    history_bins: int = 6
    horizon_bins: int = 1
    grid_rows: int = 8
    grid_cols: int = 8
    demand_threshold: float | None = None
    prepositioning: bool = False
    gap_threshold: float = 1.0
    max_moves: int = 4
    detour_fraction: float = 0.5
    cooldown_minutes: float = 4.0

    def __post_init__(self) -> None:
        if self.model not in ("ewma", "seasonal_naive", "seq2seq"):
            raise ValueError(
                "forecast model must be 'ewma', 'seasonal_naive', or 'seq2seq'"
            )


_POLICY_BLOCKS = {
    "trigger": TriggerSpec,
    "shedding": SheddingSpec,
    "cache": CacheSpec,
    "index": IndexSpec,
    "dist": DistSpec,
    "forecast": ForecastSpec,
}


@dataclass(frozen=True)
class PolicySpec:
    """One serving policy: algorithm + every engine/dist knob."""

    algorithm: str = "ppi"
    assignment_window: float | None = 10.0
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    shedding: SheddingSpec = field(default_factory=SheddingSpec)
    cache: CacheSpec = field(default_factory=CacheSpec)
    index: IndexSpec = field(default_factory=IndexSpec)
    dist: DistSpec = field(default_factory=DistSpec)
    forecast: ForecastSpec = field(default_factory=ForecastSpec)

    def __post_init__(self) -> None:
        if self.algorithm not in ("ppi", "km"):
            raise ValueError("algorithm must be 'ppi' or 'km'")
        if self.trigger.kind == "forecast" and not self.forecast.enabled:
            raise ValueError(
                "trigger kind 'forecast' requires the forecast block "
                "to be enabled"
            )

    @classmethod
    def from_dict(cls, data: Mapping, owner: str = "policy") -> "PolicySpec":
        check_keys(owner, data, ["algorithm", "assignment_window", *_POLICY_BLOCKS])
        blocks = {
            name: _block(block_cls, data.get(name), owner=f"{owner}.{name}")
            for name, block_cls in _POLICY_BLOCKS.items()
        }
        return cls(
            algorithm=data.get("algorithm", "ppi"),
            assignment_window=data.get("assignment_window", 10.0),
            **blocks,
        )

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "assignment_window": self.assignment_window,
            **{
                name: {
                    f.name: getattr(getattr(self, name), f.name)
                    for f in fields(_POLICY_BLOCKS[name])
                }
                for name in _POLICY_BLOCKS
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
