"""Compile specs to engine configs — the one flags/specs → engine path.

Everything that turns a :class:`~repro.scenarios.specs.PolicySpec` into
runnable machinery lives here: ``ServeConfig``/``DistConfig``
construction, assignment-function selection, and engine assembly
(serial :class:`~repro.serve.ServeEngine` or sharded
:class:`~repro.dist.ShardedEngine`).  ``repro.cli serve-sim``, the
``scenarios run`` sweep runner, and the benches all build through these
functions, so a policy knob behaves identically no matter which door
the run came in through.

``scenario_from_args`` / ``policy_from_args`` lift an argparse
namespace (the shared serve flag group in :mod:`repro.cli`) into specs,
collapsing the old per-command flag plumbing into one translation.
"""

from __future__ import annotations

from typing import Callable

from repro.scenarios.registry import ScenarioData, materialize
from repro.scenarios.specs import (
    CacheSpec,
    DistSpec,
    ForecastSpec,
    IndexSpec,
    PolicySpec,
    ScenarioSpec,
    SheddingSpec,
    TriggerSpec,
)
from repro.serve import ServeConfig, ServeEngine


def build_forecast_config(policy: PolicySpec):
    """The :class:`repro.forecast.dispatch.ForecastConfig` of a policy,
    or ``None`` when its forecast block is disabled."""
    spec = policy.forecast
    if not spec.enabled:
        return None
    from repro.forecast.dispatch import ForecastConfig

    return ForecastConfig(
        model=spec.model,
        bin_minutes=spec.bin_minutes,
        history_bins=spec.history_bins,
        horizon_bins=spec.horizon_bins,
        grid_rows=spec.grid_rows,
        grid_cols=spec.grid_cols,
        demand_threshold=spec.demand_threshold,
        prepositioning=spec.prepositioning,
        gap_threshold=spec.gap_threshold,
        max_moves=spec.max_moves,
        detour_fraction=spec.detour_fraction,
        cooldown_minutes=spec.cooldown_minutes,
    )


def assign_fn(algorithm: str) -> Callable:
    """The assignment entry point of an algorithm (dense or candidate)."""
    from repro.assignment.baselines import km_assign
    from repro.assignment.ppi import ppi_assign

    try:
        return {"ppi": ppi_assign, "km": km_assign}[algorithm]
    except KeyError:
        raise ValueError(f"unknown assignment algorithm '{algorithm}'") from None


def build_serve_config(policy: PolicySpec, monitor=None, decisions=None) -> ServeConfig:
    """The :class:`ServeConfig` a policy spec compiles to."""
    return ServeConfig(
        batch_window=policy.trigger.window,
        assignment_window=policy.assignment_window,
        trigger=policy.trigger.kind,
        pending_threshold=policy.trigger.pending_threshold,
        deadline_slack=policy.trigger.deadline_slack,
        min_trigger_interval=policy.trigger.min_interval,
        max_pending=policy.shedding.max_pending,
        cache_ttl=policy.cache.ttl,
        cache_deviation_km=policy.cache.deviation_km,
        use_index=policy.index.enabled,
        index_cell_km=policy.index.cell_km,
        max_candidates=policy.index.max_candidates,
        monitor=monitor,
        decisions=decisions,
        forecast=build_forecast_config(policy),
    )


def build_dist_config(policy: PolicySpec, spool_dir=None):
    """The :class:`repro.dist.DistConfig` of a sharded policy, else None.

    ``spool_dir`` is where shard servers spool telemetry while a trace
    is active (``shard_server`` policies only).
    """
    if policy.dist.shards <= 1:
        return None
    from repro.dist import DistConfig

    return DistConfig(
        backend=policy.dist.backend,
        shards=policy.dist.shards,
        warm_start=policy.dist.warm_start,
        spool_dir=spool_dir,
    )


def build_engine(
    workers, provider, policy: PolicySpec, monitor=None, spool_dir=None, decisions=None
):
    """Assemble the engine a policy asks for.

    Returns a :class:`ServeEngine` for single-shard policies and a
    :class:`repro.dist.ShardedEngine` when ``policy.dist.shards > 1``
    (the caller owns ``engine.close()``).  Warm-started single-shard
    policies route through the component matcher, mirroring the sharded
    path so ``warm_start`` means the same thing at every shard count.
    """
    assign = assign_fn(policy.algorithm)
    config = build_serve_config(policy, monitor=monitor, decisions=decisions)
    dist = build_dist_config(policy, spool_dir=spool_dir)
    candidate_fn = assign
    if dist is not None or policy.dist.warm_start:
        from repro.dist import component_candidate_assign

        candidate_fn = component_candidate_assign(assign, warm_start=policy.dist.warm_start)
    if dist is not None:
        from repro.dist import ShardedEngine

        return ShardedEngine(
            workers,
            provider,
            config,
            assign_fn=assign,
            candidate_assign_fn=candidate_fn,
            dist=dist,
        )
    return ServeEngine(
        workers,
        provider,
        config,
        assign_fn=assign,
        candidate_assign_fn=candidate_fn,
    )


def run_scenario(scenario: ScenarioSpec, policy: PolicySpec, monitor=None, decisions=None):
    """Materialise a scenario, run it under a policy, return the result.

    The single entry point behind ``scenarios run`` cells and the
    spec-driven benches: one call owns engine lifetime (sharded engines
    are closed) and returns the engine's ``ServeResult``.
    """
    data: ScenarioData = materialize(scenario)
    engine = build_engine(
        data.workers,
        data.provider,
        policy,
        monitor=monitor,
        decisions=decisions,
    )
    try:
        return engine.run(data.tasks, data.t_start, data.t_end)
    finally:
        if policy.dist.shards > 1:
            engine.close()


# ----------------------------------------------------------------------
# argparse → specs: the translation the CLI's shared flag group uses.

def scenario_from_args(args) -> ScenarioSpec:
    """The ``ScenarioSpec`` equivalent of the serve-sim stream flags."""
    return ScenarioSpec(
        generator="uniform",
        seed=args.seed,
        params=dict(
            n_workers=args.n_workers,
            n_tasks=args.n_tasks,
            t_end=args.horizon,
            width_km=args.extent,
            height_km=args.extent,
            detour_km=args.detour,
        ),
    )


def policy_from_args(args) -> PolicySpec:
    """The ``PolicySpec`` equivalent of the serve-sim policy flags."""
    return PolicySpec(
        algorithm=args.algorithm,
        assignment_window=args.assignment_window,
        trigger=TriggerSpec(
            kind=args.trigger,
            window=args.batch_window,
            pending_threshold=args.pending_threshold,
            deadline_slack=args.deadline_slack,
        ),
        shedding=SheddingSpec(max_pending=args.max_pending),
        cache=CacheSpec(ttl=args.cache_ttl, deviation_km=args.cache_deviation),
        index=IndexSpec(
            enabled=args.use_index,
            cell_km=args.index_cell,
            max_candidates=args.max_candidates,
        ),
        dist=DistSpec(
            backend="shard_server" if args.shard_servers else "serial",
            shards=args.shards,
            warm_start=args.warm_start,
        ),
        forecast=forecast_from_args(args),
    )


def forecast_from_args(args) -> ForecastSpec:
    """The ``ForecastSpec`` of the serve-sim forecast flags.

    The layer turns on when any of ``--forecast``, ``--prepositioning``,
    or ``--trigger forecast`` is given; a model named nowhere defaults
    to ``ewma``.
    """
    model = getattr(args, "forecast", None)
    prepositioning = bool(getattr(args, "prepositioning", False))
    enabled = model is not None or prepositioning or args.trigger == "forecast"
    if not enabled:
        return ForecastSpec()
    return ForecastSpec(
        enabled=True,
        model=model if model is not None else "ewma",
        bin_minutes=getattr(args, "forecast_bin", 2.0),
        grid_rows=getattr(args, "forecast_grid", 8),
        grid_cols=getattr(args, "forecast_grid", 8),
        demand_threshold=getattr(args, "forecast_threshold", None),
        prepositioning=prepositioning,
        gap_threshold=getattr(args, "forecast_gap", 1.0),
        max_moves=getattr(args, "forecast_moves", 4),
    )
