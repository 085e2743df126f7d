"""Compile specs to engines — the one flags/specs → engine path.

Everything that turns a :class:`~repro.scenarios.specs.PolicySpec` into
runnable machinery lives here: the run's ``ServeConfig`` (the policy's
own, plus the per-run monitor and decision-log sinks), the sharded
engine's ``DistConfig`` (the policy's, plus the per-run telemetry
spool), assignment-function selection, and engine assembly
(serial :class:`~repro.serve.ServeEngine` or sharded
:class:`~repro.dist.ShardedEngine`).  ``repro.cli serve-sim``, the
``scenarios run`` sweep runner, and the benches all build through these
functions, so a policy knob behaves identically no matter which door
the run came in through.

``scenario_from_args`` / ``policy_from_args`` lift an argparse
namespace (the shared serve flag group in :mod:`repro.cli`) into specs;
the policy flags become a policy document loaded through
:meth:`~repro.scenarios.specs.PolicySpec.from_dict`, the same path a
spec file takes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.scenarios.registry import ScenarioData, materialize
from repro.scenarios.specs import PolicySpec, ScenarioSpec
from repro.serve import ServeConfig, ServeEngine


def assign_fn(algorithm: str) -> Callable:
    """The assignment entry point of an algorithm (dense or candidate)."""
    from repro.assignment.baselines import km_assign
    from repro.assignment.ppi import ppi_assign

    try:
        return {"ppi": ppi_assign, "km": km_assign}[algorithm]
    except KeyError:
        raise ValueError(f"unknown assignment algorithm '{algorithm}'") from None


def build_serve_config(policy: PolicySpec, monitor=None, decisions=None) -> ServeConfig:
    """The policy's :class:`ServeConfig` with this run's monitor/decision sinks."""
    return replace(policy.serve, monitor=monitor, decisions=decisions)


def build_engine(
    workers, provider, policy: PolicySpec, monitor=None, spool_dir=None, decisions=None
):
    """Assemble the engine a policy asks for.

    Returns a :class:`ServeEngine` for single-shard policies and a
    :class:`repro.dist.ShardedEngine` running ``policy.dist`` when
    ``policy.dist.shards > 1`` (the caller owns ``engine.close()``).
    ``spool_dir`` is where shard servers spool telemetry while a trace
    is active (``shard_server`` policies only).  Warm-started
    single-shard policies route through the component matcher,
    mirroring the sharded path so ``warm_start`` means the same thing at
    every shard count.
    """
    assign = assign_fn(policy.algorithm)
    config = build_serve_config(policy, monitor=monitor, decisions=decisions)
    sharded = policy.dist.shards > 1
    candidate_fn = assign
    if sharded or policy.dist.warm_start:
        from repro.dist import component_candidate_assign

        candidate_fn = component_candidate_assign(assign, warm_start=policy.dist.warm_start)
    if sharded:
        from repro.dist import ShardedEngine

        return ShardedEngine(
            workers,
            provider,
            config,
            assign_fn=assign,
            candidate_assign_fn=candidate_fn,
            dist=replace(policy.dist, spool_dir=spool_dir),
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


#: serve-sim policy flag → policy document path.  A flag left unset
#: (``None``) stays out of the document, so the engine config's own
#: default applies.
_FLAG_PATHS = (
    ("algorithm", "algorithm"),
    ("assignment_window", "assignment_window"),
    ("trigger", "trigger.kind"),
    ("batch_window", "trigger.window"),
    ("pending_threshold", "trigger.pending_threshold"),
    ("deadline_slack", "trigger.deadline_slack"),
    ("max_pending", "shedding.max_pending"),
    ("cache_ttl", "cache.ttl"),
    ("cache_deviation", "cache.deviation_km"),
    ("use_index", "index.enabled"),
    ("index_cell", "index.cell_km"),
    ("max_candidates", "index.max_candidates"),
    ("shards", "dist.shards"),
    ("warm_start", "dist.warm_start"),
    ("forecast", "forecast.model"),
    ("prepositioning", "forecast.prepositioning"),
    ("forecast_bin", "forecast.bin_minutes"),
    ("forecast_grid", "forecast.grid_rows"),
    ("forecast_grid", "forecast.grid_cols"),
    ("forecast_threshold", "forecast.demand_threshold"),
    ("forecast_gap", "forecast.gap_threshold"),
    ("forecast_moves", "forecast.max_moves"),
)


def policy_from_args(args) -> PolicySpec:
    """The ``PolicySpec`` of the serve-sim policy flags actually given.

    The flags build a policy document that loads through
    :meth:`PolicySpec.from_dict`, so flag values are checked exactly as
    spec-file values are.  ``--shard-servers`` selects the
    ``shard_server`` backend; the forecast layer turns on when any of
    ``--forecast``, ``--prepositioning``, or ``--trigger forecast`` is
    given.
    """
    doc: dict = {}
    for flag, path in _FLAG_PATHS:
        value = getattr(args, flag)
        if value is not None:
            block, _, key = path.rpartition(".")
            (doc.setdefault(block, {}) if block else doc)[key] = value
    if args.shard_servers:
        doc.setdefault("dist", {})["backend"] = "shard_server"
    if args.forecast or args.prepositioning or args.trigger == "forecast":
        doc.setdefault("forecast", {})["enabled"] = True
    return PolicySpec.from_dict(doc)
