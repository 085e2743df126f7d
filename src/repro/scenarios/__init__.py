"""repro.scenarios — declarative scenario × policy registry + sweep runner.

One spec document names a data scenario (generator + params + seed →
deterministic streams), a serving policy (algorithm, the engine's own
``ServeConfig`` loaded from the trigger/shedding/cache/index/forecast
blocks, and backend/shards), and an
optional sweep grid; ``repro-tamp scenarios run`` executes the grid and
leaves one comparable run manifest per cell.  See ``docs/SCENARIOS.md``.
"""

from repro.scenarios.builders import (
    assign_fn,
    build_engine,
    build_serve_config,
    policy_from_args,
    run_scenario,
    scenario_from_args,
)
from repro.scenarios.registry import (
    BUILTIN_POLICIES,
    BUILTIN_SCENARIOS,
    GENERATORS,
    GeneratorEntry,
    ScenarioData,
    get_generator,
    get_policy,
    get_scenario,
    materialize,
    resolve_run_spec,
    stream_config_for,
)
from repro.scenarios.report import (
    decision_diff_tables,
    load_cell_manifests,
    render_table,
    report_payload,
    rows_from_manifests,
)
from repro.scenarios.specs import (
    PolicySpec,
    RunSpec,
    ScenarioSpec,
    dump_spec,
    load_spec,
    parse_sweep_arg,
)
from repro.scenarios.sweep import (
    Cell,
    decisions_path,
    expand_cells,
    manifest_path,
    run_cell,
    run_sweep,
    set_path,
    signature_digest,
)

__all__ = [
    "BUILTIN_POLICIES",
    "BUILTIN_SCENARIOS",
    "Cell",
    "GENERATORS",
    "GeneratorEntry",
    "PolicySpec",
    "RunSpec",
    "ScenarioData",
    "ScenarioSpec",
    "assign_fn",
    "build_engine",
    "build_serve_config",
    "decision_diff_tables",
    "decisions_path",
    "dump_spec",
    "expand_cells",
    "get_generator",
    "get_policy",
    "get_scenario",
    "load_cell_manifests",
    "load_spec",
    "manifest_path",
    "materialize",
    "parse_sweep_arg",
    "policy_from_args",
    "render_table",
    "report_payload",
    "resolve_run_spec",
    "rows_from_manifests",
    "run_cell",
    "run_scenario",
    "run_sweep",
    "scenario_from_args",
    "set_path",
    "signature_digest",
    "stream_config_for",
]
