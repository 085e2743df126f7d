"""Command-line interface: run TAMP experiments without writing code.

Examples::

    python -m repro.cli predict --algorithm gttaml --workload porto-didi
    python -m repro.cli assign --algorithm ppi --n-tasks 300 --detour 6
    python -m repro.cli assign --algorithm ppi --trace run.trace.jsonl
    python -m repro.cli trace-report run.trace.jsonl
    python -m repro.cli compare --workload porto-didi --json
    python -m repro.cli serve-sim --n-workers 2000 --n-tasks 1000 --use-index \
        --trigger adaptive --pending-threshold 50 --cache-ttl 6
    python -m repro.cli serve-sim --monitor run.series.jsonl \
        --monitor-cadence 4 --openmetrics run.om
    python -m repro.cli serve-report run.series.jsonl
    python -m repro.cli serve-sim --shards 4 --shard-servers --trace run.trace.jsonl
    python -m repro.cli trace-report run.trace.jsonl --distributed
    python -m repro.cli collect-results

The CLI drives the same pipeline as the benches, at whatever scale the
flags request.  ``--trace PATH`` records the run as a JSONL span trace
plus a run manifest (config, seed, git SHA, final metrics) next to it;
``trace-report`` renders the per-stage breakdown.  ``serve-sim --shards
K`` serves through K x-stripes, built in process or, with
``--shard-servers``, on long-lived shard servers.  Traced shard-server
runs additionally spool per-shard telemetry into ``<trace>.spools`` and
``trace-report --distributed`` merges that trace's spools into one
timeline with a per-round straggler and critical-path breakdown.
``serve-sim --monitor PATH`` samples the engine's metrics on a cadence
into a JSONL time series (optionally exposing OpenMetrics via
``--openmetrics`` / ``--monitor-port``) and ``serve-report`` renders it
as a per-phase dashboard.  ``collect-results`` rebuilds
``benchmarks/RESULTS.md`` from the paper benches' artefacts.  ``--json``
switches every subcommand's stdout to one machine-readable JSON
document.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro.meta.maml import MAMLConfig
from repro.obs import JsonlSink, Reporter, RunManifest, manifest_path_for, render_report
from repro.pipeline import (
    ASSIGNMENT_ALGORITHMS,
    AssignmentConfig,
    PredictionConfig,
    WorkloadSpec,
    evaluate_prediction,
    make_workload,
    run_assignment,
    train_predictor,
)
from repro.pipeline.workloads import WORKLOADS
from repro.tools import collect_results

PREDICTION_ALGORITHMS = ("maml", "ctml", "gttaml", "gttaml_gt")
#: The paper benches' text artefacts, which ``collect-results`` stitches.
RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tamp",
        description="TAMP reproduction: mobility prediction-aware task assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=sorted(WORKLOADS), default="porto-didi")
        p.add_argument("--n-workers", type=int, default=12)
        p.add_argument("--n-tasks", type=int, default=300)
        p.add_argument("--n-train-days", type=int, default=5)
        p.add_argument("--detour", type=float, default=4.0, help="worker detour budget (km)")
        p.add_argument("--seed", type=int, default=1)
        add_output_flags(p)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit one JSON document instead of text")
        p.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="record a JSONL span trace to PATH (a run manifest is written next to it)",
        )

    predict = sub.add_parser("predict", help="train a mobility predictor and report RMSE/MAE/MR/TT")
    add_workload_flags(predict)
    predict.add_argument("--algorithm", choices=PREDICTION_ALGORITHMS, default="gttaml")
    predict.add_argument("--loss", choices=("mse", "task_oriented"), default="mse")
    predict.add_argument("--iterations", type=int, default=15)

    assign = sub.add_parser("assign", help="simulate one assignment algorithm over a day")
    add_workload_flags(assign)
    assign.add_argument("--algorithm", choices=ASSIGNMENT_ALGORITHMS, default="ppi")
    assign.add_argument("--loss", choices=("mse", "task_oriented"), default="task_oriented")
    assign.add_argument("--iterations", type=int, default=10)

    compare = sub.add_parser("compare", help="run all assignment algorithms and print the comparison")
    add_workload_flags(compare)
    compare.add_argument("--iterations", type=int, default=10)

    report = sub.add_parser("trace-report", help="render the per-stage breakdown of a trace file")
    report.add_argument("trace_file", help="JSONL trace written by --trace")
    report.add_argument("--json", action="store_true", help="emit the aggregates as JSON")
    report.add_argument("--distributed", action="store_true",
                        help="merge per-process telemetry spools into the timeline and "
                             "append the per-round straggler/critical-path breakdown")
    report.add_argument("--spool-dir", metavar="DIR", default=None,
                        help="spool directory (default: the run manifest's spool_dir, "
                             "else <trace>.spools)")

    def add_stream_flags(p: argparse.ArgumentParser) -> None:
        """The synthetic-stream shape shared by serve-sim and scenarios run."""
        p.add_argument("--n-workers", type=int, default=200)
        p.add_argument("--n-tasks", type=int, default=400)
        p.add_argument("--horizon", type=float, default=60.0, help="minutes of simulated stream")
        p.add_argument("--extent", type=float, default=20.0, help="city extent (km, square)")
        p.add_argument("--detour", type=float, default=4.0, help="worker detour budget (km)")
        p.add_argument("--seed", type=int, default=1)

    def add_serve_policy_flags(p: argparse.ArgumentParser) -> None:
        """Every serving-policy knob, shared by serve-sim and scenarios run.

        One flag group → one PolicySpec translation
        (:func:`repro.scenarios.builders.policy_from_args`), so both
        commands compile flags to the engine identically.  The flags
        default to ``None``: only the flags given enter the policy
        document, and the engine configs supply every other default.
        """
        p.add_argument("--algorithm", choices=("ppi", "km"))
        p.add_argument("--batch-window", type=float)
        p.add_argument("--assignment-window", type=float)
        p.add_argument(
            "--trigger", choices=("fixed", "adaptive", "forecast"),
            help="batch trigger policy (adaptive fires early under load; "
                 "forecast adds predicted-demand pressure)",
        )
        p.add_argument("--pending-threshold", type=int)
        p.add_argument("--deadline-slack", type=float)
        p.add_argument(
            "--max-pending", type=int,
            help="bound the pending queue; overflow sheds the least-slack task",
        )
        p.add_argument("--cache-ttl", type=float,
                       help="prediction cache TTL (minutes)")
        p.add_argument("--cache-deviation", type=float,
                       help="invalidate cached predictions on check-in deviation beyond this (km)")
        p.add_argument("--use-index", action="store_true", default=None,
                       help="sparse candidate graph from the uniform-grid index")
        p.add_argument("--index-cell", type=float, help="grid cell size (km)")
        p.add_argument("--max-candidates", type=int,
                       help="keep only the k nearest candidate workers per task")
        p.add_argument("--shards", type=int,
                       help=">1 serves through the sharded engine (per-stripe candidate "
                            "builds merged to the identical dense plan)")
        p.add_argument("--shard-servers", action="store_true",
                       help="run the stripe builds on long-lived stateful shard processes "
                            "fed incremental deltas (with --shards; default: in process)")
        p.add_argument("--warm-start", action="store_true", default=None,
                       help="carry Hungarian dual potentials across batches; unchanged "
                            "components skip the solve (plans unchanged)")
        p.add_argument("--forecast", choices=("ewma", "seasonal_naive", "seq2seq"),
                       help="enable per-cell demand forecasting with this model "
                            "(see docs/FORECASTING.md)")
        p.add_argument("--prepositioning", action="store_true", default=None,
                       help="move idle workers toward predicted demand gaps between "
                            "batches (implies --forecast ewma unless a model is given)")
        p.add_argument("--forecast-bin", type=float,
                       help="demand time-bin width in minutes (with --forecast)")
        p.add_argument("--forecast-grid", type=int,
                       help="demand grid resolution per axis (with --forecast)")
        p.add_argument("--forecast-threshold", type=float,
                       help="predicted-pressure threshold of --trigger forecast: fire "
                            "when pending + predicted demand reaches this")
        p.add_argument("--forecast-gap", type=float,
                       help="minimum predicted supply/demand gap worth a move "
                            "(with --prepositioning)")
        p.add_argument("--forecast-moves", type=int,
                       help="pre-position move cap per batch (with --prepositioning)")

    serve = sub.add_parser(
        "serve-sim",
        help="stream a synthetic scenario through the event-driven serving engine",
    )
    add_stream_flags(serve)
    add_serve_policy_flags(serve)
    serve.add_argument("--spool-dir", metavar="DIR", default=None,
                       help="per-shard telemetry spool directory (with --shard-servers; "
                            "default with --trace: <trace>.spools)")
    serve.add_argument("--no-spool", action="store_true",
                       help="disable shard-server telemetry spooling even when --trace is set")
    serve.add_argument("--monitor", metavar="PATH", default=None,
                       help="sample engine metrics on a cadence into a JSONL time series")
    serve.add_argument("--monitor-cadence", type=float, default=2.0,
                       help="sampling period in simulated minutes (with --monitor)")
    serve.add_argument("--openmetrics", metavar="PATH", default=None,
                       help="keep an OpenMetrics exposition file current "
                            "(refreshed about once per wall second and at the end)")
    serve.add_argument("--monitor-port", type=int, default=None,
                       help="serve the exposition at http://localhost:PORT/metrics (0 = ephemeral)")
    serve.add_argument("--no-calibration", action="store_true",
                       help="disable calibration tracking in the monitor")
    serve.add_argument("--decisions", metavar="PATH", default=None,
                       help="append one decision-provenance record per task to PATH "
                            "(JSONL; drives the explain / run-diff commands)")
    serve.add_argument("--slo", action="append", default=[], metavar="SPEC",
                       help="declarative objective evaluated on every monitor sample, "
                            "e.g. 'assign_rate=serve.accepted/serve.assignments>=0.95' "
                            "or 'p99_batch=p99(serve.batch.latency_s)<=0.5'; repeatable "
                            "(implies monitoring)")
    add_output_flags(serve)

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative scenario × policy specs: run sweeps, list built-ins",
    )
    ssub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    s_run = ssub.add_parser(
        "run",
        help="run a spec file or a flag-built scenario × policy, optionally as a sweep grid",
    )
    s_run.add_argument("spec", nargs="?", default=None,
                       help="YAML/JSON run spec (built-in scenario/policy names allowed inside)")
    s_run.add_argument("--scenario", default=None,
                       help="built-in scenario name (replaces the stream flags)")
    s_run.add_argument("--policy", default=None,
                       help="built-in policy name (replaces the policy flags)")
    s_run.add_argument("--name", default=None, help="sweep name recorded in cell manifests")
    s_run.add_argument("--sweep", action="append", default=[], metavar="PATH=V1,V2",
                       help="add a sweep axis (dotted override path = comma-separated "
                            "values); repeatable, cells are the cross product")
    s_run.add_argument("--out", metavar="DIR", default=None,
                       help="write one run manifest per cell into DIR")
    s_run.add_argument("--cell-workers", type=int, default=1,
                       help="run grid cells on a pool of N forked processes "
                            "(1 runs them inline; results are bit-identical)")
    s_run.add_argument("--decisions", action="store_true",
                       help="write one decision log per cell next to its manifest "
                            "(needs --out); run-diff / scenarios-report join them")
    add_stream_flags(s_run)
    add_serve_policy_flags(s_run)
    s_run.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")

    s_list = ssub.add_parser("list", help="list generators and built-in scenarios/policies")
    s_list.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")

    s_show = ssub.add_parser(
        "show",
        help="resolve a spec (file, names, or flags) and print/dump its document",
    )
    s_show.add_argument("spec", nargs="?", default=None)
    s_show.add_argument("--scenario", default=None)
    s_show.add_argument("--policy", default=None)
    s_show.add_argument("--name", default=None)
    s_show.add_argument("--out", metavar="PATH", default=None,
                        help="also write the document (YAML for .yaml/.yml, else JSON)")
    add_stream_flags(s_show)
    add_serve_policy_flags(s_show)
    s_show.add_argument("--json", action="store_true")

    s_report = sub.add_parser(
        "scenarios-report",
        help="comparison table from a finished sweep's per-cell manifests",
    )
    s_report.add_argument("out_dir", help="directory `scenarios run --out` wrote manifests into")
    s_report.add_argument("--json", action="store_true",
                          help="emit one JSON document instead of text")

    serve_report = sub.add_parser(
        "serve-report",
        help="render a monitor time series as a per-phase dashboard",
    )
    serve_report.add_argument("series_file", help="JSONL series written by serve-sim --monitor")
    serve_report.add_argument("--phases", type=int, default=3,
                              help="number of contiguous phases to aggregate into")
    serve_report.add_argument("--top-cells", type=int, default=5,
                              help="rows in the worst-forecast-cells table "
                                   "(0 hides it; needs forecast.mae{cell=...} gauges)")
    serve_report.add_argument("--json", action="store_true",
                              help="emit the aggregates as JSON")

    explain = sub.add_parser(
        "explain",
        help="render one task's decision path from a run's decision log",
    )
    explain.add_argument("run", help="decision log, run manifest, or run directory")
    explain.add_argument("--task", type=int, required=True, help="task id to explain")
    explain.add_argument("--json", action="store_true",
                         help="emit the raw decision record as JSON")

    run_diff = sub.add_parser(
        "run-diff",
        help="attribute the completion delta between two runs to reason-code transitions",
    )
    run_diff.add_argument("run_a", help="baseline: decision log, manifest, or run directory")
    run_diff.add_argument("run_b", help="comparison: decision log, manifest, or run directory")
    run_diff.add_argument("--json", action="store_true",
                          help="emit the transition table as JSON")

    collect = sub.add_parser(
        "collect-results",
        help="assemble benchmarks/results/*.txt into benchmarks/RESULTS.md",
    )
    collect.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    collect.add_argument("--output", type=Path, default=None,
                         help="default: RESULTS.md beside the results directory")
    collect.add_argument("--json", action="store_true", help="emit a JSON summary instead of text")

    return parser


def _spec(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        n_workers=args.n_workers,
        n_tasks=args.n_tasks,
        n_train_days=args.n_train_days,
        detour_km=args.detour,
        seed=args.seed,
    )


def _prediction_config(args: argparse.Namespace, loss: str, algorithm: str) -> PredictionConfig:
    return PredictionConfig(
        algorithm=algorithm,
        loss=loss,
        seed=args.seed,
        maml=MAMLConfig(iterations=args.iterations, meta_batch=4, inner_steps=2),
    )


def _flag_config(args: argparse.Namespace) -> dict:
    """The run's configuration as seen from the CLI flags (manifest)."""
    return {
        k: v for k, v in vars(args).items() if k not in ("command", "json", "trace", "_argv")
    }


def _observed(
    args: argparse.Namespace,
    reporter: Reporter,
    body: Callable[[], dict],
) -> dict:
    """Run ``body`` under the run's observability envelope.

    With ``--trace`` the body executes inside a recording session whose
    spans stream to the JSONL sink, and a run manifest (flags, seed,
    git SHA, the metrics ``body`` returns) lands next to the trace.
    The body may deposit run extras on ``args`` (``_spool_dir``,
    ``_artifacts``) for the manifest to pick up.
    """
    trace = getattr(args, "trace", None)
    if not trace:
        return body()
    manifest = RunManifest.start(
        command=args.command,
        argv=getattr(args, "_argv", sys.argv[1:]),
        config=_flag_config(args),
        seed=getattr(args, "seed", None),
    )
    with obs.recording(JsonlSink(trace)):
        metrics = body()
    manifest_file = manifest.finalize(
        metrics=metrics,
        trace_path=trace,
        spool_dir=getattr(args, "_spool_dir", None),
        artifacts=getattr(args, "_artifacts", None),
    ).write(manifest_path_for(trace))
    reporter.add("trace", str(trace))
    reporter.add("manifest", str(manifest_file))
    reporter.line(f"[trace: {trace}]")
    reporter.line(f"[manifest: {manifest_file}]")
    return metrics


def cmd_predict(args: argparse.Namespace) -> int:
    reporter = Reporter(json_mode=args.json)

    def body() -> dict:
        workload, learning = make_workload(args.workload, _spec(args))
        config = _prediction_config(args, args.loss, args.algorithm)
        predictor = train_predictor(learning, workload.city, config, workload.historical_tasks_xy)
        report = evaluate_prediction(predictor, workload.workers)
        reporter.add("workload", args.workload)
        reporter.add("algorithm", args.algorithm)
        reporter.add("loss", args.loss)
        reporter.line(f"workload={args.workload} algorithm={args.algorithm} loss={args.loss}")
        rows = report.as_row()
        reporter.table("metrics", rows, fmt="  {name:<5} {value:.4f}")
        return rows

    _observed(args, reporter, body)
    reporter.finish()
    return 0


def cmd_assign(args: argparse.Namespace) -> int:
    reporter = Reporter(json_mode=args.json)

    def body() -> dict:
        workload, learning = make_workload(args.workload, _spec(args))
        predictor = None
        if args.algorithm not in ("ub", "lb"):
            config = _prediction_config(args, args.loss, "gttaml")
            predictor = train_predictor(learning, workload.city, config, workload.historical_tasks_xy)
        result = run_assignment(workload, args.algorithm, AssignmentConfig(), predictor=predictor)
        metrics = result.metrics()
        reporter.add("workload", args.workload)
        reporter.add("algorithm", args.algorithm)
        reporter.line(f"workload={args.workload} algorithm={args.algorithm}")
        rows = metrics.as_row()
        reporter.table("metrics", rows, fmt="  {name:<18} {value:.4f}")
        reporter.add("prediction_seconds", result.prediction_seconds)
        reporter.add("algorithm_seconds", result.algorithm_seconds)
        return rows

    _observed(args, reporter, body)
    reporter.finish()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    reporter = Reporter(json_mode=args.json)

    def body() -> dict:
        workload, learning = make_workload(args.workload, _spec(args))
        oriented = train_predictor(
            learning,
            workload.city,
            _prediction_config(args, "task_oriented", "gttaml"),
            workload.historical_tasks_xy,
        )
        mse = train_predictor(
            learning,
            workload.city,
            _prediction_config(args, "mse", "gttaml"),
            workload.historical_tasks_xy,
        )
        predictor_for = {
            "ppi": oriented, "km": oriented,
            "ppi_loss": mse, "km_loss": mse, "ggpso": mse,
            "ub": None, "lb": None,
        }
        reporter.line(
            f"{'algorithm':<10} {'completion':>10} {'rejection':>10} {'cost km':>8} {'time s':>7}"
        )
        table: dict[str, dict[str, float]] = {}
        for algorithm in ASSIGNMENT_ALGORITHMS:
            result = run_assignment(
                workload, algorithm, AssignmentConfig(), predictor=predictor_for[algorithm]
            )
            m = result.metrics()
            table[algorithm] = m.as_row()
            reporter.line(
                f"{algorithm:<10} {m.completion_ratio:>10.3f} {m.rejection_ratio:>10.3f} "
                f"{m.worker_cost_km:>8.3f} {m.running_seconds:>7.2f}"
            )
        reporter.add("workload", args.workload)
        reporter.add("algorithms", table)
        return table

    _observed(args, reporter, body)
    reporter.finish()
    return 0


def _monitor_config(args: argparse.Namespace):
    """Build the serve-sim MonitorConfig, or None when no flag asks for one."""
    from repro.obs import CalibrationConfig, MonitorConfig

    if (
        args.monitor is None
        and args.openmetrics is None
        and args.monitor_port is None
        and not args.slo
    ):
        return None
    calibration = None if args.no_calibration else CalibrationConfig()
    return MonitorConfig(
        cadence=args.monitor_cadence,
        series_path=args.monitor,
        openmetrics_path=args.openmetrics,
        http_port=args.monitor_port,
        calibration=calibration,
        slos=tuple(args.slo),
    )


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        build_engine,
        materialize,
        policy_from_args,
        scenario_from_args,
    )

    reporter = Reporter(json_mode=args.json)
    policy = policy_from_args(args)
    servers = policy.dist.shards > 1 and policy.dist.backend == "shard_server"
    if args.spool_dir is not None and not servers:
        raise SystemExit("--spool-dir needs --shard-servers with --shards > 1")
    spool_dir = None
    if servers and not args.no_spool:
        spool_dir = args.spool_dir or (f"{args.trace}.spools" if args.trace else None)
    monitor = _monitor_config(args)
    decisions = None
    if args.decisions:
        from repro.obs import DecisionConfig

        decisions = DecisionConfig(path=args.decisions)

    def body() -> dict:
        data = materialize(scenario_from_args(args))
        engine = build_engine(
            data.workers,
            data.provider,
            policy,
            monitor=monitor,
            spool_dir=spool_dir,
            decisions=decisions,
        )
        try:
            result = engine.run(data.tasks, data.t_start, data.t_end)
        finally:
            if policy.dist.shards > 1:
                engine.close()
        serve = policy.serve
        reporter.add("algorithm", policy.algorithm)
        reporter.add("trigger", serve.trigger)
        reporter.line(
            f"algorithm={policy.algorithm} trigger={serve.trigger} "
            f"use_index={serve.use_index} cache_ttl={serve.cache_ttl}"
        )
        if policy.dist.shards > 1:
            reporter.line(
                f"shards={policy.dist.shards} backend={policy.dist.backend} "
                f"warm_start={policy.dist.warm_start} "
                f"boundary_workers={engine.boundary_workers_total}"
            )
        if spool_dir is not None:
            args._spool_dir = spool_dir
            reporter.add("spool_dir", spool_dir)
            reporter.line(f"[spools: {spool_dir}]")
        rows = result.metrics().as_row()
        rows.update(
            n_expired=float(result.n_expired),
            n_shed=float(result.n_shed),
            n_batches=float(result.n_batches),
            n_early_batches=float(result.n_early_batches),
            candidate_sparsity=result.candidate_sparsity,
            cache_hit_rate=result.cache_hit_rate,
        )
        if monitor is not None:
            rows.update(
                n_monitor_samples=float(result.n_monitor_samples),
                n_drift_events=float(result.n_drift_events),
            )
            if result.calibration is not None:
                rows.update(brier=result.calibration["brier"], ece=result.calibration["ece"])
            if args.monitor:
                reporter.line(f"[series: {args.monitor}]")
            if args.openmetrics:
                reporter.line(f"[openmetrics: {args.openmetrics}]")
        if decisions is not None:
            rows["n_decisions"] = float(result.n_decisions)
            reporter.add("decisions", args.decisions)
            reporter.line(f"[decisions: {args.decisions}]")
        if policy.serve.forecast is not None:
            rows["n_prepositioned"] = float(result.n_prepositioned)
            if result.forecast_mae is not None:
                rows["forecast_mae"] = result.forecast_mae
        artifacts = {
            "decisions": args.decisions,
            "series": args.monitor,
            "openmetrics": args.openmetrics,
        }
        args._artifacts = {k: v for k, v in artifacts.items() if v}
        reporter.table("metrics", rows, fmt="  {name:<20} {value:.4f}")
        return rows

    _observed(args, reporter, body)
    reporter.finish()
    return 0


def _resolve_cli_spec(args: argparse.Namespace):
    """The run spec a ``scenarios run/show`` invocation describes.

    Precedence: a spec file wins outright; otherwise built-in names
    replace their flag group and the remaining flags fill the rest —
    the same flags → spec translation serve-sim compiles through.
    """
    from repro.scenarios import (
        RunSpec,
        get_policy,
        get_scenario,
        load_spec,
        policy_from_args,
        scenario_from_args,
    )

    if args.spec:
        return load_spec(args.spec)
    scenario = get_scenario(args.scenario) if args.scenario else scenario_from_args(args)
    policy = get_policy(args.policy) if args.policy else policy_from_args(args)
    return RunSpec(scenario=scenario, policy=policy, name=args.name)


def cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        decision_diff_tables,
        parse_sweep_arg,
        render_table,
        report_payload,
        run_sweep,
    )

    reporter = Reporter(json_mode=args.json)
    spec = _resolve_cli_spec(args)
    extra_sweep = dict(parse_sweep_arg(s) for s in args.sweep)
    if args.decisions and not args.out:
        raise SystemExit("--decisions needs an output directory (--out)")
    rows = run_sweep(
        spec,
        out_dir=args.out,
        extra_sweep=extra_sweep,
        cell_workers=args.cell_workers,
        argv=getattr(args, "_argv", []),
        decisions=args.decisions,
    )
    source = args.spec or spec.name or "flags"
    for key, value in report_payload(rows, source=source).items():
        reporter.add(key, value)
    reporter.line(render_table(rows, title=f"scenario sweep: {source} ({len(rows)} cells)"))
    if args.decisions:
        tables = decision_diff_tables(rows, out_dir=args.out)
        if tables:
            reporter.line("")
            reporter.line(tables)
    if args.out:
        reporter.add("out_dir", args.out)
        reporter.line(f"[manifests: {args.out}]")
    reporter.finish()
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios import BUILTIN_POLICIES, BUILTIN_SCENARIOS, GENERATORS

    reporter = Reporter(json_mode=args.json)
    reporter.add(
        "generators",
        {name: entry.description for name, entry in GENERATORS.items()},
    )
    reporter.add(
        "scenarios", {name: spec.to_dict() for name, spec in BUILTIN_SCENARIOS.items()}
    )
    reporter.add(
        "policies", {name: spec.to_dict() for name, spec in BUILTIN_POLICIES.items()}
    )
    reporter.line("generators:")
    for name, entry in GENERATORS.items():
        reporter.line(f"  {name:<16} {entry.description}")
    reporter.line("scenarios:")
    for name, spec in BUILTIN_SCENARIOS.items():
        p = spec.params
        shape = f"{p.get('n_workers', '?')}w × {p.get('n_tasks', '?')}t"
        reporter.line(f"  {name:<18} {spec.generator:<15} {shape} seed={spec.seed}")
    reporter.line("policies:")
    for name, spec in BUILTIN_POLICIES.items():
        traits = [spec.algorithm, spec.serve.trigger]
        if spec.serve.use_index:
            traits.append(f"index={spec.serve.index_cell_km}km")
        if spec.serve.cache_ttl:
            traits.append(f"cache={spec.serve.cache_ttl}m")
        if spec.dist.shards > 1:
            traits.append(f"shards={spec.dist.shards}")
        if spec.dist.warm_start:
            traits.append("warm")
        reporter.line(f"  {name:<18} {' '.join(traits)}")
    reporter.finish()
    return 0


def cmd_scenarios_show(args: argparse.Namespace) -> int:
    from repro.scenarios import dump_spec

    reporter = Reporter(json_mode=args.json)
    spec = _resolve_cli_spec(args)
    document = dump_spec(spec, path=args.out)
    for key, value in document.items():
        reporter.add(key, value)
    reporter.line(json.dumps(document, indent=2))
    if args.out:
        reporter.add("written", args.out)
        reporter.line(f"[written: {args.out}]")
    reporter.finish()
    return 0


SCENARIOS_COMMANDS = {
    "run": cmd_scenarios_run,
    "list": cmd_scenarios_list,
    "show": cmd_scenarios_show,
}


def cmd_scenarios(args: argparse.Namespace) -> int:
    return SCENARIOS_COMMANDS[args.scenarios_command](args)


def cmd_scenarios_report(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        decision_diff_tables,
        load_cell_manifests,
        render_table,
        report_payload,
        rows_from_manifests,
    )

    reporter = Reporter(json_mode=args.json)
    try:
        rows = rows_from_manifests(load_cell_manifests(args.out_dir))
    except FileNotFoundError as exc:
        raise SystemExit(f"scenarios-report: {exc}") from None
    for key, value in report_payload(rows, source=args.out_dir).items():
        reporter.add(key, value)
    reporter.line(
        render_table(rows, title=f"scenario sweep: {args.out_dir} ({len(rows)} cells)")
    )
    tables = decision_diff_tables(rows, out_dir=args.out_dir)
    if tables:
        reporter.add("decision_diffs", tables)
        reporter.line("")
        reporter.line(tables)
    reporter.finish()
    return 0


def _find_spool_dir(trace_file: str) -> str | None:
    """Locate the spool directory paired with a trace: the run
    manifest's ``spool_dir`` when recorded, else ``<trace>.spools``."""
    from repro.obs import read_manifest

    manifest_path = manifest_path_for(trace_file)
    if manifest_path.exists():
        try:
            recorded = read_manifest(manifest_path).spool_dir
        except ValueError:
            recorded = None
        if recorded and Path(recorded).is_dir():
            return recorded
    default = f"{trace_file}.spools"
    return default if Path(default).is_dir() else None


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import aggregate, read_jsonl

    records = read_jsonl(args.trace_file)
    spool_dir = None
    spool_note = None
    if args.distributed:
        from repro.obs import merge_spools

        spool_dir = args.spool_dir or _find_spool_dir(args.trace_file)
        if spool_dir is not None and Path(spool_dir).is_dir():
            records = merge_spools(records, spool_dir)
            spool_note = f"[spools: {spool_dir}]"
        else:
            spool_note = (
                "[no spool dir found; coordinator spans only "
                "(pass --spool-dir or rerun serve-sim with --trace)]"
            )
    report = aggregate(records)
    if args.json:
        payload = {
            "trace": args.trace_file,
            "n_spans": report.n_spans,
            "total_s": report.total_s,
            "spans": [
                {
                    "path": list(stat.path),
                    "count": stat.count,
                    "total_s": stat.total_s,
                    "mean_s": stat.mean_s,
                    "self_s": stat.self_s,
                }
                for stat in sorted(report.stats.values(), key=lambda s: s.path)
            ],
            "metrics": report.metrics,
        }
        if args.distributed:
            from repro.obs import attribute_rounds

            payload["distributed"] = {
                "spool_dir": spool_dir,
                "rounds": [
                    {
                        "round": att.round,
                        "t": att.t,
                        "wall_s": att.wall_s,
                        "prepare_s": att.prepare_s,
                        "solve_s": att.solve_s,
                        "merge_s": att.merge_s,
                        "straggler": att.straggler,
                        "critical_busy_s": att.critical_busy_s,
                        "shard_busy_s": {str(k): v for k, v in att.shard_busy_s.items()},
                    }
                    for att in attribute_rounds(records)
                ],
            }
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(report, title=f"trace report: {args.trace_file}"))
        if args.distributed:
            from repro.obs import render_distributed_report

            if spool_note:
                print(spool_note)
            print()
            print(render_distributed_report(records))
    return 0


def cmd_serve_report(args: argparse.Namespace) -> int:
    from repro.obs import aggregate_series, read_jsonl, render_serve_report

    records = read_jsonl(args.series_file)
    if args.json:
        payload = {"series": args.series_file, **aggregate_series(records, args.phases)}
        print(json.dumps(payload, indent=2))
    else:
        print(
            render_serve_report(
                records,
                title=f"serve report: {args.series_file}",
                n_phases=args.phases,
                top_cells=args.top_cells,
            )
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import explain_task, find_decision_log, read_decisions, render_explain

    try:
        log_path = find_decision_log(args.run)
    except FileNotFoundError as exc:
        raise SystemExit(f"explain: {exc}") from None
    records = read_decisions(log_path)
    try:
        record = explain_task(records, args.task)
    except KeyError:
        raise SystemExit(
            f"explain: task {args.task} has no record in {log_path} "
            f"({len(records)} tasks logged)"
        ) from None
    if args.json:
        print(json.dumps({"log": str(log_path), "record": record}, indent=2))
    else:
        print(f"[decision log: {log_path}]")
        print(render_explain(record))
    return 0


def cmd_run_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_decisions, find_decision_log, read_decisions, render_run_diff

    try:
        path_a = find_decision_log(args.run_a)
        path_b = find_decision_log(args.run_b)
    except FileNotFoundError as exc:
        raise SystemExit(f"run-diff: {exc}") from None
    diff = diff_decisions(read_decisions(path_a), read_decisions(path_b))
    if args.json:
        print(json.dumps({"log_a": str(path_a), "log_b": str(path_b), **diff}, indent=2))
    else:
        print(f"[A: {path_a}]")
        print(f"[B: {path_b}]")
        print(render_run_diff(diff))
    return 0


def cmd_collect_results(args: argparse.Namespace) -> int:
    reporter = Reporter(json_mode=args.json)
    output = args.output if args.output is not None else args.results_dir.parent / "RESULTS.md"
    included = collect_results(args.results_dir, output)
    reporter.add("output", str(output))
    reporter.add("included", included)
    reporter.line(f"wrote {output} with {len(included)} result blocks")
    reporter.finish()
    return 0


COMMANDS = {
    "predict": cmd_predict,
    "assign": cmd_assign,
    "compare": cmd_compare,
    "serve-sim": cmd_serve_sim,
    "serve-report": cmd_serve_report,
    "trace-report": cmd_trace_report,
    "scenarios": cmd_scenarios,
    "scenarios-report": cmd_scenarios_report,
    "explain": cmd_explain,
    "run-diff": cmd_run_diff,
    "collect-results": cmd_collect_results,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
