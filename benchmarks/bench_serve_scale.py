"""Benchmark: serving at scale — warm-started matching and shard servers.

Two arms, both parity-asserted before any timing is reported:

* ``warm_matching`` (the guard shape) — the same 12-step worker-churn
  stream is assigned twice with :func:`ppi_assign`, once with a cold
  :class:`ComponentMatcher` and once with a warm-started one
  (:class:`repro.dist.WarmMatchCache` carrying dual potentials and
  cached matchings across steps).  Tasks carry far deadlines so the
  Theorem-2 weights are stable between steps, and the per-step churn
  is the shift-turnover rate of a metro fleet (a couple of
  check-ins/outs per one-minute batch on a 1000-courier roster) — the
  regime warm starting targets: most matcher components repeat
  verbatim between batches and skip their solve entirely via the
  identical-edge fast path.  Only the time spent *inside the matcher* is
  compared (candidate building is identical in both arms and measured
  elsewhere); the plans must match tuple-for-tuple on every step, and
  the warm/cold solve ratio must clear ``MIN_WARM_SPEEDUP``.  That
  ratio is what ``benchmarks/check_regression.py -m scale_bench``
  re-checks against this baseline.

* ``serve_scale`` — one candidate round at 100k workers x 20k pending
  tasks, K=4 stripes, on **long-lived shard servers**
  (:class:`repro.dist.ShardServerBackend`).  The servers are
  stateless: a round cuts the batch into one array ``build`` request
  per stripe (:func:`repro.dist.serve.stripe_build_requests`), sends
  them concurrently and merges the replies, and the timed window covers
  all three.  The merged graph must equal the serial reference build
  exactly.  Throughput is reported as events/second (one event =
  one pending task or one worker check-in entering the round).

Writes ``BENCH_serve_scale.json`` at the repo root and a manifest
under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import write_result  # noqa: E402

from repro.assignment.ppi import ppi_assign  # noqa: E402
from repro.dist import ShardPlanner, ShardServerBackend, WarmMatchCache  # noqa: E402
from repro.dist.serve import stripe_build_requests  # noqa: E402
from repro.dist.shard import ComponentMatcher  # noqa: E402
from repro.dist.server import scatter  # noqa: E402
from repro.scenarios import get_scenario, materialize  # noqa: E402
from repro.serve import build_candidates  # noqa: E402
from repro.serve.spatial_index import latest_horizon  # noqa: E402

OUTPUT = Path(__file__).parent.parent / "BENCH_serve_scale.json"

GUARD = "warm_matching"
HEADLINE = "serve_scale"

#: The warm/cold matcher-solve ratio the guard shape must clear.  Far
#: from the floor in practice (most components hit the identical-edge
#: fast path between churn steps), but the bar is what the regression
#: guard re-derives its tolerance band from.
MIN_WARM_SPEEDUP = 2.0

# Stream shapes come from the scenario registry (``repro.scenarios``)
# so the bench, the CLI, and sweep specs draw the same populations.
# ``bench-scale-warm`` carries far deadlines: theorem2_bound =
# min(d/2, sp * (deadline - t)) sits on the d/2 branch for every step,
# so pair weights do not drift with t and unchanged components
# re-match via the cache.
WARM_SPEC = {
    "scenario": "bench-scale-warm",
    "cell_km": 2.0,
    "steps": 12,
    "churn_workers": 2,
}

SCALE_SPEC = {
    "scenario": "bench-scale-100k",
    "cell_km": 2.0,
    "shards": 4,
    "repeats": 2,
}


def batch_state(spec: dict):
    """One loaded mid-stream batch: pending tasks + worker snapshots."""
    data = materialize(get_scenario(spec["scenario"]))
    t = data.t_end
    snapshots = [data.provider(w, t) for w in data.workers]
    return data.tasks, snapshots, t


def plan_tuples(plan) -> list[tuple]:
    return [(p.task_id, p.worker_id, p.score, p.stage) for p in plan]


class TimedMatcher:
    """Wrap a matcher, accumulating wall time spent inside its solves."""

    def __init__(self, inner):
        self.inner = inner
        self.seconds = 0.0

    def __call__(self, edges):
        started = time.perf_counter()
        result = self.inner(edges)
        self.seconds += time.perf_counter() - started
        return result


def churned_active_sets(snapshots, steps: int, churn_workers: int):
    """Per-step active worker sets: a stable core plus a rotating tail.

    Models shift churn at constant fleet size: ``churn_workers`` of
    the roster check out and a different slice checks in each step, so
    most matcher components repeat verbatim while some change.
    """
    n = len(snapshots)
    n_churn = max(1, churn_workers)
    core, extras = snapshots[: n - 2 * n_churn], snapshots[n - 2 * n_churn :]
    for step in range(steps):
        offset = (step * (n_churn // 2 + 1)) % len(extras)
        window = [extras[(offset + i) % len(extras)] for i in range(n_churn)]
        # Snapshot-position order must match between arms (candidate
        # order is position-derived), so sort the tail by worker id.
        yield core + sorted(window, key=lambda s: s.worker_id)


def bench_warm(spec: dict) -> dict:
    tasks, snapshots, t = batch_state(spec)
    cold_timer = TimedMatcher(ComponentMatcher())
    cache = WarmMatchCache()
    warm_timer = TimedMatcher(ComponentMatcher(warm=cache))

    steps = 0
    for active in churned_active_sets(snapshots, spec["steps"], spec["churn_workers"]):
        graph = build_candidates(tasks, active, t, cell_km=spec["cell_km"])
        cold_plan = ppi_assign(tasks, active, t, graph, matcher=cold_timer)
        cache.begin_round()
        warm_plan = ppi_assign(tasks, active, t, graph, matcher=warm_timer)
        if plan_tuples(warm_plan) != plan_tuples(cold_plan):
            raise AssertionError(f"warm plan diverged from cold plan at step {steps}")
        steps += 1

    speedup = cold_timer.seconds / warm_timer.seconds
    if speedup < MIN_WARM_SPEEDUP:
        raise AssertionError(
            f"warm matcher speedup {speedup:.2f}x fell below the "
            f"{MIN_WARM_SPEEDUP:.0f}x floor"
        )
    params = get_scenario(spec["scenario"]).params
    return {
        "scenario": spec["scenario"],
        "n_workers": params["n_workers"],
        "n_tasks": params["n_tasks"],
        "steps": steps,
        "churn_workers": spec["churn_workers"],
        "timings_s": {
            "cold_matcher": cold_timer.seconds,
            "warm_matcher": warm_timer.seconds,
        },
        "speedup": {"matcher_solve": speedup},
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "warm_state": {
            "identical_hits": cache.identical_hits,
            "rows_reaugmented": cache.rows_reaugmented,
            "rows_total": cache.rows_total,
        },
        "plans_identical": True,
    }


def graphs_equal(a: dict, b: dict) -> bool:
    return dict(a) == dict(b)


def bench_scale(spec: dict) -> dict:
    tasks, snapshots, t = batch_state(spec)
    k, cell, repeats = spec["shards"], spec["cell_km"], spec["repeats"]
    horizon = latest_horizon(tasks, t)
    events = len(tasks) + len(snapshots)

    reference = build_candidates(tasks, snapshots, t, cell_km=cell, horizon=horizon)

    planner = ShardPlanner(shards=k, cell_km=cell)
    layout = planner.layout_for(tasks)

    # Stateless shard servers: every round ships each stripe's tasks
    # and halo points as arrays.  One untimed round spawns the servers.
    server_s = float("inf")
    server_graph: dict = {}
    with ShardServerBackend(shards=k) as backend:
        for repeat in range(repeats + 1):
            started = time.perf_counter()
            requests, members, _ = stripe_build_requests(layout, tasks, snapshots, t)
            graphs = scatter(
                [backend.handles[s] for s in requests],
                [("build", request) for request in requests.values()],
            )
            server_graph = {}
            for graph in graphs:
                server_graph.update(graph)
            if repeat:
                server_s = min(server_s, time.perf_counter() - started)
        restarts = backend.total_restarts
    if not graphs_equal(server_graph, reference):
        raise AssertionError("shard-server graph diverged from the serial reference")

    params = get_scenario(spec["scenario"]).params
    return {
        "scenario": spec["scenario"],
        "n_workers": params["n_workers"],
        "n_tasks": params["n_tasks"],
        "width_km": params["width_km"],
        "shards": k,
        "cell_km": cell,
        "events_per_round": events,
        "boundary_members": sum(len(m) for m in members) - len(snapshots),
        "timings_s": {"server_round": server_s},
        "events_per_sec": {"shard_servers": events / server_s},
        "server_restarts": restarts,
        "graphs_identical": True,
    }


def run(shapes: dict | None = None) -> dict:
    specs = shapes if shapes is not None else {GUARD: WARM_SPEC, HEADLINE: SCALE_SPEC}
    measured = {}
    for name, spec in specs.items():
        measured[name] = bench_warm(spec) if name == GUARD else bench_scale(spec)
    document = {
        "guard_shape": GUARD,
        "headline_shape": HEADLINE,
        "shapes": measured,
    }
    if GUARD in measured:
        document["speedup"] = measured[GUARD]["speedup"]
    return document


def main() -> None:
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")

    warm = result["shapes"][GUARD]
    wt = warm["timings_s"]
    lines = [
        f"{GUARD:12s} {warm['n_workers']}w x {warm['n_tasks']}t,"
        f" {warm['steps']} churn steps"
        f"  cold {wt['cold_matcher']:7.3f} s"
        f" | warm {wt['warm_matcher']:7.3f} s"
        f" | speedup {warm['speedup']['matcher_solve']:5.1f}x"
        f" (floor {warm['min_warm_speedup']:.0f}x, plans identical)",
    ]
    metrics = {"warm_matcher_speedup": warm["speedup"]["matcher_solve"]}
    if HEADLINE in result["shapes"]:
        scale = result["shapes"][HEADLINE]
        st = scale["timings_s"]
        eps = scale["events_per_sec"]
        lines.append(
            f"{HEADLINE:12s} {scale['n_workers']}w x {scale['n_tasks']}t, K={scale['shards']}"
            f"  servers {st['server_round']:6.2f} s/round ({eps['shard_servers']:8.0f} ev/s)"
            f" (graph identical to serial)"
        )
        metrics.update(events_per_sec_servers=eps["shard_servers"])
    write_result("serve_scale", "\n".join(lines), metrics=metrics)
    print(f"[saved to {OUTPUT}]")


if __name__ == "__main__":
    main()
