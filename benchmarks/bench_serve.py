"""Benchmark: the serving engine's per-batch assignment path.

Times one assignment round — the work between "batch fires" and "plan
ready" — two ways on the same batch state:

* ``dense``  — the paper loop's path (``ServeConfig()`` defaults): PPI
  over every (task, worker) pair;
* ``sparse`` — the serving path: uniform-grid candidate graph
  (:func:`repro.serve.spatial_index.build_candidates`) feeding
  candidate-aware PPI.

The headline shape is city scale (10k workers, 5k pending tasks).  The
dense scan there costs Theta(T x W) ~ 50M pair evaluations (minutes of
wall time), so by default the dense arm runs on a deterministic worker
subsample and is extrapolated linearly in pair count — flagged as
``dense_extrapolated`` in the JSON, with the measured sample recorded.
Set ``REPRO_SERVE_BENCH_FULL=1`` to measure the full dense scan
instead.  The ``guard`` shape is small enough to measure both arms
fully; its speedup ratio is what ``benchmarks/check_regression.py``
re-checks.  On every dense measurement the sparse plan is verified
**identical** to the dense plan before any timing is reported.

A moderate end-to-end engine run (adaptive trigger, TTL cache, bounded
queue, index on) records the serving metrics — cache hit rate, shed
tasks, early batches — through ``repro.obs``; the snapshot lands in the
JSON and in the bench's run manifest.

Writes ``BENCH_serve.json`` at the repo root and a manifest under
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import write_result  # noqa: E402

from repro import obs  # noqa: E402
from repro.assignment.ppi import ppi_assign  # noqa: E402
from repro.obs import MemorySink, MonitorConfig  # noqa: E402
from repro.scenarios import (  # noqa: E402
    build_engine,
    get_policy,
    get_scenario,
    materialize,
)
from repro.serve import build_candidates  # noqa: E402

OUTPUT = Path(__file__).parent.parent / "BENCH_serve.json"

HEADLINE = "city_scale"
GUARD = "guard"

# name -> batch-state shape, resolved through the scenario registry
# (``repro.scenarios``) so the bench, the CLI, and sweep specs draw the
# same populations.  ``dense_sample_workers`` bounds the dense arm
# (None = always full).
SHAPES = {
    GUARD: {
        "scenario": "bench-serve-guard",
        "dense_sample_workers": None,
        "repeats": 3,
    },
    HEADLINE: {
        "scenario": "bench-serve-city",
        "dense_sample_workers": 500,
        "repeats": 3,
    },
}

INDEX_CELL_KM = 2.0


def full_dense() -> bool:
    return os.environ.get("REPRO_SERVE_BENCH_FULL", "").strip() not in ("", "0")


def batch_state(scenario_name: str):
    """One representative mid-stream batch: pending tasks + snapshots.

    The registry scenario releases every task just before ``t_end``
    with 20-40 minutes of validity, so at ``t_end`` the whole set is
    pending, as in a loaded batch.
    """
    data = materialize(get_scenario(scenario_name))
    t = data.t_end
    snapshots = [data.provider(w, t) for w in data.workers]
    return data.tasks, snapshots, t


def plan_pairs(plan) -> list[tuple[int, int]]:
    return sorted((p.task_id, p.worker_id) for p in plan)


def time_sparse(tasks, snapshots, t, repeats: int) -> tuple[float, object, int]:
    """Best-of-N of index build + candidate PPI; returns the last plan."""
    best = float("inf")
    plan = None
    n_pairs = 0
    for _ in range(repeats):
        started = time.perf_counter()
        candidates = build_candidates(tasks, snapshots, t, cell_km=INDEX_CELL_KM)
        plan = ppi_assign(tasks, snapshots, t, candidates)
        best = min(best, time.perf_counter() - started)
        n_pairs = sum(len(v) for v in candidates.values())
    return best, plan, n_pairs


def bench_shape(name: str, spec: dict) -> dict:
    scenario = get_scenario(spec["scenario"])
    tasks, snapshots, t = batch_state(spec["scenario"])
    repeats = spec["repeats"]

    sparse_s, sparse_plan, candidate_pairs = time_sparse(tasks, snapshots, t, repeats)

    sample = spec["dense_sample_workers"]
    extrapolated = sample is not None and sample < len(snapshots) and not full_dense()
    dense_snapshots = snapshots[:sample] if extrapolated else snapshots

    started = time.perf_counter()
    dense_plan = ppi_assign(tasks, dense_snapshots, t)
    dense_measured_s = time.perf_counter() - started

    # Exactness on the dense-measured population: the sparse path must
    # return the identical plan before its timing means anything.
    sparse_check, check_plan, _ = time_sparse(tasks, dense_snapshots, t, 1)
    if plan_pairs(check_plan) != plan_pairs(dense_plan):
        raise AssertionError(f"{name}: sparse plan diverged from dense plan")
    if not extrapolated and plan_pairs(sparse_plan) != plan_pairs(dense_plan):
        raise AssertionError(f"{name}: full-scale sparse plan diverged from dense plan")

    dense_pairs = len(tasks) * len(snapshots)
    measured_pairs = len(tasks) * len(dense_snapshots)
    dense_s = dense_measured_s * (dense_pairs / measured_pairs)
    del sparse_check

    entry = {
        "scenario": spec["scenario"],
        "n_workers": scenario.params["n_workers"],
        "n_tasks": scenario.params["n_tasks"],
        "width_km": scenario.params["width_km"],
        "dense_pairs": dense_pairs,
        "candidate_pairs": candidate_pairs,
        "candidate_sparsity": candidate_pairs / dense_pairs,
        "dense_extrapolated": extrapolated,
        "dense_sample_workers": len(dense_snapshots),
        "timings_s": {
            "dense_batch": dense_s,
            "dense_batch_measured": dense_measured_s,
            "sparse_batch": sparse_s,
        },
        "speedup": {"batch_assignment": dense_s / sparse_s},
        "plans_identical": True,
    }
    return entry


def engine_metrics_run() -> dict:
    """A loaded end-to-end run that exercises every serving feature.

    The run is the ``bench-serve-engine`` scenario under the
    ``bench-serve-engine`` policy — both registry built-ins, so the
    identical run is reproducible as ``repro-tamp scenarios run
    --scenario bench-serve-engine --policy bench-serve-engine``.
    Returns the engine's own accounting plus the ``serve.*`` metrics
    snapshot collected through ``repro.obs``.
    """
    scenario = get_scenario("bench-serve-engine")
    policy = get_policy("bench-serve-engine")
    data = materialize(scenario)
    engine = build_engine(
        data.workers,
        data.provider,
        policy,
        # In-memory monitor (no series file): the sampled time axis
        # and calibration land in the bench JSON below.
        monitor=MonitorConfig(cadence=5.0),
    )
    with obs.recording(MemorySink()):
        result = engine.run(data.tasks, data.t_start, data.t_end)
        snapshot = obs.get_recorder().metrics.snapshot()
    serve_metrics = {
        kind: {k: v for k, v in values.items() if k.startswith("serve.")}
        for kind, values in snapshot.items()
        if isinstance(values, dict)
    }
    return {
        "config": {
            "scenario": "bench-serve-engine",
            "policy": "bench-serve-engine",
            "n_workers": scenario.params["n_workers"],
            "n_tasks": scenario.params["n_tasks"],
            "horizon_minutes": data.t_end,
            "trigger": policy.serve.trigger,
            "cache_ttl": policy.serve.cache_ttl,
            "max_pending": policy.serve.max_pending,
        },
        "completion_ratio": result.metrics().completion_ratio,
        "n_batches": result.n_batches,
        "n_early_batches": result.n_early_batches,
        "n_shed": result.n_shed,
        "cache_hit_rate": result.cache_hit_rate,
        "candidate_sparsity": result.candidate_sparsity,
        "monitor": {
            "n_samples": result.n_monitor_samples,
            "n_drift_events": result.n_drift_events,
            "brier": result.calibration["brier"] if result.calibration else None,
            "ece": result.calibration["ece"] if result.calibration else None,
        },
        "obs_metrics": serve_metrics,
    }


def run(shapes: dict | None = None) -> dict:
    measured = {
        name: bench_shape(name, spec) for name, spec in (shapes or SHAPES).items()
    }
    document = {
        "headline_shape": HEADLINE,
        "guard_shape": GUARD,
        "index_cell_km": INDEX_CELL_KM,
        "shapes": measured,
    }
    if HEADLINE in measured:
        document["speedup"] = measured[HEADLINE]["speedup"]
    return document


def main() -> None:
    result = run()
    result["engine_run"] = engine_metrics_run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")

    lines = []
    for name, entry in result["shapes"].items():
        t = entry["timings_s"]
        flag = " (extrapolated)" if entry["dense_extrapolated"] else ""
        lines.append(
            f"{name:12s} {entry['n_workers']:>6d}w x {entry['n_tasks']:>5d}t"
            f"  dense {t['dense_batch']:8.2f} s{flag}"
            f" | sparse {t['sparse_batch']:8.3f} s"
            f" | speedup {entry['speedup']['batch_assignment']:7.1f}x"
            f" | sparsity {entry['candidate_sparsity']:.4f}"
        )
    eng = result["engine_run"]
    lines.append(
        f"engine run: completion {eng['completion_ratio']:.3f}"
        f" | cache hit rate {eng['cache_hit_rate']:.3f}"
        f" | shed {eng['n_shed']}"
        f" | early batches {eng['n_early_batches']}/{eng['n_batches']}"
    )
    write_result(
        "serve",
        "\n".join(lines),
        metrics={
            "headline_speedup": result["speedup"]["batch_assignment"],
            "cache_hit_rate": eng["cache_hit_rate"],
            "n_shed": eng["n_shed"],
            "n_early_batches": eng["n_early_batches"],
            "obs_metrics": eng["obs_metrics"],
        },
    )
    print(f"[saved to {OUTPUT}]")


if __name__ == "__main__":
    main()
