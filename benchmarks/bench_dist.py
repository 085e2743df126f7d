"""Benchmark: lockstep meta-training and sharded assignment.

Two arms, both parity-asserted before any timing is reported:

* ``meta_lockstep`` (the guard shape) — TAML meta-training of a tree of
  16 leaf clusters.  :func:`repro.meta.taml.taml_train` trains every
  leaf in one lockstep call, stacking the leaves whose windows agree in
  shape into one fused BPTT pass.  The reference, kept in this script,
  trains the leaves one after another: one one-cluster
  :func:`repro.meta.maml.meta_train` call per leaf, in leaf order,
  sharing one generator, then the bottom-up fold.  Both must produce
  **bit-identical** parameters on every tree node and the same loss
  (``==``, not ``allclose``); only then are the two timed, in
  alternating repeats, and the ratio of their median wall times
  recorded.  The speedup comes from batching model evaluations, not
  from extra cores, so the ratio is stable on single-CPU hosts — it is
  the quantity ``benchmarks/check_regression.py`` guards.

* ``shard_batch`` — one loaded assignment round (candidate build +
  PPI) executed dense and executed as K=4 spatial stripes merged by
  the coordinator (:func:`repro.assignment.ppi.ppi_assign` over
  :func:`repro.dist.sharded_build_candidates` with a
  :class:`repro.dist.ComponentMatcher`).  The sharded plan must equal
  the dense plan tuple-for-tuple.  Two sharded timings are taken:
  ``sharded_cold`` (a fresh :class:`repro.dist.ShardPlanner` and
  :class:`repro.dist.ShardStats` per repeat, so the stripe layout is
  recomputed from scratch) and ``sharded_steady`` (one persistent
  planner carries the stripe layout across calls, the regime a
  long-lived serving process is actually in).  The three are timed in
  alternating repeats and the steady overhead over dense — the ratio
  of their median wall times — is asserted ≤
  ``MAX_STEADY_OVERHEAD_PCT``: the planner exists precisely to kill the
  former +25% serial tax.

Writes ``BENCH_dist.json`` at the repo root and a manifest under
``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import available_cpus, write_result  # noqa: E402

from repro.assignment.ppi import ppi_assign  # noqa: E402
from repro.dist import (  # noqa: E402
    ComponentMatcher,
    ShardPlanner,
    ShardStats,
    sharded_build_candidates,
)
from repro.meta.learning_task import LearningTask  # noqa: E402
from repro.meta.maml import MAMLConfig, meta_train  # noqa: E402
from repro.meta.taml import TAMLConfig, taml_train  # noqa: E402
from repro.meta.task_tree import LearningTaskTree  # noqa: E402
from repro.nn.losses import mse_loss  # noqa: E402
from repro.pipeline.training import MobilityModelFactory  # noqa: E402
from repro.scenarios import get_scenario, materialize  # noqa: E402
from repro.serve import build_candidates  # noqa: E402

OUTPUT = Path(__file__).parent.parent / "BENCH_dist.json"

GUARD = "meta_lockstep"
SHARD_ARM = "shard_batch"

# The guard shape: enough leaves for stacking to amortise per-pass
# overhead, windows sized so one per-leaf run finishes in about a
# second.  Stacking wins by fixed-cost amortisation, so a small hidden
# state and a small per-leaf meta-batch (lots of passes, little
# arithmetic each) are the regime where it pays — the per-leaf settings
# of the few-shot tables, not the converged ones.
META_SPEC = {
    "n_leaves": 16,
    "tasks_per_leaf": 4,
    "n_windows": 12,
    "seq_in": 5,
    "seq_out": 2,
    "hidden_size": 8,
    "repeats": 7,
    "maml": MAMLConfig(
        meta_lr=0.1,
        inner_lr=0.05,
        inner_steps=2,
        meta_batch=2,
        iterations=15,
        support_batch=8,
    ),
}

# Stream shape from the scenario registry (``repro.scenarios``), the
# same population the CLI and sweep specs resolve for this name.
SHARD_SPEC = {
    "scenario": "bench-dist-shard",
    "shards": 4,
    "cell_km": 2.0,
    "repeats": 7,
}

SEED = 7

# Steady-state sharding must cost no more than this over the dense
# solve — the ShardPlanner keeps the stripe layout and computes halos in
# one batched pass precisely so a serving loop does not pay partitioning
# tax per batch.
MAX_STEADY_OVERHEAD_PCT = 10.0


def traj_task(worker_id: int, seed: int, spec: dict) -> LearningTask:
    rng = np.random.default_rng(seed)
    n, seq_in, seq_out = spec["n_windows"], spec["seq_in"], spec["seq_out"]
    x = 0.1 * rng.normal(size=(n, seq_in, 2)).cumsum(axis=1)
    y = x[:, -1:, :] + 0.05 * rng.normal(size=(n, seq_out, 2)).cumsum(axis=1)
    half = n - 4
    return LearningTask(worker_id, x[:half], y[:half], x[half:], y[half:])


def build_tree(spec: dict) -> LearningTaskTree:
    """A one-level GTMC stand-in: a root over ``n_leaves`` leaf clusters."""
    groups = [
        [traj_task(100 * g + i, seed=1000 * g + i, spec=spec) for i in range(spec["tasks_per_leaf"])]
        for g in range(spec["n_leaves"])
    ]
    root = LearningTaskTree(cluster=[t for g in groups for t in g])
    for group in groups:
        root.add_child(LearningTaskTree(cluster=group))
    return root


def per_leaf_taml(
    node: LearningTaskTree, factory, cfg: TAMLConfig, rng: np.random.Generator
) -> float:
    """The per-leaf reference: Algorithm 2 as a recursion, one
    one-cluster ``meta_train`` per leaf sharing ``rng``, then the fold."""
    if node.is_leaf:
        model = factory()
        model.load_state_dict(node.theta)
        history = meta_train(model, node.cluster, cfg.maml, mse_loss, rng=rng)
        node.theta = model.state_dict()
        return history[-1]
    losses = []
    for child in node.children:
        child.theta = {k: v.copy() for k, v in node.theta.items()}
        losses.append(per_leaf_taml(child, factory, cfg, rng))
    mean_child = {
        key: np.mean([child.theta[key] for child in node.children], axis=0)
        for key in node.theta
    }
    node.theta = {
        key: node.theta[key] + cfg.tree_rate * (mean_child[key] - node.theta[key])
        for key in node.theta
    }
    return float(np.mean(losses))


def train_once(spec: dict, lockstep: bool) -> tuple[float, float, list[dict]]:
    """One full meta-training; returns (seconds, loss, all node thetas)."""
    tree = build_tree(spec)
    factory = MobilityModelFactory(
        hidden_size=spec["hidden_size"], seq_out=spec["seq_out"], seed=42
    )
    tree.theta = factory().state_dict()
    cfg = TAMLConfig(maml=spec["maml"])
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    if lockstep:
        loss = taml_train(tree, factory, mse_loss, cfg, rng=rng)
    else:
        loss = per_leaf_taml(tree, factory, cfg, rng)
    elapsed = time.perf_counter() - started
    return elapsed, loss, [node.theta for node in tree.iter_nodes()]


def assert_trees_identical(ref: list[dict], got: list[dict], context: str) -> None:
    if len(ref) != len(got):
        raise AssertionError(f"{context}: node count differs")
    for a, b in zip(ref, got):
        for key in a:
            if not np.array_equal(a[key], b[key]):
                raise AssertionError(f"{context}: parameter '{key}' is not bit-identical")


def bench_meta(spec: dict) -> dict:
    # Parity first: the ratio of two different trainings means nothing.
    _, per_leaf_loss, per_leaf_thetas = train_once(spec, lockstep=False)
    _, lockstep_loss, lockstep_thetas = train_once(spec, lockstep=True)
    assert_trees_identical(per_leaf_thetas, lockstep_thetas, "lockstep")
    if lockstep_loss != per_leaf_loss:
        raise AssertionError("lockstep loss differs from the per-leaf loss")

    # Alternating repeats, so host drift lands on both arms alike.
    per_leaf_runs, lockstep_runs = [], []
    for _ in range(spec["repeats"]):
        per_leaf_runs.append(train_once(spec, lockstep=False)[0])
        lockstep_runs.append(train_once(spec, lockstep=True)[0])
    per_leaf_s = float(np.median(per_leaf_runs))
    lockstep_s = float(np.median(lockstep_runs))

    maml = spec["maml"]
    return {
        "n_leaves": spec["n_leaves"],
        "tasks_per_leaf": spec["tasks_per_leaf"],
        "n_windows": spec["n_windows"],
        "hidden_size": spec["hidden_size"],
        "iterations": maml.iterations,
        "meta_batch": maml.meta_batch,
        "inner_steps": maml.inner_steps,
        "repeats": spec["repeats"],
        "available_cpus": available_cpus(),
        "timings_s": {
            "per_leaf_median": per_leaf_s,
            "lockstep_median": lockstep_s,
            "per_leaf_runs": per_leaf_runs,
            "lockstep_runs": lockstep_runs,
        },
        "speedup": {"meta_training": per_leaf_s / lockstep_s},
        "bit_identical": True,
        "final_loss": lockstep_loss,
    }


def batch_state(spec: dict):
    data = materialize(get_scenario(spec["scenario"]))
    t = data.t_end
    snapshots = [data.provider(w, t) for w in data.workers]
    return data.tasks, snapshots, t


def plan_tuples(plan) -> list[tuple]:
    return [(p.task_id, p.worker_id, p.score, p.stage) for p in plan]


def bench_shard(spec: dict) -> dict:
    tasks, snapshots, t = batch_state(spec)
    cell_km, k, repeats = spec["cell_km"], spec["shards"], spec["repeats"]

    def dense():
        graph = build_candidates(tasks, snapshots, t, cell_km=cell_km)
        return ppi_assign(tasks, snapshots, t, graph)

    def cold():
        # A fresh planner per call, so the layout is recomputed (kept
        # for an honest before/after record).
        planner = ShardPlanner(shards=k, cell_km=cell_km)
        graph = sharded_build_candidates(tasks, snapshots, t, planner, stats=ShardStats())
        return ppi_assign(tasks, snapshots, t, graph, matcher=ComponentMatcher())

    # Steady state: one planner lives across calls, as it does inside a
    # long-running ShardedEngine.  The parity call below builds the
    # sticky layout; the timed repeats then pay only the per-batch halo
    # pass.
    planner = ShardPlanner(shards=k, cell_km=cell_km)
    stats = ShardStats()

    def steady():
        nonlocal stats
        stats = ShardStats()
        graph = sharded_build_candidates(tasks, snapshots, t, planner, stats=stats)
        return ppi_assign(tasks, snapshots, t, graph, matcher=ComponentMatcher())

    arms = {"dense": dense, "sharded_cold": cold, "sharded_steady": steady}
    # Parity first: an overhead between two different plans means nothing.
    plans = {name: plan_tuples(arm()) for name, arm in arms.items()}
    for name in ("sharded_cold", "sharded_steady"):
        if plans[name] != plans["dense"]:
            raise AssertionError(f"{name} plan diverged from dense plan")

    # Alternating repeats, so host drift lands on every arm alike; each
    # call starts from a collected heap, so no arm pays a full
    # collection of the garbage another arm left behind.
    runs: dict[str, list[float]] = {name: [] for name in arms}
    for _ in range(repeats):
        for name, arm in arms.items():
            gc.collect()
            started = time.perf_counter()
            arm()
            runs[name].append(time.perf_counter() - started)
    medians = {name: float(np.median(times)) for name, times in runs.items()}
    dense_s, cold_s, steady_s = (
        medians["dense"], medians["sharded_cold"], medians["sharded_steady"]
    )

    steady_overhead = 100.0 * (steady_s - dense_s) / dense_s
    if steady_overhead > MAX_STEADY_OVERHEAD_PCT:
        raise AssertionError(
            f"steady-state sharding overhead {steady_overhead:+.1f}% exceeds "
            f"{MAX_STEADY_OVERHEAD_PCT:.0f}% — the planner regressed"
        )

    params = get_scenario(spec["scenario"]).params
    return {
        "scenario": spec["scenario"],
        "n_workers": params["n_workers"],
        "n_tasks": params["n_tasks"],
        "width_km": params["width_km"],
        "shards": k,
        "cell_km": cell_km,
        "repeats": repeats,
        "timings_s": {
            **medians,
            **{f"{name}_runs": times for name, times in runs.items()},
        },
        "sharding_overhead_pct": steady_overhead,
        "sharding_cold_overhead_pct": 100.0 * (cold_s - dense_s) / dense_s,
        "max_steady_overhead_pct": MAX_STEADY_OVERHEAD_PCT,
        "tasks_per_shard": stats.tasks_per_shard,
        "snapshots_per_shard": stats.snapshots_per_shard,
        "pairs_per_shard": stats.pairs_per_shard,
        "n_boundary_workers": stats.n_boundary_workers,
        "merge_seconds": stats.merge_seconds,
        "plans_identical": True,
    }


def run(include_shard: bool = True) -> dict:
    shapes = {GUARD: bench_meta(META_SPEC)}
    if include_shard:
        shapes[SHARD_ARM] = bench_shard(SHARD_SPEC)
    return {
        "guard_shape": GUARD,
        "shapes": shapes,
        "speedup": shapes[GUARD]["speedup"],
    }


def main() -> None:
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")

    meta = result["shapes"][GUARD]
    t = meta["timings_s"]
    lines = [
        f"{GUARD:13s} {meta['n_leaves']} leaves x {meta['tasks_per_leaf']} tasks"
        f"  per-leaf {t['per_leaf_median']:6.2f} s"
        f" | lockstep {t['lockstep_median']:6.2f} s"
        f" | speedup {meta['speedup']['meta_training']:5.2f}x"
        f" (medians of {meta['repeats']} alternating runs, bit-identical)",
    ]
    if SHARD_ARM in result["shapes"]:
        shard = result["shapes"][SHARD_ARM]
        st = shard["timings_s"]
        lines.append(
            f"{SHARD_ARM:13s} {shard['n_workers']}w x {shard['n_tasks']}t, K={shard['shards']}"
            f"  dense {st['dense']:6.3f} s"
            f" | cold {st['sharded_cold']:6.3f} s"
            f" ({shard['sharding_cold_overhead_pct']:+5.1f}%)"
            f" | steady {st['sharded_steady']:6.3f} s"
            f" ({shard['sharding_overhead_pct']:+5.1f}%,"
            f" limit +{shard['max_steady_overhead_pct']:.0f}%)"
            f" | boundary workers {shard['n_boundary_workers']}"
            f" (medians of {shard['repeats']} alternating runs, plans identical)"
        )
    write_result(
        "dist",
        "\n".join(lines),
        metrics={
            "guard_speedup": meta["speedup"]["meta_training"],
            "available_cpus": meta["available_cpus"],
        },
    )
    print(f"[saved to {OUTPUT}]")


if __name__ == "__main__":
    main()
