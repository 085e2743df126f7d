"""Parallel TAML meta-training over the learning-task tree.

Algorithm 2's structure is embarrassingly parallel at the leaves: every
interior node copies its ``theta`` to its children *before* they train,
so by induction every leaf cluster starts Meta-Training (Algorithm 3)
from the same root initialisation, independent of its siblings.  The
interior aggregation afterwards is a pure bottom-up fold.  This module
exploits exactly that:

1. **fan out** — one job per leaf, each carrying the root ``theta``, the
   leaf's learning tasks, the frozen :class:`~repro.meta.maml.MAMLConfig`
   and its *own* RNG (spawned once from the coordinator generator, so
   the schedule is a function of the leaf index, never of scheduling);
2. **reduce in leaf order** — results are consumed in ``tree.leaves()``
   order and the interior fold replays ``taml_train``'s arithmetic
   verbatim, so merged parameters are bit-identical whatever executed
   the leaves.

Two executors produce those leaf results:

* the **pool path** (process backend, or serial with ``workers=1``)
  runs plain :func:`~repro.meta.maml.meta_train` per leaf;
* the **gang path** (serial backend, ``workers>1``) adapts up to
  ``workers`` leaves *in lockstep*: each meta-iteration stacks every
  gang member's sampled meta-batch into one
  ``(sum of batches, B, T, F)`` fused BPTT pass.  The fused kernels are
  slice-stable — each worker slice of a stacked pass is bitwise equal
  to the same slice computed alone (independent same-shape GEMMs per
  slice) — so gang width changes wall-clock, never results.  Leaves are
  grouped per iteration by the exact shapes of their drawn support/query
  windows; a leaf whose shapes match nobody simply runs a width-1 pass,
  which *is* the per-leaf fused path.

Parity contract (pinned by ``tests/test_dist_meta.py``): for any
backend and any ``workers``, :func:`dist_taml_train` produces
bit-identical parameters on every tree node.  Note the dist schedule is
deliberately *not* the legacy ``taml_train`` schedule — the legacy path
threads one RNG sequentially through the leaves, which no parallel
execution can reproduce — so ``dist_taml_train(workers=1)`` is the
serial reference for the dist family, while ``taml_train`` remains the
untouched default everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.dist.backend import (
    Backend,
    DistConfig,
    SerialBackend,
    resolve_backend,
)
from repro.meta.learning_task import LearningTask
from repro.meta.maml import (
    LossFn,
    MAMLConfig,
    draw_support,
    meta_step,
    meta_train,
    query_windows,
    require_fused,
    sample_meta_batch,
)
from repro.meta.taml import TAMLConfig
from repro.meta.task_tree import LearningTaskTree
from repro.nn.module import Module


@dataclass(frozen=True)
class LeafJob:
    """One leaf cluster's meta-training, as a picklable payload.

    Everything a pool worker needs and nothing ambient: the (picklable)
    model factory, the leaf's tasks, the frozen MAML config, the loss,
    the starting parameters, and the leaf's own spawned generator.
    """

    factory: Callable[[], Module]
    tasks: tuple[LearningTask, ...]
    config: MAMLConfig
    loss_fn: LossFn
    theta: Mapping[str, np.ndarray]
    rng: np.random.Generator


def run_leaf_job(job: LeafJob) -> tuple[dict[str, np.ndarray], list[float]]:
    """Meta-train one leaf from its payload (the pool worker entry).

    Module-level (not a closure) so every start method can import it.
    """
    model = job.factory()
    model.load_state_dict(dict(job.theta))
    history = meta_train(model, list(job.tasks), job.config, job.loss_fn, rng=job.rng)
    return model.state_dict(), history


def check_meta_backend(dist: DistConfig) -> None:
    """Reject a backend meta-training cannot run on: shard servers."""
    if dist.backend == "shard_server":
        raise ValueError(
            "DistConfig.backend 'shard_server' does not run meta-training; "
            "use 'serial' or 'process'"
        )


def dist_taml_train(
    tree: LearningTaskTree,
    model_factory: Callable[[], Module],
    loss_fn: LossFn,
    config: TAMLConfig | None = None,
    dist: DistConfig | None = None,
    rng: np.random.Generator | None = None,
    backend: Backend | None = None,
) -> float:
    """Train the tree with parallel leaves; returns the root's loss.

    Drop-in counterpart of :func:`repro.meta.taml.taml_train` with a
    parallel-friendly RNG schedule (see the module docstring).  Pass an
    explicit ``backend`` to reuse a pool across calls; otherwise one is
    resolved from ``dist`` and released before returning.  Shard
    servers serve :class:`repro.dist.serve.ShardedEngine` only, so a
    ``"shard_server"`` backend is rejected (:func:`check_meta_backend`).
    """
    cfg = config if config is not None else TAMLConfig()
    dcfg = dist if dist is not None else DistConfig()
    check_meta_backend(dcfg)
    model = model_factory()
    require_fused(model, "dist_taml_train")
    rng = rng if rng is not None else np.random.default_rng(0)
    if tree.theta is None:
        tree.theta = model.state_dict()
    maml_cfg = cfg.maml
    leaves = tree.leaves()
    leaf_rngs = rng.spawn(len(leaves))

    owns_backend = backend is None
    resolved = backend if backend is not None else resolve_backend(dcfg)
    with obs.span(
        "dist.taml_train",
        leaves=len(leaves),
        backend=type(resolved).__name__,
        workers=dcfg.workers,
    ):
        try:
            gang_width = dcfg.workers if isinstance(resolved, SerialBackend) else 1
            if gang_width > 1:
                results = _gang_train_leaves(
                    model, model_factory, leaves, maml_cfg, loss_fn, tree.theta, leaf_rngs, gang_width
                )
            else:
                jobs = [
                    LeafJob(
                        factory=model_factory,
                        tasks=tuple(leaf.cluster),
                        config=maml_cfg,
                        loss_fn=loss_fn,
                        theta={k: v.copy() for k, v in tree.theta.items()},
                        rng=leaf_rngs[i],
                    )
                    for i, leaf in enumerate(leaves)
                ]
                results = resolved.map_ordered(run_leaf_job, jobs)
        finally:
            if owns_backend:
                resolved.close()

    leaf_losses: dict[int, float] = {}
    for leaf, (theta, history) in zip(leaves, results):
        leaf.theta = theta
        leaf_losses[id(leaf)] = history[-1] if history else 0.0

    # Interior thetas start where the serial recursion leaves them right
    # before aggregation: a copy of the root initialisation (the copy
    # cascades down ahead of training).
    root_theta = tree.theta
    for node in tree.iter_nodes():
        if not node.is_leaf and node is not tree:
            node.theta = {k: v.copy() for k, v in root_theta.items()}
    return _fold(tree, cfg.tree_rate, leaf_losses)


def _fold(node: LearningTaskTree, tree_rate: float, leaf_losses: Mapping[int, float]) -> float:
    """Replay ``_train_node``'s bottom-up aggregation, arithmetic intact."""
    if node.is_leaf:
        return leaf_losses[id(node)]
    losses = [_fold(child, tree_rate, leaf_losses) for child in node.children]
    mean_child = {
        key: np.mean([child.theta[key] for child in node.children], axis=0)
        for key in node.theta
    }
    node.theta = {
        key: node.theta[key] + tree_rate * (mean_child[key] - node.theta[key])
        for key in node.theta
    }
    return float(np.mean(losses))


# ----------------------------------------------------------------------
# gang executor: lockstep fused meta-training across leaves
# ----------------------------------------------------------------------
def _gang_train_leaves(
    model: Module,
    model_factory: Callable[[], Module],
    leaves: Sequence[LearningTaskTree],
    cfg: MAMLConfig,
    loss_fn: LossFn,
    root_theta: Mapping[str, np.ndarray],
    rngs: Sequence[np.random.Generator],
    width: int,
) -> list[tuple[dict[str, np.ndarray], list[float]]]:
    """Train all leaves, ganging eligible ones ``width`` at a time.

    Eligible = the leaf's tasks share one ``(seq_in, seq_out)`` shape,
    so every meta-iteration of the per-leaf reference is one
    :func:`~repro.meta.maml.meta_step`, which the gang mirrors.
    Ineligible leaves fall back to the per-leaf reference — same
    results, no stacking.
    """
    results: list[tuple[dict[str, np.ndarray], list[float]] | None] = [None] * len(leaves)

    eligible: list[int] = []
    for i, leaf in enumerate(leaves):
        if len({(t.seq_in, t.seq_out) for t in leaf.cluster}) == 1:
            eligible.append(i)
        else:
            results[i] = run_leaf_job(
                LeafJob(
                    factory=model_factory,
                    tasks=tuple(leaf.cluster),
                    config=cfg,
                    loss_fn=loss_fn,
                    theta={k: v.copy() for k, v in root_theta.items()},
                    rng=rngs[i],
                )
            )

    for start in range(0, len(eligible), width):
        gang = eligible[start : start + width]
        obs.counter("dist.meta.gangs")
        gang_out = _train_gang(
            model,
            [list(leaves[i].cluster) for i in gang],
            cfg,
            loss_fn,
            root_theta,
            [rngs[i] for i in gang],
        )
        for i, out in zip(gang, gang_out):
            results[i] = out
    return results  # type: ignore[return-value]


def _train_gang(
    model: Module,
    gang_tasks: Sequence[Sequence[LearningTask]],
    cfg: MAMLConfig,
    loss_fn: LossFn,
    root_theta: Mapping[str, np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> list[tuple[dict[str, np.ndarray], list[float]]]:
    """Lockstep meta-training of one gang of leaf clusters.

    Mirrors ``meta_train`` exactly, per member: the member RNG draws the
    task choice then the task-major support batches, and each group of
    members whose windows agree in shape runs one shared
    :func:`~repro.meta.maml.meta_step` — so each member slice of every
    kernel call carries the very operands the per-leaf path would have
    used.
    """
    n = len(gang_tasks)
    thetas = [{k: np.array(v, copy=True) for k, v in root_theta.items()} for _ in range(n)]
    histories: list[list[float]] = [[] for _ in range(n)]

    for _ in range(cfg.iterations):
        # Per-member sampling, exactly the per-leaf RNG consumption order.
        draws: list[list[list[tuple[np.ndarray, np.ndarray]]]] = []
        queries: list[list[tuple[np.ndarray, np.ndarray]]] = []
        groups: dict[tuple, list[int]] = {}
        for g in range(n):
            batch_tasks = sample_meta_batch(gang_tasks[g], cfg, rngs[g])
            draws.append(draw_support(batch_tasks, cfg, rngs[g]))
            queries.append([query_windows(task) for task in batch_tasks])
            # Stacking is only bitwise-safe between members whose window
            # shapes agree position for position (identical padding and
            # identical loss dispatch); the signature captures that.
            sig = (
                tuple(tuple((x.shape, y.shape) for (x, y) in task) for task in draws[g]),
                tuple((qx.shape, qy.shape) for (qx, qy) in queries[g]),
            )
            groups.setdefault(sig, []).append(g)

        for members in groups.values():
            losses = meta_step(
                model,
                [thetas[g] for g in members],
                [draws[g] for g in members],
                [queries[g] for g in members],
                cfg,
                loss_fn,
            )
            for g, loss in zip(members, losses):
                histories[g].append(loss)

    return [(thetas[g], histories[g]) for g in range(n)]
