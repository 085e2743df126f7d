"""Meta-Training (Algorithm 3): first-order MAML over a task cluster.

Per iteration: sample ``m`` learning tasks, adapt ``k`` inner SGD steps
on each task's support set from the shared initialisation, compute the
query losses of the adapted models, and move the initialisation along
the averaged query gradient.  The outer gradient is taken at the
adapted parameters (first-order MAML); a Reptile-style outer update is
available for the ablation benches (``outer="reptile"``).

Every forward/backward runs on the fused BPTT kernels of
:mod:`repro.nn.fused` over the LSTM encoder-decoder that
:func:`repro.nn.seq2seq.make_mobility_model` builds (see ``DESIGN.md``
§8); parameter sets are mappings of named arrays.  Several clusters
meta-train in lockstep (:func:`meta_train_clusters`, which TAML and CTML
call once for all their clusters): every iteration, the meta-batches
whose windows share one shape adapt in one stacked
``(workers, batch, time, features)`` pass (:func:`meta_step`); a
mixed-shape meta-batch adapts task by task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.meta.learning_task import LearningTask
from repro.nn import fused
from repro.nn.losses import LossFn, loss_weights
from repro.nn.optim import apply_gradient_step, flatten_gradients
from repro.nn.seq2seq import LSTMEncoderDecoder

#: One task's pre-drawn support batches, one ``(x, y)`` per inner step.
SupportDraws = Sequence[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True, slots=True)
class MAMLConfig:
    """Hyper-parameters of Algorithm 3.

    ``meta_lr`` is the paper's alpha, ``inner_lr`` its beta,
    ``inner_steps`` the adaptation count ``k``, ``meta_batch`` the
    sampled task count ``m``, and ``iterations`` the outer-loop length.
    """

    meta_lr: float = 0.05
    inner_lr: float = 0.1
    inner_steps: int = 3
    meta_batch: int = 4
    iterations: int = 30
    support_batch: int = 16
    outer: str = "fomaml"

    def __post_init__(self) -> None:
        if self.meta_lr <= 0 or self.inner_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps < 1 or self.meta_batch < 1 or self.iterations < 1:
            raise ValueError("step/batch/iteration counts must be positive")
        if self.outer not in ("fomaml", "reptile"):
            raise ValueError(f"unknown outer update '{self.outer}'")


def _start_params(
    model: LSTMEncoderDecoder, init: Mapping[str, np.ndarray] | None
) -> dict[str, np.ndarray]:
    """Copies of ``init``, or of the model's own parameters."""
    source = init if init is not None else model.params
    return {k: v.copy() for k, v in source.items()}


def adapt(
    model: LSTMEncoderDecoder,
    task: LearningTask,
    loss_fn: LossFn,
    inner_lr: float,
    inner_steps: int,
    init: Mapping[str, np.ndarray] | None = None,
    support_batch: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, np.ndarray]:
    """``k`` inner SGD steps on the task's support set.

    Starts from ``init`` (defaults to the model's current parameters)
    and returns the adapted parameter dict; the model itself is never
    mutated.
    """
    params = _start_params(model, init)
    rng = rng if rng is not None else np.random.default_rng(0)
    obs.counter("maml.inner_loop_steps", inner_steps)
    obs.counter("maml.fused_kernel_invocations", inner_steps)
    # Full-support steps share one target, so its loss weights are computed once.
    weights = loss_weights(loss_fn, task.support_y) if support_batch is None else None
    for _ in range(inner_steps):
        if support_batch is not None:
            xb, yb = task.support_batch(support_batch, rng)
        else:
            xb, yb = task.support_x, task.support_y
        _, grads = fused.loss_and_grads(model, params, xb, yb, loss_fn, weights=weights)
        params = apply_gradient_step(params, grads, inner_lr)
    return params


def evaluate_adapted(
    model: LSTMEncoderDecoder,
    params: Mapping[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: LossFn,
) -> float:
    """Loss of a parameter set on given windows."""
    if len(x) == 0:
        return 0.0
    pred = fused.seq2seq_predict(model, params, np.asarray(x, dtype=float))
    return loss_fn(pred, np.asarray(y, dtype=float))[0]


def meta_train(
    model: LSTMEncoderDecoder,
    tasks: Sequence[LearningTask],
    config: MAMLConfig,
    loss_fn: LossFn,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Run Algorithm 3 in place on ``model``; returns per-iteration
    average query losses (the ``L^avg`` the tree propagates).

    This is :func:`meta_train_clusters` with one cluster.
    """
    (history,) = meta_train_clusters(model, [tasks], [model.params], config, loss_fn, rng)
    return history


def meta_train_clusters(
    model: LSTMEncoderDecoder,
    clusters: Sequence[Sequence[LearningTask]],
    thetas: Sequence[dict[str, np.ndarray]],
    config: MAMLConfig,
    loss_fn: LossFn,
    rng: np.random.Generator | None = None,
) -> list[list[float]]:
    """Run Algorithm 3 on every cluster in lockstep, cluster ``c`` from
    ``thetas[c]``, which takes its updates in place.  Returns each
    cluster's per-iteration average query losses.

    No draw depends on a parameter: the task choice and the support
    batches read only cluster sizes.  So every cluster's whole schedule
    is drawn from ``rng`` up front, in cluster order, which is the
    order one :func:`meta_train` call per cluster consumes.  Each
    iteration then runs every group of clusters whose drawn windows
    agree in shape, position for position, as one :func:`meta_step`.
    The fused kernels are slice-stable, so each cluster's numbers equal
    its own one-cluster run bit for bit.  A meta-batch that mixes
    ``(seq_in, seq_out)`` adapts task by task.
    """
    if any(len(tasks) == 0 for tasks in clusters):
        raise ValueError("meta_train needs at least one learning task per cluster")
    rng = rng if rng is not None else np.random.default_rng(0)
    schedules = [
        [_draw_iteration(tasks, config, rng) for _ in range(config.iterations)]
        for tasks in clusters
    ]
    histories: list[list[float]] = [[] for _ in clusters]

    with obs.span(
        "maml.meta_train",
        clusters=len(clusters),
        tasks=sum(len(tasks) for tasks in clusters),
        iterations=config.iterations,
    ):
        for it in range(config.iterations):
            obs.counter("maml.meta_iterations", len(clusters))
            groups: dict[tuple, list[int]] = {}
            for c, schedule in enumerate(schedules):
                draws, queries = schedule[it]
                if len({(x.shape[1:], y.shape[1:]) for x, y in queries}) > 1:
                    obs.counter("maml.sequential_iterations")
                    loss = _meta_step_sequential(model, thetas[c], draws, queries, config, loss_fn)
                    histories[c].append(loss)
                    obs.histogram("maml.query_loss", loss)
                    continue
                # Stacking is bitwise-safe only between clusters whose
                # windows agree position for position: identical padding
                # and identical loss dispatch.
                signature = (
                    tuple(tuple((x.shape, y.shape) for x, y in task) for task in draws),
                    tuple((qx.shape, qy.shape) for qx, qy in queries),
                )
                groups.setdefault(signature, []).append(c)
            for members in groups.values():
                obs.counter("maml.batched_iterations", len(members))
                losses = meta_step(
                    model,
                    [thetas[c] for c in members],
                    [schedules[c][it][0] for c in members],
                    [schedules[c][it][1] for c in members],
                    config,
                    loss_fn,
                )
                for c, loss in zip(members, losses):
                    histories[c].append(loss)
                    obs.histogram("maml.query_loss", loss)
    return histories


def _draw_iteration(
    tasks: Sequence[LearningTask], config: MAMLConfig, rng: np.random.Generator
) -> tuple[list[SupportDraws], list[tuple[np.ndarray, np.ndarray]]]:
    """One meta-iteration's draws: ``m`` tasks without replacement, then
    every inner step's support batch, task-major (the order in which
    :func:`adapt` draws them task by task), plus the query windows."""
    chosen = rng.choice(len(tasks), size=min(config.meta_batch, len(tasks)), replace=False)
    batch = [tasks[int(idx)] for idx in chosen]
    draws = [
        [task.support_batch(config.support_batch, rng) for _ in range(config.inner_steps)]
        for task in batch
    ]
    # Degenerate tasks without query windows are scored on their support set.
    queries = [
        (task.query_x, task.query_y) if len(task.query_x) else (task.support_x, task.support_y)
        for task in batch
    ]
    return draws, queries


def meta_step(
    model: LSTMEncoderDecoder,
    thetas: Sequence[Mapping[str, np.ndarray]],
    draws: Sequence[Sequence[SupportDraws]],
    queries: Sequence[Sequence[tuple[np.ndarray, np.ndarray]]],
    config: MAMLConfig,
    loss_fn: LossFn,
) -> list[float]:
    """One meta-iteration of several initialisations as stacked fused passes.

    Member ``g`` owns ``thetas[g]``, its sampled tasks' pre-drawn
    support batches ``draws[g]`` (task-major, see :func:`_draw_iteration`)
    and their query windows ``queries[g]``; every member's windows must
    share one shape.  Each task gets a replica of its member's theta;
    the inner loop adapts all replicas per step through one
    ``(W, B, T, F)`` BPTT pass, one stacked query pass follows, and each
    member's theta then takes its FOMAML or Reptile update in place.
    The fused kernels are slice-stable, so a member's numbers do not
    depend on who else shares the pass.  Returns each member's mean
    query loss.
    """
    sizes = [len(member) for member in queries]
    tasks_draws = [task for member in draws for task in member]
    tasks_queries = [q for member in queries for q in member]
    obs.counter("maml.inner_loop_steps", config.inner_steps * len(tasks_draws))
    # One stacked kernel invocation per inner step, plus the query pass.
    obs.counter("maml.fused_kernel_invocations", config.inner_steps + 1)
    stacked = {
        name: np.concatenate(
            [np.repeat(theta[name][None, ...], b, axis=0) for theta, b in zip(thetas, sizes)]
        )
        for name in thetas[0]
    }
    for step in range(config.inner_steps):
        xs = [task[step][0] for task in tasks_draws]
        ys = [task[step][1] for task in tasks_draws]
        _, grads = fused.batched_loss_and_grads(model, stacked, xs, ys, loss_fn)
        for name in stacked:
            stacked[name] -= config.inner_lr * grads[name]
    query_losses, q_grads = fused.batched_loss_and_grads(
        model, stacked, [q[0] for q in tasks_queries], [q[1] for q in tasks_queries], loss_fn
    )

    member_losses: list[float] = []
    offset = 0
    for theta, b in zip(thetas, sizes):
        block = slice(offset, offset + b)
        offset += b
        for name, arr in theta.items():
            if config.outer == "fomaml":
                update = q_grads[name][block].sum(axis=0)
            else:  # reptile: move toward the adapted parameters
                update = (arr[None, ...] - stacked[name][block]).sum(axis=0)
            np.subtract(arr, config.meta_lr * update / b, out=arr)
        member_losses.append(float(np.mean(query_losses[block])))
    return member_losses


def _meta_step_sequential(
    model: LSTMEncoderDecoder,
    theta: dict[str, np.ndarray],
    draws: Sequence[SupportDraws],
    queries: Sequence[tuple[np.ndarray, np.ndarray]],
    config: MAMLConfig,
    loss_fn: LossFn,
) -> float:
    """One meta-iteration task by task, for a mixed-shape meta-batch,
    from its pre-drawn support batches.

    Updates ``theta`` in place and returns the mean query loss.
    """
    obs.counter("maml.inner_loop_steps", config.inner_steps * len(draws))
    obs.counter("maml.fused_kernel_invocations", config.inner_steps * len(draws))
    accum = {name: np.zeros_like(arr) for name, arr in theta.items()}
    query_losses: list[float] = []
    for task_draws, (qx, qy) in zip(draws, queries):
        adapted = theta
        for xb, yb in task_draws:
            _, grads = fused.loss_and_grads(model, adapted, xb, yb, loss_fn)
            adapted = {name: arr - config.inner_lr * grads[name] for name, arr in adapted.items()}
        loss_val, grads = fused.loss_and_grads(model, adapted, qx, qy, loss_fn)
        query_losses.append(loss_val)
        for name in accum:
            if config.outer == "fomaml":
                accum[name] += grads[name]
            else:  # reptile: move toward the adapted parameters
                accum[name] += theta[name] - adapted[name]
    for name, arr in theta.items():
        np.subtract(arr, config.meta_lr * accum[name] / len(draws), out=arr)
    return float(np.mean(query_losses))


def learning_path(
    model: LSTMEncoderDecoder,
    task: LearningTask,
    loss_fn: LossFn,
    inner_lr: float,
    steps: int,
    init: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """The k-step gradient path ``Z^(i)`` of Eq. 2.

    Trains a probe learner on the task for ``steps`` full-support SGD
    steps from ``init`` (default: the model's current parameters) and
    returns the ``(steps, p)`` matrix of flattened gradients observed
    along the way.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    params = _start_params(model, init)
    weights = loss_weights(loss_fn, task.support_y)
    path: list[np.ndarray] = []
    for _ in range(steps):
        _, grads = fused.loss_and_grads(
            model, params, task.support_x, task.support_y, loss_fn, weights=weights
        )
        path.append(flatten_gradients(grads))
        params = apply_gradient_step(params, grads, inner_lr)
    return np.stack(path)
