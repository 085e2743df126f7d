"""Meta-Training (Algorithm 3): first-order MAML over a task cluster.

Per iteration: sample ``m`` learning tasks, adapt ``k`` inner SGD steps
on each task's support set from the shared initialisation, compute the
query losses of the adapted models, and move the initialisation along
the averaged query gradient.  The outer gradient is taken at the
adapted parameters (first-order MAML); a Reptile-style outer update is
available for the ablation benches (``outer="reptile"``).

Two execution paths produce the same numbers (see ``DESIGN.md`` §8):

* the **reference path** runs every forward/backward through the
  autograd tape of :mod:`repro.nn.tensor`;
* the **fast path** (``MAMLConfig.fast_path``) uses the fused BPTT
  kernels of :mod:`repro.nn.fused` for supported models (the seq2seq
  mobility models) and additionally *batches* the inner loop: all
  sampled workers of a meta-batch adapt in one stacked
  ``(workers, batch, time, features)`` pass, with padding/masking for
  ragged support sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.meta.learning_task import LearningTask
from repro.nn import fused
from repro.nn.losses import loss_weights
from repro.nn.module import (
    Module,
    apply_gradient_step,
    clone_parameters,
    flatten_gradients,
)
from repro.nn.tensor import Tensor, grad_of

LossFn = Callable[[Tensor, Tensor], Tensor]


@dataclass(frozen=True, slots=True)
class MAMLConfig:
    """Hyper-parameters of Algorithm 3.

    ``meta_lr`` is the paper's alpha, ``inner_lr`` its beta,
    ``inner_steps`` the adaptation count ``k``, ``meta_batch`` the
    sampled task count ``m``, and ``iterations`` the outer-loop length.

    ``fast_path`` selects the execution engine: ``False`` forces the
    autograd-tape reference path, ``True`` requires the fused BPTT
    kernels (raising for unsupported model types), and ``"auto"`` (the
    default) uses them whenever the model is a supported seq2seq
    encoder-decoder and falls back to the tape otherwise.
    """

    meta_lr: float = 0.05
    inner_lr: float = 0.1
    inner_steps: int = 3
    meta_batch: int = 4
    iterations: int = 30
    support_batch: int = 16
    outer: str = "fomaml"
    fast_path: bool | str = "auto"

    def __post_init__(self) -> None:
        if self.meta_lr <= 0 or self.inner_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps < 1 or self.meta_batch < 1 or self.iterations < 1:
            raise ValueError("step/batch/iteration counts must be positive")
        if self.outer not in ("fomaml", "reptile"):
            raise ValueError(f"unknown outer update '{self.outer}'")
        if self.fast_path not in (True, False, "auto"):
            raise ValueError("fast_path must be True, False, or 'auto'")


def resolve_fast_path(setting: bool | str, model: Module) -> bool:
    """Decide whether the fused kernels drive this model's training."""
    if setting is False:
        return False
    supported = fused.supports(model)
    if setting is True and not supported:
        raise ValueError(
            f"fast_path=True but {type(model).__name__} has no fused kernels; "
            "use fast_path='auto' to fall back to the tape"
        )
    return supported


def _named_grads(
    loss: Tensor,
    params: Mapping[str, Tensor],
) -> dict[str, np.ndarray]:
    names = list(params)
    grads = grad_of(loss, (params[n] for n in names))
    return dict(zip(names, grads))


def adapt(
    model: Module,
    task: LearningTask,
    loss_fn: LossFn,
    inner_lr: float,
    inner_steps: int,
    init: Mapping[str, Tensor] | None = None,
    support_batch: int | None = None,
    rng: np.random.Generator | None = None,
    fast_path: bool | str = "auto",
) -> dict[str, Tensor]:
    """``k`` inner SGD steps on the task's support set.

    Starts from ``init`` (defaults to the model's current parameters)
    and returns the adapted parameter dict; the model itself is never
    mutated.  ``fast_path`` selects the fused-BPTT engine (see
    :class:`MAMLConfig`).
    """
    params = dict(init) if init is not None else clone_parameters(model)
    params = {k: v.clone(requires_grad=True) for k, v in params.items()}
    rng = rng if rng is not None else np.random.default_rng(0)
    fast = resolve_fast_path(fast_path, model)
    obs.counter("maml.inner_loop_steps", inner_steps)
    obs.counter("maml.fused_kernel_invocations" if fast else "maml.tape_invocations", inner_steps)
    # Full-support steps share one target, so its loss weights are computed once.
    weights = loss_weights(loss_fn, task.support_y) if fast and support_batch is None else None
    for _ in range(inner_steps):
        if support_batch is not None:
            xb, yb = task.support_batch(support_batch, rng)
        else:
            xb, yb = task.support_x, task.support_y
        if fast:
            _, grads = fused.loss_and_grads(model, params, xb, yb, loss_fn, weights=weights)
        else:
            pred = model.functional_call(params, Tensor(xb))
            loss = loss_fn(pred, Tensor(yb))
            grads = _named_grads(loss, params)
        params = apply_gradient_step(params, grads, inner_lr)
    return params


def evaluate_adapted(
    model: Module,
    params: Mapping[str, Tensor],
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: LossFn,
) -> float:
    """Loss of a parameter set on given windows (no gradient)."""
    if len(x) == 0:
        return 0.0
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if fused.supports(model):
        pred_arr = fused.seq2seq_predict(model, params, x_arr)
        return float(loss_fn(Tensor(pred_arr), Tensor(y_arr)).item())
    pred = model.functional_call(dict(params), Tensor(x_arr))
    return float(loss_fn(pred, Tensor(y_arr)).item())


def meta_train(
    model: Module,
    tasks: Sequence[LearningTask],
    config: MAMLConfig,
    loss_fn: LossFn,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Run Algorithm 3 in place on ``model``; returns per-iteration
    average query losses (the ``L^avg`` the tree propagates).

    With ``config.fast_path`` active (and window shapes aligned across
    the sampled tasks) each meta-iteration runs as one stacked fused
    pass: all sampled workers adapt simultaneously through batched
    GEMMs instead of per-worker tape replays.
    """
    if not tasks:
        raise ValueError("meta_train needs at least one learning task")
    rng = rng if rng is not None else np.random.default_rng(0)
    history: list[float] = []
    own_params = dict(model.named_parameters())
    fast = resolve_fast_path(config.fast_path, model)

    with obs.span(
        "maml.meta_train",
        tasks=len(tasks),
        iterations=config.iterations,
        engine="fused" if fast else "tape",
    ):
        for _ in range(config.iterations):
            batch_size = min(config.meta_batch, len(tasks))
            chosen = rng.choice(len(tasks), size=batch_size, replace=False)
            batch_tasks = [tasks[int(idx)] for idx in chosen]
            batchable = fast and len({(t.seq_in, t.seq_out) for t in batch_tasks}) == 1

            obs.counter("maml.meta_iterations")
            obs.counter("maml.batched_iterations" if batchable else "maml.sequential_iterations")
            if batchable:
                query_losses, update = _meta_batch_fused(model, batch_tasks, config, loss_fn, rng, own_params)
            else:
                query_losses, update = _meta_batch_sequential(model, batch_tasks, config, loss_fn, rng, own_params, fast)

            for name, param in own_params.items():
                np.subtract(param.data, config.meta_lr * update[name] / batch_size, out=param.data)
            history.append(float(np.mean(query_losses)))
            obs.histogram("maml.query_loss", history[-1])
    return history


def _query_windows(task: LearningTask) -> tuple[np.ndarray, np.ndarray]:
    """Query windows, falling back to the support set for degenerate tasks."""
    if len(task.query_x) == 0:
        return task.support_x, task.support_y
    return task.query_x, task.query_y


def _meta_batch_sequential(
    model: Module,
    batch_tasks: Sequence[LearningTask],
    config: MAMLConfig,
    loss_fn: LossFn,
    rng: np.random.Generator,
    own_params: Mapping[str, Tensor],
    fast: bool,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """One meta-iteration, task by task (the reference control flow)."""
    accum: dict[str, np.ndarray] = {n: np.zeros_like(p.data) for n, p in own_params.items()}
    query_losses: list[float] = []
    for task in batch_tasks:
        adapted = adapt(
            model,
            task,
            loss_fn,
            inner_lr=config.inner_lr,
            inner_steps=config.inner_steps,
            support_batch=config.support_batch,
            rng=rng,
            fast_path=fast,
        )
        qx, qy = _query_windows(task)
        if fast:
            loss_val, grads = fused.loss_and_grads(model, adapted, qx, qy, loss_fn)
        else:
            pred = model.functional_call(adapted, Tensor(qx))
            loss = loss_fn(pred, Tensor(qy))
            loss_val = float(loss.item())
            grads = _named_grads(loss, adapted) if config.outer == "fomaml" else {}
        query_losses.append(loss_val)
        if config.outer == "fomaml":
            for name in accum:
                accum[name] += grads[name]
        else:  # reptile: move toward the adapted parameters
            for name in accum:
                accum[name] += own_params[name].data - adapted[name].data
    return query_losses, accum


def _meta_batch_fused(
    model: Module,
    batch_tasks: Sequence[LearningTask],
    config: MAMLConfig,
    loss_fn: LossFn,
    rng: np.random.Generator,
    own_params: Mapping[str, Tensor],
) -> tuple[list[float], dict[str, np.ndarray]]:
    """One meta-iteration as stacked fused passes over all sampled workers.

    Support batches are pre-drawn task-major so the RNG stream — and
    therefore every number downstream — matches the sequential path;
    the inner loop then consumes them step-major, adapting the whole
    meta-batch per step through one ``(W, B, T, F)`` BPTT pass on
    stacked ``(W, ...)`` parameters.
    """
    n_workers = len(batch_tasks)
    obs.counter("maml.inner_loop_steps", config.inner_steps * n_workers)
    # One stacked kernel invocation adapts the whole meta-batch per step,
    # plus the final stacked query pass.
    obs.counter("maml.fused_kernel_invocations", config.inner_steps + 1)
    drawn = [
        [task.support_batch(config.support_batch, rng) for _ in range(config.inner_steps)]
        for task in batch_tasks
    ]
    stacked = fused.replicate_params(own_params, n_workers)
    for step in range(config.inner_steps):
        xs = [drawn[w][step][0] for w in range(n_workers)]
        ys = [drawn[w][step][1] for w in range(n_workers)]
        _, grads = fused.batched_loss_and_grads(model, stacked, xs, ys, loss_fn)
        for name in stacked:
            stacked[name] -= config.inner_lr * grads[name]

    queries = [_query_windows(task) for task in batch_tasks]
    query_losses, q_grads = fused.batched_loss_and_grads(
        model, stacked, [q[0] for q in queries], [q[1] for q in queries], loss_fn
    )
    if config.outer == "fomaml":
        update = {name: q_grads[name].sum(axis=0) for name in q_grads}
    else:  # reptile
        update = {
            name: (own_params[name].data[None, ...] - stacked[name]).sum(axis=0)
            for name in stacked
        }
    return query_losses, update


def learning_path(
    model: Module,
    task: LearningTask,
    loss_fn: LossFn,
    inner_lr: float,
    steps: int,
    init: Mapping[str, Tensor] | None = None,
    fast_path: bool | str = "auto",
) -> np.ndarray:
    """The k-step gradient path ``Z^(i)`` of Eq. 2.

    Trains a probe learner on the task for ``steps`` full-support SGD
    steps from ``init`` (default: the model's current parameters) and
    returns the ``(steps, p)`` matrix of flattened gradients observed
    along the way.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    params = dict(init) if init is not None else clone_parameters(model)
    params = {k: v.clone(requires_grad=True) for k, v in params.items()}
    fast = resolve_fast_path(fast_path, model)
    weights = loss_weights(loss_fn, task.support_y) if fast else None
    path: list[np.ndarray] = []
    for _ in range(steps):
        if fast:
            _, grads = fused.loss_and_grads(
                model, params, task.support_x, task.support_y, loss_fn, weights=weights
            )
        else:
            pred = model.functional_call(params, Tensor(task.support_x))
            loss = loss_fn(pred, Tensor(task.support_y))
            grads = _named_grads(loss, params)
        path.append(flatten_gradients(grads))
        params = apply_gradient_step(params, grads, inner_lr)
    return np.stack(path)
