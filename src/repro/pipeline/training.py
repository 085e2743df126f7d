"""Offline training stage: cluster, meta-train, and per-worker adaptation.

Produces a :class:`TrainedPredictor` holding a per-worker parameter set
plus the matching rate each worker's model achieved on held-out
windows — the two artefacts the online stage consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.data.generators import City
from repro.meta.ctml import CTMLConfig, ctml_train
from repro.meta.features import build_factor_embeddings, build_similarity_matrices
from repro.meta.gtmc import gtmc_cluster, kmeans_multilevel_cluster
from repro.meta.learning_task import LearningTask
from repro.meta.maml import adapt, learning_path, meta_train
from repro.meta.taml import TAMLConfig, taml_train
from repro.nn import fused
from repro.nn.losses import TaskDensityWeighter, loss_weights, make_loss
from repro.nn.optim import Adam
from repro.nn.seq2seq import LSTMEncoderDecoder, make_mobility_model
from repro.assignment.matching_rate import matching_rate
from repro.pipeline.config import PredictionConfig


@dataclass
class TrainedPredictor:
    """The offline stage's output.

    Attributes
    ----------
    worker_params:
        Per-worker adapted parameter state dicts.
    matching_rates:
        Per-worker MR (Def. 7) on held-out query windows, in km units
        against ``config.mr_threshold_km``.
    model_factory:
        Builds a fresh architecture-compatible model.
    training_seconds:
        Wall-clock TT of the full offline stage (clustering features,
        meta-training, adaptation).
    tree / bank:
        The trained learning task tree (GTTAML variants) or the CTML
        model bank, exposed for newcomer placement and inspection.
    """

    worker_params: dict[int, dict[str, np.ndarray]]
    matching_rates: dict[int, float]
    model_factory: Callable[[], LSTMEncoderDecoder]
    config: PredictionConfig
    city: City
    training_seconds: float = 0.0
    tree: object | None = None
    bank: object | None = None
    loss_name: str = "mse"
    meta_history: list[float] = field(default_factory=list)

    def model_for(self, worker_id: int) -> LSTMEncoderDecoder:
        """A fresh model carrying the worker's adapted parameters."""
        model = self.model_factory()
        if worker_id in self.worker_params:
            model.load_state_dict(self.worker_params[worker_id])
        return model


def probe_learning_paths(
    tasks: Sequence[LearningTask],
    model_factory: Callable[[], LSTMEncoderDecoder],
    loss_fn,
    steps: int,
    lr: float,
    seed: int = 0,
) -> dict[int, np.ndarray]:
    """Record each task's k-step gradient path against one shared probe.

    All tasks are probed from the *same* randomly initialised learner
    (fixed seed) so paths are comparable — the premise of Eq. 2.
    """
    probe = model_factory()
    paths: dict[int, np.ndarray] = {}
    for task in tasks:
        paths[task.worker_id] = learning_path(probe, task, loss_fn, inner_lr=lr, steps=steps)
    return paths


@dataclass(frozen=True)
class MobilityModelFactory:
    """Deterministic, *picklable* mobility-model factory.

    A module-level class rather than a closure so the factory can ride
    a ``multiprocessing`` payload to another process (``spawn`` pickles
    everything it ships).  Calling it
    always builds the same freshly initialised model: the RNG is
    re-seeded per call.
    """

    input_size: int = 2
    hidden_size: int = 16
    seq_out: int = 1
    seed: int = 0

    def __call__(self) -> LSTMEncoderDecoder:
        rng = np.random.default_rng(self.seed)
        return make_mobility_model(
            input_size=self.input_size,
            hidden_size=self.hidden_size,
            seq_out=self.seq_out,
            rng=rng,
        )


def make_model_factory(config: PredictionConfig) -> MobilityModelFactory:
    """Deterministic mobility-model factory for ``config``."""
    return MobilityModelFactory(
        input_size=2,
        hidden_size=config.hidden_size,
        seq_out=config.seq_out,
        seed=config.seed,
    )


def build_loss(config: PredictionConfig, city: City, historical_tasks_xy: np.ndarray):
    """The training loss: plain MSE or the task-oriented weighted MSE.

    The weighter operates in the model's normalised coordinate space,
    so the historical task corpus and the radius ``d_q`` are converted
    with the grid extent.
    """
    if config.loss == "mse":
        return make_loss("mse")
    tasks_xy = np.asarray(historical_tasks_xy, dtype=float).reshape(-1, 2)
    norm_tasks = city.grid.normalize(tasks_xy) if len(tasks_xy) else tasks_xy
    # Normalise the radius by the mean axis scale.
    scale = (city.grid.width_km + city.grid.height_km) / 2.0
    weighter = TaskDensityWeighter(
        norm_tasks,
        d_q=config.loss_d_q_km / scale,
        kappa=config.loss_kappa,
        delta=config.loss_delta,
    )
    return make_loss("task_oriented", weighter)


def train_predictor(
    tasks: Sequence[LearningTask],
    city: City,
    config: PredictionConfig,
    historical_tasks_xy: np.ndarray | None = None,
    factors: Sequence[str] | None = None,
) -> TrainedPredictor:
    """Run the offline stage for one predictor variant.

    ``factors`` optionally restricts the clustering factors (the
    Table IV ablation); defaults to the config's GTMC factor order.
    """
    if not tasks:
        raise ValueError("train_predictor needs at least one learning task")
    rng = np.random.default_rng(config.seed)
    factory = make_model_factory(config)
    hist = historical_tasks_xy if historical_tasks_xy is not None else np.zeros((0, 2))
    loss_fn = build_loss(config, city, hist)

    started = time.perf_counter()
    tree = None
    bank = None
    init_for_worker: Callable[[LearningTask], Mapping[str, np.ndarray]]

    with obs.span("training.offline", algorithm=config.algorithm, loss=config.loss, workers=len(tasks)):
        if config.algorithm == "maml":
            with obs.span("training.meta_train", algorithm="maml"):
                model = factory()
                history = meta_train(model, list(tasks), config.maml, loss_fn, rng=rng)
            shared = model.state_dict()
            init_for_worker = lambda task: shared
        elif config.algorithm == "ctml":
            with obs.span("training.probe_paths"):
                paths = probe_learning_paths(tasks, factory, loss_fn, config.probe_steps, config.probe_lr, config.seed)
            with obs.span("training.meta_train", algorithm="ctml"):
                bank = ctml_train(
                    list(tasks),
                    paths,
                    factory,
                    loss_fn,
                    CTMLConfig(n_clusters=config.ctml_clusters, maml=config.maml),
                    rng=rng,
                )
            history = []
            init_for_worker = lambda task: bank.init_for(task, None)
        else:
            use_factors = tuple(factors) if factors is not None else config.gtmc.factors
            need_paths = "learning_path" in use_factors
            if need_paths:
                with obs.span("training.probe_paths"):
                    paths = probe_learning_paths(
                        tasks, factory, loss_fn, config.probe_steps, config.probe_lr, config.seed
                    )
            else:
                paths = None
            with obs.span("training.cluster", algorithm=config.algorithm, factors=list(use_factors)):
                sims = build_similarity_matrices(tasks, paths, factors=use_factors, rng=rng)
                gtmc_cfg = _with_factors(config.gtmc, use_factors)
                if config.algorithm == "gttaml":
                    tree = gtmc_cluster(tasks, sims, gtmc_cfg, rng=rng)
                else:  # gttaml_gt
                    embeddings = build_factor_embeddings(tasks, paths, factors=use_factors)
                    tree = kmeans_multilevel_cluster(tasks, embeddings, sims, gtmc_cfg, rng=rng)
            with obs.span("training.meta_train", algorithm=config.algorithm):
                taml_cfg = TAMLConfig(maml=config.maml)
                final_loss = taml_train(tree, factory, loss_fn, taml_cfg, rng=rng)
            history = [final_loss]
            leaf_theta = {
                t.worker_id: leaf.theta for leaf in tree.leaves() for t in leaf.cluster
            }
            root_theta = tree.theta
            init_for_worker = lambda task: leaf_theta.get(task.worker_id, root_theta)

        # Per-worker adaptation from the selected initialisation.
        worker_params: dict[int, dict[str, np.ndarray]] = {}
        matching_rates: dict[int, float] = {}
        eval_model = factory()
        with obs.span("training.adapt", workers=len(tasks)):
            for task in tasks:
                theta = dict(init_for_worker(task))
                eval_model.load_state_dict(theta)
                params = fine_tune(eval_model, task, loss_fn, config, rng)
                worker_params[task.worker_id] = params
                matching_rates[task.worker_id] = _held_out_matching_rate(eval_model, params, task, city, config)
                obs.counter("training.workers_adapted")
                obs.histogram("training.worker_mr", matching_rates[task.worker_id])
    elapsed = time.perf_counter() - started

    return TrainedPredictor(
        worker_params=worker_params,
        matching_rates=matching_rates,
        model_factory=factory,
        config=config,
        city=city,
        training_seconds=elapsed,
        tree=tree,
        bank=bank,
        loss_name=config.loss,
        meta_history=list(history),
    )


def fine_tune(
    model: LSTMEncoderDecoder,
    task: LearningTask,
    loss_fn,
    config: PredictionConfig,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Per-worker adaptation from the model's current parameters.

    ``"sgd"`` reuses the MAML inner loop (the few-shot regime where
    meta-initialisation quality shows); ``"adam"`` trains the worker's
    personal model to convergence for the online assignment stage.
    Both run on the fused BPTT kernels.  Returns the adapted state dict;
    the model is left loaded with it.
    """
    if config.fine_tune_optimizer == "sgd":
        params = adapt(
            model,
            task,
            loss_fn,
            inner_lr=config.fine_tune_lr,
            inner_steps=config.fine_tune_steps,
            rng=rng,
        )
        model.load_state_dict(params)
        return params

    optimizer = Adam(model.params, lr=config.fine_tune_lr)
    # Every step fits the same support target, so its loss weights are computed once.
    weights = loss_weights(loss_fn, task.support_y)
    for _ in range(config.fine_tune_steps):
        _, grads = fused.loss_and_grads(
            model, model.params, task.support_x, task.support_y, loss_fn, weights=weights
        )
        optimizer.step(grads)
    return model.state_dict()


def _with_factors(gtmc_cfg, factors: tuple[str, ...]):
    """A GTMC config restricted to a factor subset (ablation support)."""
    from repro.meta.gtmc import GTMCConfig

    return GTMCConfig(
        k=gtmc_cfg.k,
        gamma=gtmc_cfg.gamma,
        factors=tuple(factors),
        thresholds=gtmc_cfg.thresholds[: max(len(factors), 1)]
        if len(gtmc_cfg.thresholds) >= len(factors)
        else tuple(gtmc_cfg.thresholds[0] for _ in factors),
        max_rounds=gtmc_cfg.max_rounds,
    )


def _held_out_matching_rate(
    model: LSTMEncoderDecoder,
    params: dict[str, np.ndarray],
    task: LearningTask,
    city: City,
    config: PredictionConfig,
) -> float:
    """MR of the adapted model on the task's query windows (km units)."""
    qx, qy = task.query_x, task.query_y
    if len(qx) == 0:
        qx, qy = task.support_x, task.support_y
    model.load_state_dict(params)
    pred = model.predict(np.asarray(qx, dtype=float))
    pred_km = city.grid.denormalize(pred.reshape(-1, 2))
    real_km = city.grid.denormalize(np.asarray(qy).reshape(-1, 2))
    return matching_rate(real_km, pred_km, a=config.mr_threshold_km)
