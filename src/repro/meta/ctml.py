"""CTML baseline: clustered task-aware meta-learning (Peng & Pan, 2023).

The comparison algorithm of Section IV-A: learning tasks are embedded
by their input-data features and parameter-update learning paths,
clustered with *soft* k-means, and MAML runs inside each cluster.  A
task's initialisation is the responsibility-weighted blend of the
cluster initialisations, which is CTML's signature soft assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.cluster.soft_kmeans import soft_kmeans
from repro.meta.features import distribution_embedding, path_embedding
from repro.meta.learning_task import LearningTask
from repro.meta.maml import LossFn, MAMLConfig, meta_train, meta_train_clusters
from repro.nn.seq2seq import LSTMEncoderDecoder


@dataclass(frozen=True, slots=True)
class CTMLConfig:
    """CTML knobs: cluster count, soft-assignment stiffness, MAML loop."""

    n_clusters: int = 3
    beta: float = 5.0
    path_dim: int = 32
    maml: MAMLConfig = MAMLConfig()

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")


@dataclass
class CTMLModelBank:
    """Trained CTML state: per-cluster initialisations + soft assignments.

    ``initializations[c]`` is the state dict of cluster ``c``;
    ``responsibilities`` maps each training worker id to its ``(k,)``
    soft membership.  ``blended_init`` produces the weighted-average
    initialisation for any responsibility vector.
    """

    initializations: list[dict[str, np.ndarray]]
    responsibilities: dict[int, np.ndarray]
    centers: np.ndarray
    embedding_fn: Callable[[LearningTask, Mapping[int, np.ndarray] | None], np.ndarray]
    beta: float

    def blended_init(self, resp: np.ndarray) -> dict[str, np.ndarray]:
        resp = np.asarray(resp, dtype=float)
        if resp.shape != (len(self.initializations),):
            raise ValueError("responsibility vector length mismatch")
        total = float(resp.sum())
        if total <= 0:
            resp = np.full_like(resp, 1.0 / len(resp))
        else:
            resp = resp / total
        keys = self.initializations[0].keys()
        return {
            k: sum(r * init[k] for r, init in zip(resp, self.initializations))
            for k in keys
        }

    def responsibilities_for(
        self, task: LearningTask, paths: Mapping[int, np.ndarray] | None = None
    ) -> np.ndarray:
        """Soft membership of an unseen task against the trained centres."""
        emb = self.embedding_fn(task, paths)
        d2 = ((self.centers - emb[None, :]) ** 2).sum(axis=1)
        logits = -self.beta * d2
        logits -= logits.max()
        resp = np.exp(logits)
        return resp / resp.sum()

    def init_for(
        self, task: LearningTask, paths: Mapping[int, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Blended initialisation for a task.

        Training workers reuse the responsibilities recorded during
        clustering (their embedding included the learning path);
        unseen (newcomer) tasks are embedded on the fly, with ``paths``
        optionally supplying their probe path.
        """
        stored = self.responsibilities.get(task.worker_id)
        if stored is not None:
            return self.blended_init(stored)
        return self.blended_init(self.responsibilities_for(task, paths))


def _ctml_embedding(
    task: LearningTask, paths: Mapping[int, np.ndarray] | None, path_dim: int
) -> np.ndarray:
    """CTML's task embedding: input-feature moments + learning path."""
    parts = [distribution_embedding(task)]
    if paths is not None and task.worker_id in paths:
        parts.append(path_embedding(paths[task.worker_id], dim=path_dim))
    else:
        parts.append(np.zeros(path_dim))
    return np.concatenate(parts)


def ctml_train(
    tasks: Sequence[LearningTask],
    paths: Mapping[int, np.ndarray],
    model_factory: Callable[[], LSTMEncoderDecoder],
    loss_fn: LossFn,
    config: CTMLConfig | None = None,
    rng: np.random.Generator | None = None,
) -> CTMLModelBank:
    """Cluster softly, meta-train per cluster, return the model bank."""
    cfg = config if config is not None else CTMLConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    if not tasks:
        raise ValueError("ctml_train needs at least one learning task")

    embeddings = np.stack([_ctml_embedding(t, paths, cfg.path_dim) for t in tasks])
    # Standardise so no single feature dominates the distances.
    mu = embeddings.mean(axis=0)
    sd = embeddings.std(axis=0)
    normed = (embeddings - mu) / np.maximum(sd, 1e-9)
    clustering = soft_kmeans(normed, k=cfg.n_clusters, beta=cfg.beta, rng=rng)

    # Warm-start: a shared base meta-trained on everything, so the
    # per-cluster initialisations stay in one loss basin and their
    # responsibility-weighted blends remain meaningful (blending
    # independently trained networks is destructive).
    base = model_factory()
    base_iters = max(cfg.maml.iterations // 3, 1)
    base_cfg = replace(cfg.maml, iterations=base_iters)
    meta_train(base, list(tasks), base_cfg, loss_fn, rng=rng)
    base_state = base.state_dict()

    # Every non-empty cluster meta-trains from the base, all in one
    # lockstep call; an empty cluster keeps the base.
    n_clusters = clustering.centers.shape[0]
    members = [
        [t for t, lab in zip(tasks, clustering.labels) if lab == c] for c in range(n_clusters)
    ]
    initializations = [{k: v.copy() for k, v in base_state.items()} for _ in members]
    trained = [c for c, group in enumerate(members) if group]
    meta_train_clusters(
        base,
        [members[c] for c in trained],
        [initializations[c] for c in trained],
        cfg.maml,
        loss_fn,
        rng,
    )

    responsibilities = {
        t.worker_id: clustering.responsibilities[i] for i, t in enumerate(tasks)
    }

    def embedding_fn(task: LearningTask, p: Mapping[int, np.ndarray] | None) -> np.ndarray:
        raw = _ctml_embedding(task, p, cfg.path_dim)
        return (raw - mu) / np.maximum(sd, 1e-9)

    return CTMLModelBank(
        initializations=initializations,
        responsibilities=responsibilities,
        centers=clustering.centers,
        embedding_fn=embedding_fn,
        beta=cfg.beta,
    )
