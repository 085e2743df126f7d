"""Task Adaptive Meta-learning over the learning task tree (Algorithm 2).

Leaves run Meta-Training (Algorithm 3) and interior nodes fold their
children's results upward.  Each node's ``theta`` starts from its
parent's, so every leaf starts from the root's; after the children
train, the parent takes an aggregation step along the children's
average direction (line 6: ``theta <- theta - alpha * grad(L^avg)``;
with first-order semantics the realised child updates *are* the
accumulated negative gradients, so the parent steps toward the mean
child parameters).

Also implements newcomer placement: a depth-first post-order traversal
that initialises a new worker's model from the most similar node
(Section III-B, closing paragraphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.meta.learning_task import LearningTask
from repro.meta.maml import LossFn, MAMLConfig, meta_train_clusters
from repro.meta.task_tree import LearningTaskTree
from repro.nn.seq2seq import LSTMEncoderDecoder


@dataclass(frozen=True, slots=True)
class TAMLConfig:
    """Algorithm 2 configuration.

    ``maml`` configures the per-leaf Meta-Training; ``tree_rate`` is
    the interior-node aggregation step toward the mean child
    parameters (1.0 reproduces "take the averaged child update in
    full"; smaller values damp the upward propagation).
    """

    maml: MAMLConfig = MAMLConfig()
    tree_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tree_rate <= 1.0:
            raise ValueError("tree_rate must lie in (0, 1]")


def taml_train(
    tree: LearningTaskTree,
    model_factory: Callable[[], LSTMEncoderDecoder],
    loss_fn: LossFn,
    config: TAMLConfig | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Train the whole tree in place; returns the root's average loss.

    Every node ends with a populated ``theta`` state dict.  Each interior
    node hands its ``theta`` to its children before they train, so every
    leaf starts Meta-Training from the root's; all leaves therefore train
    in one lockstep call (:func:`repro.meta.maml.meta_train_clusters`,
    in leaf order), and the interior nodes then fold bottom-up.
    """
    cfg = config if config is not None else TAMLConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    model = model_factory()
    if tree.theta is None:
        # Root initialisation: a fresh model seeds theta_0.
        tree.theta = model.state_dict()
    root_theta = tree.theta
    leaves = tree.leaves()
    with obs.span("taml.train", nodes=tree.n_nodes(), depth=tree.depth()):
        obs.gauge("taml.tree_depth", tree.depth())
        obs.gauge("taml.tree_nodes", tree.n_nodes())
        thetas = [{k: v.copy() for k, v in root_theta.items()} for _ in leaves]
        histories = meta_train_clusters(
            model, [leaf.cluster for leaf in leaves], thetas, cfg.maml, loss_fn, rng
        )
        obs.counter("taml.leaves_trained", len(leaves))
        leaf_losses: dict[int, float] = {}
        for leaf, theta, history in zip(leaves, thetas, histories):
            leaf.theta = theta
            leaf_losses[id(leaf)] = history[-1]
            obs.histogram("taml.leaf_loss", history[-1])
        return _fold(tree, root_theta, cfg.tree_rate, leaf_losses)


def _fold(
    node: LearningTaskTree,
    root_theta: Mapping[str, np.ndarray],
    tree_rate: float,
    leaf_losses: Mapping[int, float],
) -> float:
    """Algorithm 2's bottom-up aggregation; returns the node's average loss.

    Line 6 steps an interior node, which still holds the root's
    ``theta``, toward its children's mean parameters.
    """
    if node.is_leaf:
        return leaf_losses[id(node)]
    losses = [_fold(child, root_theta, tree_rate, leaf_losses) for child in node.children]
    mean_child = {
        key: np.mean([child.theta[key] for child in node.children], axis=0)
        for key in root_theta
    }
    node.theta = {
        key: root_theta[key] + tree_rate * (mean_child[key] - root_theta[key])
        for key in root_theta
    }
    return float(np.mean(losses))


def place_learning_task(
    tree: LearningTaskTree,
    newcomer: LearningTask,
    similarity_fn: Callable[[LearningTask, LearningTask], float],
) -> LearningTaskTree:
    """Find the tree node most similar to a newly arrived worker.

    Depth-first post-order over the trained tree, scoring each node by
    the average similarity between the newcomer and the node's leaf-
    covered learning tasks; returns the best node (whose ``theta``
    should initialise the newcomer's model).
    """
    if tree.theta is None:
        raise ValueError("place_learning_task requires a trained tree")
    best_node = tree
    best_score = -np.inf
    for node in tree.iter_postorder():
        members = _covered_tasks(node)
        if not members:
            continue
        score = float(np.mean([similarity_fn(newcomer, t) for t in members]))
        if score > best_score:
            best_score = score
            best_node = node
    return best_node


def _covered_tasks(node: LearningTaskTree) -> list[LearningTask]:
    """Learning tasks under a node (its own cluster at leaves)."""
    if node.is_leaf:
        return list(node.cluster)
    out: list[LearningTask] = []
    for child in node.children:
        out.extend(_covered_tasks(child))
    return out


def initialize_from_tree(
    tree: LearningTaskTree,
    worker_id: int,
    model_factory: Callable[[], LSTMEncoderDecoder],
) -> LSTMEncoderDecoder:
    """Build a model initialised from the leaf containing ``worker_id``.

    Falls back to the root initialisation when the worker is unknown
    (e.g. before newcomer placement has been run).
    """
    leaf = tree.find_leaf_for_worker(worker_id)
    theta: Mapping[str, np.ndarray] | None = leaf.theta if leaf is not None else tree.theta
    model = model_factory()
    if theta is not None:
        model.load_state_dict(dict(theta))
    return model
