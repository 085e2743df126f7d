"""Lockstep meta-training against one sequential run per cluster.

``meta_train_clusters`` draws every cluster's schedule from the one
generator up front, in cluster order, then trains all clusters together,
stacking those whose windows agree in shape into one fused pass.  The
reference here trains the clusters one after another: one
``meta_train`` call per cluster, in cluster order, sharing the
generator (and, for the tree, the recursive fold).  Every node theta, the returned loss and the
generator's final state must be ``==`` to it, not merely close: the
generator state is what keeps fine-tuning, and so every downstream
number, unchanged.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cluster.soft_kmeans import soft_kmeans
from repro.meta import maml
from repro.meta.ctml import CTMLConfig, ctml_train
from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig, meta_train
from repro.meta.taml import TAMLConfig, taml_train
from repro.meta.task_tree import LearningTaskTree
from repro.nn.losses import TaskDensityWeighter, make_loss, mse_loss
from repro.pipeline.training import MobilityModelFactory

SEQ_IN, SEQ_OUT = 4, 2

FACTORY = MobilityModelFactory(hidden_size=6, seq_out=SEQ_OUT, seed=42)
MAML = MAMLConfig(
    meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2, iterations=4, support_batch=8
)


def traj_task(worker_id, seed, n=18, seq_in=SEQ_IN, seq_out=SEQ_OUT):
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.normal(size=(n, seq_in, 2)).cumsum(axis=1)
    y = x[:, -1:, :] + 0.05 * rng.normal(size=(n, seq_out, 2)).cumsum(axis=1)
    half = max(n - 5, 1)
    return LearningTask(worker_id, x[:half], y[:half], x[half:], y[half:])


def make_tree(groups):
    """A root over one mid node per pair of groups, one leaf per group."""
    root = LearningTaskTree(cluster=[t for g in groups for t in g])
    for start in range(0, len(groups), 2):
        pair = groups[start : start + 2]
        mid = LearningTaskTree(cluster=[t for g in pair for t in g])
        root.add_child(mid)
        for g in pair:
            mid.add_child(LearningTaskTree(cluster=g))
    return root


def uniform_groups(n_leaves=4, tasks_per_leaf=3):
    return [
        [traj_task(10 * g + i, seed=100 * g + i) for i in range(tasks_per_leaf)]
        for g in range(n_leaves)
    ]


def reference_taml(node, loss_fn, cfg, rng):
    """Algorithm 2 as a recursion: one ``meta_train`` per leaf, in order."""
    if node.is_leaf:
        model = FACTORY()
        model.load_state_dict(node.theta)
        history = meta_train(model, node.cluster, cfg.maml, loss_fn, rng=rng)
        node.theta = model.state_dict()
        return history[-1]
    losses = []
    for child in node.children:
        child.theta = {k: v.copy() for k, v in node.theta.items()}
        losses.append(reference_taml(child, loss_fn, cfg, rng))
    mean_child = {
        key: np.mean([child.theta[key] for child in node.children], axis=0)
        for key in node.theta
    }
    node.theta = {
        key: node.theta[key] + cfg.tree_rate * (mean_child[key] - node.theta[key])
        for key in node.theta
    }
    return float(np.mean(losses))


def sequential_clusters(model, clusters, thetas, config, loss_fn, rng=None):
    """``meta_train_clusters``'s contract, one ``meta_train`` per cluster."""
    histories = []
    for tasks, theta in zip(clusters, thetas):
        one = FACTORY()
        one.load_state_dict(theta)
        histories.append(meta_train(one, tasks, config, loss_fn, rng=rng))
        theta.update(one.state_dict())
    return histories


def assert_identical(ref_thetas, got_thetas):
    assert len(ref_thetas) == len(got_thetas)
    for a, b in zip(ref_thetas, got_thetas):
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key


def check_taml(groups, maml_cfg=MAML, loss_fn=mse_loss, seed=7, tree_rate=1.0):
    """Lockstep ``taml_train`` == the per-leaf recursion; returns the
    widest stacked meta-step and the number of sequential steps."""
    cfg = TAMLConfig(maml=maml_cfg, tree_rate=tree_rate)
    ref_tree, got_tree = make_tree(groups), make_tree(groups)
    ref_tree.theta = FACTORY().state_dict()
    ref_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_loss = reference_taml(ref_tree, loss_fn, cfg, ref_rng)

    widths = []
    real_step = maml.meta_step

    def spy_step(model, thetas, *args):
        widths.append(len(thetas))
        return real_step(model, thetas, *args)

    with mock.patch.object(maml, "meta_step", spy_step), mock.patch.object(
        maml, "_meta_step_sequential", wraps=maml._meta_step_sequential
    ) as sequential:
        got_loss = taml_train(got_tree, FACTORY, loss_fn, cfg, rng=got_rng)

    assert got_loss == ref_loss
    assert_identical(
        [n.theta for n in ref_tree.iter_nodes()], [n.theta for n in got_tree.iter_nodes()]
    )
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    return max(widths, default=0), sequential.call_count


class TestTAMLLockstep:
    def test_uniform_leaves_stack_and_match(self):
        widest, sequential = check_taml(uniform_groups())
        assert widest == 4  # all four leaves shared one pass
        assert sequential == 0

    def test_leaves_whose_tasks_mix_window_shapes(self):
        """One leaf mixes seq_in and one mixes seq_out: with the whole
        leaf in every meta-batch, those leaves step task by task while
        the uniform leaves still stack."""
        groups = uniform_groups()
        groups[1] = [traj_task(20 + i, seed=20 + i, seq_in=SEQ_IN + i % 2) for i in range(2)]
        groups[2] = [traj_task(30 + i, seed=30 + i, seq_out=1 + i % 2) for i in range(2)]
        widest, sequential = check_taml(groups)
        assert widest == 2
        assert sequential == 2 * MAML.iterations

    def test_iterations_whose_meta_batch_mixes_shapes(self):
        """Two of three tasks per iteration from a leaf with two shapes:
        some iterations draw one shape and stack, others step task by
        task."""
        groups = uniform_groups()
        groups[0] = [traj_task(i, seed=60 + i, seq_in=SEQ_IN + (i == 2)) for i in range(3)]
        cfg = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2, iterations=8,
            support_batch=8,
        )
        widest, sequential = check_taml(groups, maml_cfg=cfg, seed=3)
        assert 0 < sequential < cfg.iterations
        assert widest == 4

    def test_one_task_leaves(self):
        """``meta_batch`` exceeds the cluster size: each one-task leaf
        samples its whole cluster every iteration."""
        groups = uniform_groups()
        groups[1] = [traj_task(50, seed=50)]
        groups[3] = [traj_task(51, seed=51)]
        cfg = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=3, iterations=4,
            support_batch=8,
        )
        widest, _ = check_taml(groups, maml_cfg=cfg)
        assert widest == 2

    def test_support_sets_smaller_than_support_batch(self):
        """A support set under ``support_batch`` is used whole, so its
        window count differs from the subsampled leaves': the shape
        groups split, and each split stays bit-identical."""
        groups = uniform_groups()
        groups[0] = [traj_task(70 + i, seed=70 + i, n=9 + i) for i in range(3)]
        groups[3] = [traj_task(80 + i, seed=80 + i, n=10) for i in range(3)]
        widest, _ = check_taml(groups)
        assert widest == 2

    def test_reptile_outer(self):
        cfg = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2, iterations=4,
            support_batch=8, outer="reptile",
        )
        widest, _ = check_taml(uniform_groups(), maml_cfg=cfg, tree_rate=0.6)
        assert widest == 4

    def test_task_oriented_loss(self):
        weighter = TaskDensityWeighter(np.array([[0.2, 0.3], [0.7, 0.8], [0.1, -0.2]]))
        widest, _ = check_taml(uniform_groups(), loss_fn=make_loss("task_oriented", weighter))
        assert widest == 4

    def test_lone_leaf_root(self):
        """A tree that is one leaf trains its root as that leaf."""
        tree = LearningTaskTree(cluster=uniform_groups(1)[0])
        ref = LearningTaskTree(cluster=list(tree.cluster))
        ref.theta = FACTORY().state_dict()
        ref_rng, got_rng = np.random.default_rng(2), np.random.default_rng(2)
        ref_loss = reference_taml(ref, mse_loss, TAMLConfig(maml=MAML), ref_rng)
        assert taml_train(tree, FACTORY, mse_loss, TAMLConfig(maml=MAML), rng=got_rng) == ref_loss
        assert_identical([ref.theta], [tree.theta])
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_seeds_root_theta_when_missing(self):
        tree = make_tree(uniform_groups())
        assert tree.theta is None
        taml_train(tree, FACTORY, mse_loss, TAMLConfig(maml=MAML), rng=np.random.default_rng(0))
        assert all(node.theta is not None for node in tree.iter_nodes())

    def test_interior_fold_steps_toward_mean_child(self):
        """With tree_rate=1 every interior node is the mean of its children."""
        tree = make_tree(uniform_groups())
        taml_train(tree, FACTORY, mse_loss, TAMLConfig(maml=MAML), rng=np.random.default_rng(7))
        for node in tree.iter_nodes():
            if node.is_leaf:
                continue
            for key in node.theta:
                mean_child = np.mean([c.theta[key] for c in node.children], axis=0)
                np.testing.assert_array_equal(node.theta[key], mean_child)


class TestCTMLLockstep:
    TASKS = [traj_task(i, seed=200 + i, n=9 + i % 5) for i in range(10)]
    PATHS = {t.worker_id: np.random.default_rng(t.worker_id).normal(size=(3, 7)) for t in TASKS}

    def _run(self, n_clusters, seed, lockstep=True):
        cfg = CTMLConfig(n_clusters=n_clusters, maml=MAML)
        rng = np.random.default_rng(seed)
        if lockstep:
            bank = ctml_train(self.TASKS, self.PATHS, FACTORY, mse_loss, cfg, rng=rng)
        else:
            with mock.patch("repro.meta.ctml.meta_train_clusters", sequential_clusters):
                bank = ctml_train(self.TASKS, self.PATHS, FACTORY, mse_loss, cfg, rng=rng)
        return bank, rng.bit_generator.state

    @pytest.mark.parametrize("n_clusters,seed", [(2, 1), (3, 2), (4, 5)])
    def test_matches_per_cluster_meta_train(self, n_clusters, seed):
        ref, ref_state = self._run(n_clusters, seed, lockstep=False)
        got, got_state = self._run(n_clusters, seed)
        assert_identical(ref.initializations, got.initializations)
        assert got_state == ref_state

    def test_empty_cluster_keeps_the_base(self):
        """A cluster that wins no task keeps the base initialisation; the
        other clusters still match the per-cluster reference."""

        def no_cluster_one(*args, **kwargs):
            result = soft_kmeans(*args, **kwargs)
            result.labels = np.where(result.labels == 1, 0, result.labels)
            return result

        runs = {}
        for lockstep in (False, True):
            with mock.patch("repro.meta.ctml.soft_kmeans", no_cluster_one):
                runs[lockstep] = self._run(3, 4, lockstep=lockstep)
        (ref, ref_state), (got, got_state) = runs[False], runs[True]
        assert_identical(ref.initializations, got.initializations)
        assert got_state == ref_state


class TestEngineContract:
    def test_meta_train_is_one_cluster(self):
        tasks = uniform_groups(1)[0]
        model, theta = FACTORY(), FACTORY().state_dict()
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        history = meta_train(model, tasks, MAML, mse_loss, rng=rng_a)
        (got,) = maml.meta_train_clusters(FACTORY(), [tasks], [theta], MAML, mse_loss, rng_b)
        assert got == history
        assert_identical([model.state_dict()], [theta])

    def test_empty_cluster_is_rejected(self):
        theta = FACTORY().state_dict()
        with pytest.raises(ValueError, match="at least one learning task"):
            maml.meta_train_clusters(FACTORY(), [[]], [theta], MAML, mse_loss)
