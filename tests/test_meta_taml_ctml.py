"""Tests for TAML (Algorithm 2), newcomer placement, and the CTML baseline."""

import numpy as np
import pytest

from repro.meta.ctml import CTMLConfig, ctml_train
from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig
from repro.meta.task_tree import LearningTaskTree
from repro.meta.taml import TAMLConfig, initialize_from_tree, place_learning_task, taml_train
from repro.nn.losses import mse_loss
from repro.nn.seq2seq import make_mobility_model


def linear_task(worker_id, scale, seed=0, n=16, seq_in=3):
    """A walk along heading ``scale * (0.1, 0.05)``: (n, seq_in, 2)
    windows, each target the next point.  Groups of one scale share a
    heading and a location cluster around ``scale * 10``."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1, 1, size=(n, 1, 2))
    path = start + np.arange(seq_in + 1)[None, :, None] * (scale * np.array([0.1, 0.05]))
    x, y = path[:, :seq_in], path[:, seq_in:]
    half = max(n - 4, 1)
    return LearningTask(
        worker_id,
        x[:half],
        y[:half],
        x[half:],
        y[half:],
        location_sample=rng.normal(scale * 10, 0.5, size=(20, 2)),
    )


def factory():
    return make_mobility_model(hidden_size=8, rng=np.random.default_rng(42))


def small_maml():
    return MAMLConfig(meta_lr=0.1, inner_lr=0.2, inner_steps=2, meta_batch=3, iterations=8)


@pytest.fixture
def two_group_tree():
    """Root with two leaves: scale-1 tasks and scale-2 tasks."""
    g1 = [linear_task(i, 1.0, seed=i) for i in range(3)]
    g2 = [linear_task(i + 10, 2.0, seed=i + 10) for i in range(3)]
    root = LearningTaskTree(cluster=g1 + g2)
    root.add_child(LearningTaskTree(cluster=g1))
    root.add_child(LearningTaskTree(cluster=g2))
    return root, g1, g2


class TestTAML:
    def test_trains_every_node(self, two_group_tree):
        tree, _, _ = two_group_tree
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        for node in tree.iter_nodes():
            assert node.theta is not None

    def test_leaf_thetas_differ(self, two_group_tree):
        tree, _, _ = two_group_tree
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        a, b = tree.children
        diffs = [np.abs(a.theta[k] - b.theta[k]).max() for k in a.theta]
        assert max(diffs) > 1e-4

    def test_root_theta_moves_toward_children_mean(self, two_group_tree):
        tree, _, _ = two_group_tree
        init = factory().state_dict()
        tree.theta = {k: v.copy() for k, v in init.items()}
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml(), tree_rate=1.0), rng=np.random.default_rng(0))
        for key in tree.theta:
            mean_child = np.mean([c.theta[key] for c in tree.children], axis=0)
            assert np.allclose(tree.theta[key], mean_child)

    def test_returns_mean_loss(self, two_group_tree):
        tree, _, _ = two_group_tree
        loss = taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        assert np.isfinite(loss)

    def test_tree_rate_validation(self):
        with pytest.raises(ValueError):
            TAMLConfig(tree_rate=0.0)

    def test_single_leaf_tree(self):
        tasks = [linear_task(i, 1.0, seed=i) for i in range(3)]
        tree = LearningTaskTree(cluster=tasks)
        loss = taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        assert tree.theta is not None
        assert np.isfinite(loss)


class TestNewcomerPlacement:
    def _distribution_sim(self, a, b):
        da = a.location_sample.mean(axis=0)
        db = b.location_sample.mean(axis=0)
        return float(1.0 / (1.0 + np.linalg.norm(da - db)))

    def test_places_newcomer_with_similar_group(self, two_group_tree):
        tree, g1, g2 = two_group_tree
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        newcomer = linear_task(99, 1.0, seed=99)  # similar to group 1
        node = place_learning_task(tree, newcomer, self._distribution_sim)
        g1_ids = {t.worker_id for t in g1}
        assert {t.worker_id for t in node.cluster} <= g1_ids | {t.worker_id for t in tree.cluster}
        # The chosen node should cover group 1's workers, not group 2's.
        covered = set(node.worker_ids())
        assert covered & g1_ids
        assert not covered & {t.worker_id for t in g2} or covered >= g1_ids

    def test_requires_trained_tree(self, two_group_tree):
        tree, _, _ = two_group_tree
        with pytest.raises(ValueError):
            place_learning_task(tree, linear_task(99, 1.0), self._distribution_sim)

    def test_initialize_from_tree_known_worker(self, two_group_tree):
        tree, g1, _ = two_group_tree
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        model = initialize_from_tree(tree, g1[0].worker_id, factory)
        leaf = tree.find_leaf_for_worker(g1[0].worker_id)
        for name, arr in model.state_dict().items():
            assert np.allclose(arr, leaf.theta[name])

    def test_initialize_from_tree_unknown_worker_uses_root(self, two_group_tree):
        tree, _, _ = two_group_tree
        taml_train(tree, factory, mse_loss, TAMLConfig(maml=small_maml()), rng=np.random.default_rng(0))
        model = initialize_from_tree(tree, -1, factory)
        for name, arr in model.state_dict().items():
            assert np.allclose(arr, tree.theta[name])


class TestCTML:
    @pytest.fixture
    def tasks_and_paths(self):
        tasks = [linear_task(i, 1.0 if i < 3 else 2.0, seed=i) for i in range(6)]
        rng = np.random.default_rng(0)
        paths = {t.worker_id: rng.normal(size=(2, 20)) for t in tasks}
        return tasks, paths

    def test_returns_bank_with_cluster_inits(self, tasks_and_paths):
        tasks, paths = tasks_and_paths
        bank = ctml_train(tasks, paths, factory, mse_loss, CTMLConfig(n_clusters=2, maml=small_maml()))
        assert len(bank.initializations) == 2
        assert set(bank.responsibilities) == {t.worker_id for t in tasks}

    def test_responsibilities_normalised(self, tasks_and_paths):
        tasks, paths = tasks_and_paths
        bank = ctml_train(tasks, paths, factory, mse_loss, CTMLConfig(n_clusters=2, maml=small_maml()))
        for resp in bank.responsibilities.values():
            assert resp.sum() == pytest.approx(1.0)

    def test_blended_init_is_convex_combination(self, tasks_and_paths):
        tasks, paths = tasks_and_paths
        bank = ctml_train(tasks, paths, factory, mse_loss, CTMLConfig(n_clusters=2, maml=small_maml()))
        blend = bank.blended_init(np.array([0.5, 0.5]))
        for key in blend:
            manual = 0.5 * bank.initializations[0][key] + 0.5 * bank.initializations[1][key]
            assert np.allclose(blend[key], manual)

    def test_init_for_unseen_task(self, tasks_and_paths):
        tasks, paths = tasks_and_paths
        bank = ctml_train(tasks, paths, factory, mse_loss, CTMLConfig(n_clusters=2, maml=small_maml()))
        newcomer = linear_task(99, 1.0, seed=99)
        init = bank.init_for(newcomer)
        model = factory()
        model.load_state_dict(init)  # shapes must be compatible

    def test_blended_init_validates_length(self, tasks_and_paths):
        tasks, paths = tasks_and_paths
        bank = ctml_train(tasks, paths, factory, mse_loss, CTMLConfig(n_clusters=2, maml=small_maml()))
        with pytest.raises(ValueError):
            bank.blended_init(np.ones(5))

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            ctml_train([], {}, factory, mse_loss)
