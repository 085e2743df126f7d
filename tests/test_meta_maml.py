"""Tests for Algorithm 3 (Meta-Training) and the adaptation machinery."""

import numpy as np
import pytest

from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig, adapt, evaluate_adapted, learning_path, meta_train
from repro.nn.losses import mse_loss
from repro.nn.seq2seq import make_mobility_model


def tiny_model(seed=42):
    """The smallest mobility model: an LSTM encoder-decoder, hidden 8."""
    return make_mobility_model(hidden_size=8, rng=np.random.default_rng(seed))


def walk_task(worker_id, heading, seed, n=24, seq_in=3):
    """A constant-heading walk: (n, seq_in, 2) windows of points from
    random starts, each target the next point along the heading.  The
    mobility analogue of MAML's sinusoid family: the heading is the
    task parameter a few-shot learner has to find."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-1, 1, size=(n, 1, 2))
    path = start + np.arange(seq_in + 1)[None, :, None] * np.asarray(heading)[None, None, :]
    x, y = path[:, :seq_in], path[:, seq_in:]
    half = n // 2
    return LearningTask(worker_id, x[:half], y[:half], x[half:], y[half:])


@pytest.fixture
def model_factory():
    return tiny_model


@pytest.fixture
def walk_tasks():
    """One heading family: a base heading scaled by 0.5-1.5 per worker."""
    rng = np.random.default_rng(0)
    return [walk_task(i, np.array([0.3, -0.2]) * rng.uniform(0.5, 1.5), seed=i) for i in range(6)]


class TestMAMLConfig:
    def test_validates_rates(self):
        with pytest.raises(ValueError):
            MAMLConfig(meta_lr=0.0)
        with pytest.raises(ValueError):
            MAMLConfig(inner_steps=0)
        with pytest.raises(ValueError):
            MAMLConfig(outer="soml")


class TestAdapt:
    def test_reduces_support_loss(self, model_factory, walk_tasks):
        model = model_factory()
        task = walk_tasks[0]
        before = evaluate_adapted(model, model.params, task.support_x, task.support_y, mse_loss)
        adapted = adapt(model, task, mse_loss, inner_lr=0.05, inner_steps=10)
        after = evaluate_adapted(model, adapted, task.support_x, task.support_y, mse_loss)
        assert after < before

    def test_does_not_mutate_model(self, model_factory, walk_tasks):
        model = model_factory()
        snapshot = model.state_dict()
        adapt(model, walk_tasks[0], mse_loss, inner_lr=0.1, inner_steps=3)
        for name, arr in model.state_dict().items():
            assert np.allclose(arr, snapshot[name])

    def test_custom_init_respected(self, model_factory, walk_tasks):
        model = model_factory()
        zero_init = {n: np.zeros_like(p) for n, p in model.params.items()}
        adapted = adapt(model, walk_tasks[0], mse_loss, inner_lr=0.0001, inner_steps=1, init=zero_init)
        # One tiny step from all-zeros stays near zero.
        for arr in adapted.values():
            assert np.abs(arr).max() < 0.1

    def test_evaluate_adapted_empty_inputs(self, model_factory):
        model = model_factory()
        val = evaluate_adapted(model, model.params, np.zeros((0, 3, 2)), np.zeros((0, 1, 2)), mse_loss)
        assert val == 0.0


class TestMetaTrain:
    def test_loss_decreases(self, model_factory, walk_tasks):
        model = model_factory()
        cfg = MAMLConfig(meta_lr=0.02, inner_lr=0.05, inner_steps=3, meta_batch=4, iterations=25)
        history = meta_train(model, walk_tasks, cfg, mse_loss, rng=np.random.default_rng(0))
        assert np.mean(history[-5:]) < np.mean(history[:5])

    def test_meta_initialization_adapts_faster_than_random(self):
        """The point of MAML: after meta-training, few-shot adaptation on a
        new task beats adapting from a random initialisation.

        Uses one heading family (headings within 20% of a base heading)
        where the shared structure is unambiguous at this scale.
        """
        rng = np.random.default_rng(3)
        base = np.array([0.3, -0.2])
        train_tasks = [walk_task(i, base * (1 + rng.uniform(-0.2, 0.2)), seed=i) for i in range(5)]
        new_task = walk_task(99, base, seed=99)

        meta_model = tiny_model()
        cfg = MAMLConfig(meta_lr=0.3, inner_lr=0.05, inner_steps=3, meta_batch=5, iterations=60)
        meta_train(meta_model, train_tasks, cfg, mse_loss, rng=np.random.default_rng(0))

        def few_shot_loss(model):
            adapted = adapt(model, new_task, mse_loss, inner_lr=0.05, inner_steps=3)
            return evaluate_adapted(model, adapted, new_task.query_x, new_task.query_y, mse_loss)

        assert few_shot_loss(meta_model) < 0.5 * few_shot_loss(tiny_model(777))

    def test_reptile_outer_also_trains(self, model_factory, walk_tasks):
        model = model_factory()
        cfg = MAMLConfig(meta_lr=0.5, inner_lr=0.05, inner_steps=3, meta_batch=4, iterations=25, outer="reptile")
        history = meta_train(model, walk_tasks, cfg, mse_loss, rng=np.random.default_rng(0))
        assert np.mean(history[-5:]) < np.mean(history[:5])

    def test_requires_tasks(self, model_factory):
        with pytest.raises(ValueError):
            meta_train(model_factory(), [], MAMLConfig(), mse_loss)


class TestLearningPath:
    def test_shape(self, model_factory, walk_tasks):
        model = model_factory()
        path = learning_path(model, walk_tasks[0], mse_loss, inner_lr=0.05, steps=4)
        assert path.shape == (4, sum(p.size for p in model.params.values()))

    def test_similar_tasks_have_similar_paths(self, model_factory):
        """Tasks from the same heading should produce aligned gradients."""
        from repro.similarity.learning_path import learning_path_similarity

        model = model_factory()
        a1 = walk_task(0, (0.3, 0.1), seed=1)
        a2 = walk_task(1, (0.3, 0.1), seed=2)
        b = walk_task(2, (-0.2, -0.3), seed=3)
        pa1 = learning_path(model, a1, mse_loss, 0.05, 3)
        pa2 = learning_path(model, a2, mse_loss, 0.05, 3)
        pb = learning_path(model, b, mse_loss, 0.05, 3)
        assert learning_path_similarity(pa1, pa2) > learning_path_similarity(pa1, pb)

    def test_rejects_zero_steps(self, model_factory, walk_tasks):
        with pytest.raises(ValueError):
            learning_path(model_factory(), walk_tasks[0], mse_loss, 0.05, 0)
