"""Tests for losses, especially the task assignment-oriented loss (Eqs. 6-7)."""

import numpy as np
import pytest

from repro.nn.losses import (
    TaskDensityWeighter,
    mae_loss,
    make_loss,
    mse_loss,
    weighted_mse_loss,
)


class TestBasicLosses:
    def test_mse_zero_on_equal(self, rng):
        x = rng.normal(size=(3, 2))
        assert mse_loss(x, x.copy())[0] == pytest.approx(0.0)

    def test_mse_value(self):
        assert mse_loss(np.array([[1.0, 1.0]]), np.zeros((1, 2)))[0] == pytest.approx(1.0)

    def test_mae_value(self):
        assert mae_loss(np.array([[2.0, -2.0]]), np.zeros((1, 2)))[0] == pytest.approx(2.0)

    def test_mse_gradient(self):
        _, grad = mse_loss(np.array([[1.0, 2.0]]), np.zeros((1, 2)))
        assert np.allclose(grad, [[1.0, 2.0]])  # 2*(p-t)/n, n=2


class TestWeightedMSE:
    def test_uniform_weights_equal_mse(self, rng):
        pred = rng.normal(size=(4, 3, 2))
        target = rng.normal(size=(4, 3, 2))
        w = np.ones((4, 3))
        assert weighted_mse_loss(pred, target, w)[0] == pytest.approx(mse_loss(pred, target)[0])

    def test_weight_scales_contribution(self):
        pred = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        target = np.zeros((2, 1, 2))
        heavy = weighted_mse_loss(pred, target, np.array([[2.0], [0.0]]))[0]
        light = weighted_mse_loss(pred, target, np.array([[0.0], [2.0]]))[0]
        assert heavy == pytest.approx(light)  # symmetric here
        uniform = weighted_mse_loss(pred, target, np.ones((2, 1)))[0]
        assert heavy == pytest.approx(uniform)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            weighted_mse_loss(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), np.array([[-1.0]]))

    def test_gradient_respects_weights(self):
        _, grad = weighted_mse_loss(np.ones((2, 1, 2)), np.zeros((2, 1, 2)), np.array([[3.0], [1.0]]))
        # Row with weight 3 has triple the gradient of the weight-1 row.
        assert np.allclose(grad[0], 3.0 * grad[1])


class TestTaskDensityWeighter:
    @pytest.fixture
    def weighter(self):
        # Historical tasks clumped at the origin.
        tasks = np.concatenate([
            np.random.default_rng(0).normal(0, 0.3, size=(80, 2)),
            np.random.default_rng(1).uniform(5, 10, size=(20, 2)),
        ])
        return TaskDensityWeighter(tasks, d_q=1.0, kappa=0.5, delta=0.5)

    def test_weight_higher_near_tasks(self, weighter):
        near = weighter.weights(np.array([[0.0, 0.0]]))[0]
        far = weighter.weights(np.array([[100.0, 100.0]]))[0]
        assert near > far
        assert far == pytest.approx(weighter.delta)

    def test_weights_shape_follows_leading_dims(self, weighter):
        pts = np.zeros((4, 3, 2))
        assert weighter.weights(pts).shape == (4, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TaskDensityWeighter(np.zeros((1, 2)), d_q=0.0)
        with pytest.raises(ValueError):
            TaskDensityWeighter(np.zeros((1, 2)), kappa=1.5)
        with pytest.raises(ValueError):
            TaskDensityWeighter(np.zeros((1, 2)), delta=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("d_q", float("nan")),
            ("d_q", float("inf")),
            ("kappa", float("nan")),
            ("kappa", float("inf")),
            ("delta", float("nan")),
            ("delta", float("inf")),
        ],
    )
    def test_non_finite_parameter_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TaskDensityWeighter(np.zeros((1, 2)), **{field: value})

    def test_empty_corpus_gives_constant_delta(self):
        w = TaskDensityWeighter(np.zeros((0, 2)), d_q=1.0, kappa=0.5, delta=0.7)
        vals = w.weights(np.random.default_rng(2).normal(size=(10, 2)))
        assert np.allclose(vals, 0.7)

    def test_loss_prefers_accuracy_near_tasks(self, weighter):
        """Within a batch, the same raw error costs more at points in
        task-dense regions (the paper's point).  Weights are normalised
        to batch mean 1, so the comparison must hold both points in one
        batch."""
        targets = np.array([[[0.0, 0.0]], [[100.0, 100.0]]])  # near, far
        err = np.array([[[0.5, 0.0]], [[0.0, 0.0]]])  # error only at the near point
        err_swapped = np.array([[[0.0, 0.0]], [[0.5, 0.0]]])  # error only far
        loss_near_err, _ = weighter.loss(targets + err, targets)
        loss_far_err, _ = weighter.loss(targets + err_swapped, targets)
        assert loss_near_err > loss_far_err

    def test_loss_weights_normalised_to_mean_one(self, weighter):
        """A single-point batch reduces to plain MSE after normalisation."""
        target = np.zeros((1, 1, 2))
        pred = np.array([[[0.5, 0.0]]])
        assert weighter.loss(pred, target)[0] == pytest.approx(mse_loss(pred, target)[0])


class TestMakeLoss:
    def test_known_names(self):
        assert make_loss("mse") is mse_loss
        assert make_loss("mae") is mae_loss

    def test_task_oriented_requires_weighter(self):
        with pytest.raises(ValueError):
            make_loss("task_oriented")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_loss("nope")
