"""The task-oriented loss's closed form against its tape reference.

``fused.loss_grad_wrt_pred`` evaluates the weighted MSE of Eqs. 6-7 in
closed form, training loops on one fixed target compute its weights
once, and a rollout prepares the model's weights once.  The loss on the
autograd tape (``tests/tape.py``) and the per-point ``model.predict``
loop are the references: loss values, ``dL/dpred``,
trained parameters and predicted points must be equal with ``==``,
because a last-bit difference in one gradient changes every parameter
trained after it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import build_learning_tasks
from repro.meta.maml import MAMLConfig
from repro.nn import fused
from repro.nn.losses import TaskDensityWeighter, loss_weights, mse_loss
from repro.nn.seq2seq import make_mobility_model
from repro.pipeline.config import PredictionConfig
from repro.pipeline.prediction import rollout
from repro.pipeline.training import (
    build_loss,
    fine_tune,
    make_model_factory,
    probe_learning_paths,
    train_predictor,
)
from tests.tape import Tensor, tape_loss


def tape_loss_grad(loss_fn, pred, target, weights=None):
    """Reference: the loss on a tape whose only leaf is the prediction.

    ``weights`` is ignored, so the loss recomputes ``f_w`` from the
    target on every call.
    """
    pred_t = Tensor(np.array(pred, dtype=np.float64), requires_grad=True)
    loss = tape_loss(loss_fn)(pred_t, Tensor(np.asarray(target, dtype=np.float64)))
    loss.backward()
    return float(loss.data), pred_t.grad


def assert_parity(weighter, pred, target):
    ref_value, ref_grad = tape_loss_grad(weighter.loss, pred, target)
    for weights in (None, loss_weights(weighter.loss, target)):
        value, grad = fused.loss_grad_wrt_pred(weighter.loss, pred, target, weights)
        assert value == ref_value
        assert grad.shape == ref_grad.shape
        assert np.array_equal(grad, ref_grad)


# ----------------------------------------------------------------------
# The loss value and dL/dpred.

#: Dyadic radii: a point placed ``d_q`` from a dyadic corpus task sits
#: at exactly that distance, the boundary of the ball count.
RADII = [0.0625, 0.125, 0.25]


class TestClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(
        windows=st.integers(1, 40),
        seq_out=st.integers(1, 4),
        n_tasks=st.integers(0, 30),
        d_q=st.sampled_from(RADII),
        kappa=st.floats(0.01, 0.99),
        delta=st.floats(0.01, 2.0),
        far=st.floats(0.0, 1.0),
        on_radius=st.booleans(),
        noise=st.floats(-8.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_cases(self, windows, seq_out, n_tasks, d_q, kappa, delta, far, on_radius,
                         noise, seed):
        rng = np.random.default_rng(seed)
        corpus = rng.uniform(0.0, 1.0, size=(n_tasks, 2))
        if n_tasks:
            corpus[0] = (0.25, 0.5)
        target = rng.uniform(-0.2, 1.2, size=(windows, seq_out, 2))
        # Points far outside the corpus have no task within d_q: f_w = delta.
        target[rng.uniform(size=(windows, seq_out)) < far] += 10.0
        if on_radius and n_tasks:
            target[0, 0] = (0.25 + d_q, 0.5)
        pred = target + rng.normal(0.0, 10.0**noise, size=target.shape)
        weighter = TaskDensityWeighter(corpus, d_q=d_q, kappa=kappa, delta=delta)
        assert_parity(weighter, pred, target)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2026)
        for _ in range(2000):
            corpus = rng.uniform(0.0, 1.0, size=(int(rng.integers(0, 60)), 2))
            weighter = TaskDensityWeighter(
                corpus,
                d_q=float(rng.uniform(0.01, 0.5)),
                kappa=float(rng.uniform(0.01, 0.99)),
                delta=float(rng.uniform(0.01, 2.0)),
            )
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 4)), 2)
            target = rng.uniform(-0.2, 1.2, size=shape)
            pred = target + rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 0.0), size=shape)
            assert_parity(weighter, pred, target)

    def test_points_on_the_radius_and_far_away(self):
        corpus = np.array([[0.25, 0.5], [0.0, 0.0], [1.0, 1.0]])
        weighter = TaskDensityWeighter(corpus, d_q=0.125, kappa=0.5, delta=0.5)
        target = np.array([[[0.375, 0.5]], [[10.0, 10.0]]])
        # The ball count includes its boundary; the far point is delta-only.
        assert weighter.weights(target).tolist() == [[1.0], [0.5]]
        assert_parity(weighter, target + 0.01, target)

    def test_empty_corpus_is_plain_weighted_by_delta(self):
        weighter = TaskDensityWeighter(np.zeros((0, 2)), d_q=0.1, kappa=0.5, delta=0.3)
        target = np.random.default_rng(1).uniform(size=(5, 2, 2))
        weights = loss_weights(weighter.loss, target)
        assert weights.shape == (5, 2) and np.ptp(weights) == 0.0
        assert_parity(weighter, target * 0.9, target)

    def test_unweighted_losses_have_no_weights(self):
        assert loss_weights(mse_loss, np.zeros((1, 1, 2))) is None

    def test_closed_form_builds_no_tensor(self, monkeypatch):
        weighter = TaskDensityWeighter(np.random.default_rng(0).uniform(size=(20, 2)), d_q=0.2)
        target = np.random.default_rng(1).uniform(size=(6, 2, 2))
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        fused.loss_grad_wrt_pred(weighter.loss, target + 0.1, target)
        assert built == []
        tape_loss_grad(weighter.loss, target + 0.1, target)
        assert built  # the spy sees the reference's tensors


# ----------------------------------------------------------------------
# f_w once per fixed target.


def spy_weights(monkeypatch):
    calls = []
    weights = TaskDensityWeighter.weights

    def counting_weights(self, points_xy):
        calls.append(np.shape(points_xy))
        return weights(self, points_xy)

    monkeypatch.setattr(TaskDensityWeighter, "weights", counting_weights)
    return calls


class TestWeightsOncePerTarget:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_fine_tune_evaluates_f_w_once(self, monkeypatch, small_workload, learning_tasks,
                                          optimizer):
        config = PredictionConfig(
            loss="task_oriented", seq_in=4, hidden_size=8,
            fine_tune_optimizer=optimizer, fine_tune_steps=60,
        )
        loss_fn = build_loss(config, small_workload.city, small_workload.historical_tasks_xy)
        task = learning_tasks[0]
        calls = spy_weights(monkeypatch)
        fine_tune(make_model_factory(config)(), task, loss_fn, config, np.random.default_rng(0))
        assert calls == [task.support_y.shape]

    def test_probe_evaluates_f_w_once_per_task(self, monkeypatch, small_workload, learning_tasks):
        config = PredictionConfig(loss="task_oriented", seq_in=4, hidden_size=8, probe_steps=5)
        loss_fn = build_loss(config, small_workload.city, small_workload.historical_tasks_xy)
        calls = spy_weights(monkeypatch)
        probe_learning_paths(
            learning_tasks, make_model_factory(config), loss_fn, config.probe_steps, config.probe_lr
        )
        assert len(calls) == len(learning_tasks)


# ----------------------------------------------------------------------
# End to end: a trained predictor and a rollout.


@pytest.mark.parametrize("optimizer,seq_out", [("adam", 1), ("sgd", 2)])
def test_train_predictor_equals_the_tape_loss_run(monkeypatch, small_city_and_workers,
                                                  small_workload, optimizer, seq_out):
    city, workers = small_city_and_workers
    tasks = build_learning_tasks(
        {w.worker_id: w.history for w in workers}, city, seq_in=4, seq_out=seq_out, seed=7
    )
    config = PredictionConfig(
        algorithm="gttaml",
        loss="task_oriented",
        seq_in=4,
        seq_out=seq_out,
        hidden_size=8,
        fine_tune_optimizer=optimizer,
        fine_tune_steps=8,
        maml=MAMLConfig(iterations=3, meta_batch=3, inner_steps=2, support_batch=8),
    )
    fast = train_predictor(tasks, city, config, small_workload.historical_tasks_xy)
    taped_calls = []

    def counting_tape_loss_grad(*args):
        taped_calls.append(1)
        return tape_loss_grad(*args)

    monkeypatch.setattr(fused, "loss_grad_wrt_pred", counting_tape_loss_grad)
    taped = train_predictor(tasks, city, config, small_workload.historical_tasks_xy)
    assert taped_calls  # every loss of the second run went through the tape
    assert fast.matching_rates == taped.matching_rates
    assert fast.worker_params.keys() == taped.worker_params.keys()
    for worker_id, params in fast.worker_params.items():
        for name, value in params.items():
            assert np.array_equal(value, taped.worker_params[worker_id][name]), (worker_id, name)


def per_point_rollout(model, recent_norm, horizon_points):
    """Reference: one ``model.predict`` call (weights prepared anew) per block."""
    window = np.asarray(recent_norm, dtype=float).copy()
    out = []
    while sum(len(o) for o in out) < horizon_points:
        pred = model.predict(window)
        out.append(pred)
        window = np.concatenate([window, pred])[-len(recent_norm):]
    return np.concatenate(out)[:horizon_points]


@pytest.mark.parametrize("seq_out", [1, 2])
def test_rollout_equals_the_per_point_predict_loop(seq_out):
    rng = np.random.default_rng(4)
    model = make_mobility_model(hidden_size=6, seq_out=seq_out, rng=rng)
    for _ in range(5):
        recent = rng.uniform(0.0, 1.0, size=(5, 2))
        for horizon in (1, 2, 5, 6, 7):
            assert np.array_equal(
                rollout(model, recent, horizon, seq_out), per_point_rollout(model, recent, horizon)
            )
