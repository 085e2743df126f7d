"""The fused training engine against an autograd-tape reference.

The meta-training stack runs only on the fused BPTT kernels.  This file
keeps the tape (``tests/tape.py``) as the reference: a small
re-implementation of the inner loop, the meta-iteration and
fine-tuning on the tape's gradients, fed the same RNG draws.  ``adapt``, ``meta_train`` (both outer updates,
stacked and sequential meta-batches), ``taml_train`` (against a
per-leaf recursion over the tape ``meta_train``) and ``fine_tune``
must agree with it.  The two engines share no backward code, so
agreement here is a strong check on both.
"""

import numpy as np
import pytest

from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig, adapt, meta_train
from repro.meta.taml import TAMLConfig, taml_train
from repro.meta.task_tree import LearningTaskTree
from repro.nn.losses import TaskDensityWeighter, mse_loss
from repro.nn.optim import Adam, apply_gradient_step
from repro.nn.seq2seq import make_mobility_model
from repro.pipeline.config import PredictionConfig
from repro.pipeline.training import fine_tune
from tests.tape import tape_loss_and_grads

RTOL = 1e-6
ATOL = 1e-8

SEQ_IN, SEQ_OUT = 4, 2


def traj_task(worker_id, seed, n=20, seq_in=SEQ_IN, seq_out=SEQ_OUT):
    """A drifting-random-walk trajectory task with (n, seq, 2) windows."""
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.normal(size=(n, seq_in, 2)).cumsum(axis=1)
    y = x[:, -1:, :] + 0.05 * rng.normal(size=(n, seq_out, 2)).cumsum(axis=1)
    half = n - 6
    return LearningTask(worker_id, x[:half], y[:half], x[half:], y[half:])


def fresh_model(seq_out=SEQ_OUT):
    return make_mobility_model(hidden_size=6, seq_out=seq_out, rng=np.random.default_rng(42))


def assert_state_dicts_close(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_allclose(a[name], b[name], rtol=RTOL, atol=ATOL, err_msg=name)


# ----------------------------------------------------------------------
# The tape reference: Algorithm 3 and fine-tuning on the autograd tape.


def tape_adapt(model, task, loss_fn, inner_lr, inner_steps, support_batch=None, rng=None):
    params = model.state_dict()
    rng = rng if rng is not None else np.random.default_rng(0)
    for _ in range(inner_steps):
        if support_batch is not None:
            xb, yb = task.support_batch(support_batch, rng)
        else:
            xb, yb = task.support_x, task.support_y
        _, grads = tape_loss_and_grads(model, params, xb, yb, loss_fn)
        params = apply_gradient_step(params, grads, inner_lr)
    return params


def tape_meta_train(model, tasks, config, loss_fn, rng=None):
    """Task-by-task Algorithm 3: the same draws, in the same order."""
    rng = rng if rng is not None else np.random.default_rng(0)
    own = model.params
    history = []
    for _ in range(config.iterations):
        size = min(config.meta_batch, len(tasks))
        chosen = rng.choice(len(tasks), size=size, replace=False)
        accum = {name: np.zeros_like(p) for name, p in own.items()}
        losses = []
        for idx in chosen:
            task = tasks[int(idx)]
            adapted = tape_adapt(
                model, task, loss_fn, config.inner_lr, config.inner_steps, config.support_batch, rng
            )
            qx, qy = (task.query_x, task.query_y) if len(task.query_x) else (task.support_x, task.support_y)
            loss, grads = tape_loss_and_grads(model, adapted, qx, qy, loss_fn)
            losses.append(loss)
            for name in accum:
                if config.outer == "fomaml":
                    accum[name] += grads[name]
                else:
                    accum[name] += own[name] - adapted[name]
        for name, p in own.items():
            p -= config.meta_lr * accum[name] / size
        history.append(float(np.mean(losses)))
    return history


def tape_taml(node, cfg, loss_fn, rng):
    """Algorithm 2 as a recursion, each leaf on :func:`tape_meta_train`."""
    if node.is_leaf:
        model = fresh_model()
        model.load_state_dict(node.theta)
        history = tape_meta_train(model, node.cluster, cfg.maml, loss_fn, rng=rng)
        node.theta = model.state_dict()
        return history[-1]
    losses = []
    for child in node.children:
        child.theta = {k: v.copy() for k, v in node.theta.items()}
        losses.append(tape_taml(child, cfg, loss_fn, rng))
    for key in node.theta:
        mean_child = np.mean([child.theta[key] for child in node.children], axis=0)
        node.theta[key] = node.theta[key] + cfg.tree_rate * (mean_child - node.theta[key])
    return float(np.mean(losses))


def tape_fine_tune(model, task, loss_fn, config, rng):
    if config.fine_tune_optimizer == "sgd":
        return tape_adapt(model, task, loss_fn, config.fine_tune_lr, config.fine_tune_steps, rng=rng)
    optimizer = Adam(model.params, lr=config.fine_tune_lr)
    for _ in range(config.fine_tune_steps):
        _, grads = tape_loss_and_grads(model, model.params, task.support_x, task.support_y, loss_fn)
        optimizer.step(grads)
    return model.state_dict()


# ----------------------------------------------------------------------


class TestAdaptEquivalence:
    @pytest.mark.parametrize(
        "loss_fn",
        [mse_loss, TaskDensityWeighter(np.array([[0.2, 0.3], [0.7, 0.8]])).loss],
        ids=["mse", "weighted_mse"],
    )
    def test_adapt_matches_tape(self, loss_fn):
        task = traj_task(0, seed=5)
        model = fresh_model()
        fast = adapt(model, task, loss_fn, inner_lr=0.05, inner_steps=4, rng=np.random.default_rng(1))
        tape = tape_adapt(model, task, loss_fn, inner_lr=0.05, inner_steps=4, rng=np.random.default_rng(1))
        assert_state_dicts_close(fast, tape)

    def test_adapt_with_support_subsampling_matches(self):
        """support_batch < n draws from the rng; both engines must
        consume the stream identically."""
        task = traj_task(0, seed=6, n=30)
        model = fresh_model()
        kwargs = dict(inner_lr=0.05, inner_steps=3, support_batch=8)
        fast = adapt(model, task, mse_loss, rng=np.random.default_rng(2), **kwargs)
        tape = tape_adapt(model, task, mse_loss, rng=np.random.default_rng(2), **kwargs)
        assert_state_dicts_close(fast, tape)


class TestMetaTrainEquivalence:
    def _run(self, train, tasks, outer, support_batch=8):
        model = fresh_model()
        config = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=3,
            iterations=6, support_batch=support_batch, outer=outer,
        )
        history = train(model, tasks, config, mse_loss, rng=np.random.default_rng(3))
        return model.state_dict(), history

    @pytest.mark.parametrize("outer", ["fomaml", "reptile"])
    def test_batched_matches_tape(self, outer):
        """Homogeneous shapes: every sampled worker adapts in one
        stacked padded pass; the result must equal the tape run."""
        tasks = [traj_task(i, seed=10 + i, n=14 + 2 * i) for i in range(5)]
        fast_state, fast_hist = self._run(meta_train, tasks, outer)
        tape_state, tape_hist = self._run(tape_meta_train, tasks, outer)
        assert_state_dicts_close(fast_state, tape_state)
        np.testing.assert_allclose(fast_hist, tape_hist, rtol=RTOL, atol=ATOL)

    def test_heterogeneous_shapes_fall_back_and_match(self):
        """Mixed seq_in disables stacking; the sequential fused loop
        must still agree with the tape."""
        tasks = [traj_task(i, seed=20 + i, seq_in=4 + (i % 2)) for i in range(4)]
        fast_state, fast_hist = self._run(meta_train, tasks, "fomaml")
        tape_state, tape_hist = self._run(tape_meta_train, tasks, "fomaml")
        assert_state_dicts_close(fast_state, tape_state)
        np.testing.assert_allclose(fast_hist, tape_hist, rtol=RTOL, atol=ATOL)


class TestTAMLEquivalence:
    def _tree(self):
        g1 = [traj_task(i, seed=30 + i) for i in range(3)]
        g2 = [traj_task(i + 10, seed=40 + i) for i in range(3)]
        root = LearningTaskTree(cluster=g1 + g2)
        root.add_child(LearningTaskTree(cluster=g1))
        root.add_child(LearningTaskTree(cluster=g2))
        return root

    def test_tree_training_matches_tape(self):
        """Lockstep leaves against a per-leaf recursion on the tape."""
        cfg = TAMLConfig(maml=MAMLConfig(meta_lr=0.1, inner_lr=0.05, inner_steps=2,
                                         meta_batch=2, iterations=4, support_batch=8))
        fast, tape = self._tree(), self._tree()
        fast_loss = taml_train(fast, fresh_model, mse_loss, cfg, rng=np.random.default_rng(7))
        tape.theta = fresh_model().state_dict()
        tape_loss = tape_taml(tape, cfg, mse_loss, np.random.default_rng(7))
        np.testing.assert_allclose(fast_loss, tape_loss, rtol=RTOL, atol=ATOL)
        for fast_node, tape_node in zip(fast.iter_nodes(), tape.iter_nodes()):
            assert_state_dicts_close(fast_node.theta, tape_node.theta)


class TestFineTuneEquivalence:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_fine_tune_matches_tape(self, optimizer):
        task = traj_task(0, seed=50)
        config = PredictionConfig(
            seq_in=SEQ_IN, seq_out=SEQ_OUT, hidden_size=6,
            fine_tune_steps=5, fine_tune_lr=0.05, fine_tune_optimizer=optimizer,
        )
        fast = fine_tune(fresh_model(), task, mse_loss, config, np.random.default_rng(9))
        tape = tape_fine_tune(fresh_model(), task, mse_loss, config, np.random.default_rng(9))
        assert_state_dicts_close(fast, tape)
