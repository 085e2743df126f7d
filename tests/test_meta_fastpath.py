"""Fast path vs reference tape: the meta-training stack must produce the
same numbers either way.

``fast_path=True`` and ``fast_path=False`` runs are compared end-to-end
through ``adapt``, ``meta_train`` (both outer updates, batched and
sequential inner loops), ``taml_train``, and ``fine_tune``.  The two
engines share no backward code, so agreement here is a strong check on
both.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig, adapt, meta_train, resolve_fast_path
from repro.meta.taml import TAMLConfig, taml_train
from repro.meta.task_tree import LearningTaskTree
from repro.nn.layers import MLP
from repro.nn.losses import TaskDensityWeighter, mse_loss
from repro.nn.seq2seq import make_mobility_model
from repro.pipeline.config import PredictionConfig
from repro.pipeline.training import fine_tune

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
    return make_mobility_model("lstm", hidden_size=6, seq_out=seq_out, rng=np.random.default_rng(42))


def assert_state_dicts_close(a, b):
    assert set(a) == set(b)
    for name in a:
        np.testing.assert_allclose(a[name], b[name], rtol=RTOL, atol=ATOL, err_msg=name)


class TestResolve:
    def test_true_on_unsupported_model_raises(self):
        with pytest.raises(ValueError):
            resolve_fast_path(True, MLP([2, 4, 2], np.random.default_rng(0)))

    def test_auto_falls_back_on_unsupported_model(self):
        assert resolve_fast_path("auto", MLP([2, 4, 2], np.random.default_rng(0))) is False
        assert resolve_fast_path("auto", fresh_model()) is True

    def test_config_validates_setting(self):
        with pytest.raises(ValueError):
            MAMLConfig(fast_path="yes")


class TestAdaptEquivalence:
    @pytest.mark.parametrize(
        "loss_fn",
        [mse_loss, TaskDensityWeighter(np.array([[0.2, 0.3], [0.7, 0.8]])).loss],
        ids=["mse", "weighted_mse"],
    )
    def test_adapt_matches_tape(self, loss_fn):
        task = traj_task(0, seed=5)
        model = fresh_model()
        fast = adapt(model, task, loss_fn, inner_lr=0.05, inner_steps=4,
                     rng=np.random.default_rng(1), fast_path=True)
        tape = adapt(model, task, loss_fn, inner_lr=0.05, inner_steps=4,
                     rng=np.random.default_rng(1), fast_path=False)
        assert_state_dicts_close(
            {k: v.data for k, v in fast.items()}, {k: v.data for k, v in tape.items()}
        )

    def test_adapt_with_support_subsampling_matches(self):
        """support_batch < n draws from the rng; both engines must
        consume the stream identically."""
        task = traj_task(0, seed=6, n=30)
        model = fresh_model()
        kwargs = dict(inner_lr=0.05, inner_steps=3, support_batch=8)
        fast = adapt(model, task, mse_loss, rng=np.random.default_rng(2), fast_path=True, **kwargs)
        tape = adapt(model, task, mse_loss, rng=np.random.default_rng(2), fast_path=False, **kwargs)
        assert_state_dicts_close(
            {k: v.data for k, v in fast.items()}, {k: v.data for k, v in tape.items()}
        )


class TestMetaTrainEquivalence:
    def _run(self, tasks, outer, fast_path, support_batch=8):
        model = fresh_model()
        config = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=3,
            iterations=6, support_batch=support_batch, outer=outer, fast_path=fast_path,
        )
        history = meta_train(model, tasks, config, mse_loss, rng=np.random.default_rng(3))
        return model.state_dict(), history

    @pytest.mark.parametrize("outer", ["fomaml", "reptile"])
    def test_batched_matches_tape(self, outer):
        """Homogeneous shapes: fast path stacks all sampled workers into
        one padded pass; result must equal the tape run."""
        tasks = [traj_task(i, seed=10 + i, n=14 + 2 * i) for i in range(5)]
        fast_state, fast_hist = self._run(tasks, outer, fast_path=True)
        tape_state, tape_hist = self._run(tasks, outer, fast_path=False)
        assert_state_dicts_close(fast_state, tape_state)
        np.testing.assert_allclose(fast_hist, tape_hist, rtol=RTOL, atol=ATOL)

    def test_heterogeneous_shapes_fall_back_and_match(self):
        """Mixed seq_in disables stacking; the sequential fused loop
        must still agree with the tape."""
        tasks = [traj_task(i, seed=20 + i, seq_in=4 + (i % 2)) for i in range(4)]
        fast_state, fast_hist = self._run(tasks, "fomaml", fast_path=True)
        tape_state, tape_hist = self._run(tasks, "fomaml", fast_path=False)
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
        maml = MAMLConfig(meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2,
                          iterations=4, support_batch=8)
        states = {}
        for fast in (True, False):
            tree = self._tree()
            cfg = TAMLConfig(maml=replace(maml, fast_path=fast))
            taml_train(tree, fresh_model, mse_loss, cfg, rng=np.random.default_rng(7))
            states[fast] = [node.theta for node in tree.iter_nodes()]
        for fast_theta, tape_theta in zip(states[True], states[False]):
            assert_state_dicts_close(fast_theta, tape_theta)


class TestFineTuneEquivalence:
    def _config(self, optimizer, fast_path):
        return PredictionConfig(
            seq_in=SEQ_IN, seq_out=SEQ_OUT, hidden_size=6,
            fine_tune_steps=5, fine_tune_lr=0.05, fine_tune_optimizer=optimizer,
            maml=MAMLConfig(fast_path=fast_path),
        )

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_fine_tune_matches_tape(self, optimizer):
        task = traj_task(0, seed=50)
        states = {}
        for fast in (True, False):
            model = fresh_model()
            states[fast] = fine_tune(
                model, task, mse_loss, self._config(optimizer, fast), np.random.default_rng(9)
            )
        assert_state_dicts_close(states[True], states[False])
