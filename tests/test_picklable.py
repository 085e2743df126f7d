"""Pickling round-trips for the configs, models and losses.

Shard servers and sweep cells cross process boundaries; under the
``spawn`` start method what they carry must survive
``pickle.dumps``/``loads``.  These tests pin that property for the
configs, the model factory, the models themselves (named parameter
arrays), the losses and the learning tasks.
"""

import pickle

import numpy as np

from repro.dist import DistConfig
from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig
from repro.meta.taml import TAMLConfig
from repro.nn.losses import TaskDensityWeighter, make_loss
from repro.nn.seq2seq import make_mobility_model
from repro.pipeline.config import PredictionConfig
from repro.pipeline.training import MobilityModelFactory, make_model_factory


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestConfigs:
    def test_maml_config(self):
        cfg = MAMLConfig(meta_lr=0.2, inner_steps=5, outer="reptile")
        assert roundtrip(cfg) == cfg

    def test_taml_config(self):
        cfg = TAMLConfig(maml=MAMLConfig(iterations=7), tree_rate=0.5)
        assert roundtrip(cfg) == cfg

    def test_dist_config(self):
        cfg = DistConfig(backend="shard_server", shards=2, start_method="spawn")
        assert roundtrip(cfg) == cfg


class TestModels:
    def test_factory_roundtrips_and_builds_identically(self):
        factory = MobilityModelFactory(hidden_size=5, seq_out=2, seed=9)
        clone = roundtrip(factory)
        a, b = factory().state_dict(), clone().state_dict()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_make_model_factory_is_picklable(self):
        factory = make_model_factory(PredictionConfig(hidden_size=4))
        assert roundtrip(factory) == factory

    def test_seq2seq_model_roundtrips(self):
        model = make_mobility_model(hidden_size=4, seq_out=1, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 5, 2))
        clone = roundtrip(model)
        a, b = model.state_dict(), clone.state_dict()
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert np.array_equal(model.predict(x), clone.predict(x))


class TestLossesAndJobs:
    def _task(self, worker_id=0, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 4, 2))
        y = rng.normal(size=(10, 1, 2))
        return LearningTask(worker_id, x[:7], y[:7], x[7:], y[7:])

    def test_task_oriented_loss_roundtrips(self):
        weighter = TaskDensityWeighter(np.array([[0.1, 0.2], [0.8, 0.9]]))
        loss = make_loss("task_oriented", weighter)
        back = roundtrip(loss)
        pred = np.zeros((2, 1, 2))
        target = np.array([[[0.1, 0.2]], [[0.8, 0.9]]])
        assert back(pred, target)[0] == loss(pred, target)[0]

    def test_learning_task_roundtrips(self):
        task = self._task(5, 2)
        back = roundtrip(task)
        assert back.worker_id == 5
        assert np.array_equal(back.support_x, task.support_x)
        assert np.array_equal(back.query_y, task.query_y)
