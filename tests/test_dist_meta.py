"""Deterministic-reduction tests for parallel TAML meta-training.

The tentpole guarantee: ``dist_taml_train`` produces bit-identical
parameters on every tree node for ANY backend and ANY worker count —
``np.array_equal``, not ``allclose``.  The serial single-worker run is
the reference; gangs of 2 and 4 (stacked fused passes) and a real
process pool must reproduce it exactly.
"""

from unittest import mock

import numpy as np
import pytest

from repro.dist import DistConfig, SerialBackend, dist_taml_train
from repro.dist.meta import run_leaf_job
from repro.meta.learning_task import LearningTask
from repro.meta.maml import MAMLConfig
from repro.meta.taml import TAMLConfig, taml_train
from repro.meta.task_tree import LearningTaskTree
from repro.nn.losses import mse_loss
from repro.pipeline.training import MobilityModelFactory

SEQ_IN, SEQ_OUT = 4, 2


def traj_task(worker_id, seed, n=18, seq_in=SEQ_IN, seq_out=SEQ_OUT):
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.normal(size=(n, seq_in, 2)).cumsum(axis=1)
    y = x[:, -1:, :] + 0.05 * rng.normal(size=(n, seq_out, 2)).cumsum(axis=1)
    half = n - 5
    return LearningTask(worker_id, x[:half], y[:half], x[half:], y[half:])


FACTORY = MobilityModelFactory(cell="lstm", hidden_size=6, seq_out=SEQ_OUT, seed=42)
MAML = MAMLConfig(
    meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2, iterations=3, support_batch=8
)


def two_level_tree(n_leaves=4, tasks_per_leaf=3):
    groups = [
        [traj_task(10 * g + i, seed=100 * g + i) for i in range(tasks_per_leaf)]
        for g in range(n_leaves)
    ]
    root = LearningTaskTree(cluster=[t for g in groups for t in g])
    mid = [
        LearningTaskTree(cluster=groups[0] + groups[1]),
        LearningTaskTree(cluster=groups[2] + groups[3]),
    ]
    for m in mid:
        root.add_child(m)
    mid[0].add_child(LearningTaskTree(cluster=groups[0]))
    mid[0].add_child(LearningTaskTree(cluster=groups[1]))
    mid[1].add_child(LearningTaskTree(cluster=groups[2]))
    mid[1].add_child(LearningTaskTree(cluster=groups[3]))
    return root


def run_dist(dist, factory=FACTORY, maml=MAML, seed=7, backend=None):
    tree = two_level_tree()
    loss = dist_taml_train(
        tree,
        factory,
        mse_loss,
        config=TAMLConfig(maml=maml),
        dist=dist,
        rng=np.random.default_rng(seed),
        backend=backend,
    )
    return loss, [node.theta for node in tree.iter_nodes()]


def assert_trees_identical(ref, got, context=""):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), f"{context}: {key} differs"


class TestBitIdenticalReduction:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_dist(DistConfig(backend="serial", workers=1))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_gang_width_matches_serial(self, reference, workers):
        """Serial vs 2-worker vs 4-worker gangs: bit-identical thetas."""
        ref_loss, ref = reference
        loss, got = run_dist(DistConfig(backend="serial", workers=workers))
        assert loss == ref_loss
        assert_trees_identical(ref, got, f"gang-{workers}")

    def test_process_pool_matches_serial(self, reference):
        ref_loss, ref = reference
        loss, got = run_dist(DistConfig(backend="process", workers=2))
        assert loss == ref_loss
        assert_trees_identical(ref, got, "process-2")

    def test_explicit_backend_reused(self, reference):
        """Passing a backend skips resolution and must not change results."""
        ref_loss, ref = reference
        backend = SerialBackend()
        loss, got = run_dist(DistConfig(workers=1), backend=backend)
        assert loss == ref_loss
        assert_trees_identical(ref, got, "explicit-backend")


class TestFallbacks:
    def test_mixed_shape_leaf_falls_back_identically(self):
        """A leaf whose own tasks mix window shapes cannot gang: the gang
        executor must run it through the per-leaf path and still be
        bit-identical to workers=1."""

        def tree():
            g1 = [traj_task(i, seed=i, seq_in=SEQ_IN + (i % 2)) for i in range(3)]
            g2 = [traj_task(i + 10, seed=i + 50) for i in range(3)]
            root = LearningTaskTree(cluster=g1 + g2)
            root.add_child(LearningTaskTree(cluster=g1))
            root.add_child(LearningTaskTree(cluster=g2))
            return root

        results = {}
        for workers in (1, 3):
            t = tree()
            with mock.patch("repro.dist.meta.run_leaf_job", wraps=run_leaf_job) as per_leaf:
                dist_taml_train(
                    t,
                    FACTORY,
                    mse_loss,
                    config=TAMLConfig(maml=MAML),
                    dist=DistConfig(workers=workers),
                    rng=np.random.default_rng(5),
                )
            results[workers] = [node.theta for node in t.iter_nodes()]
            # workers=1 runs both leaves per leaf; the gang only the mixed one.
            assert per_leaf.call_count == (2 if workers == 1 else 1)
        assert_trees_identical(results[1], results[3], "mixed-leaf-gang")

    def test_mixed_shape_leaves_stay_identical(self):
        """Leaves whose window shapes differ cannot share a stacked
        pass; the per-iteration shape grouping must keep any gang width
        bit-identical anyway."""

        def tree():
            groups = [
                [traj_task(10 * g + i, seed=g * 7 + i, n=14 + 2 * g) for i in range(2)]
                for g in range(4)
            ]
            # One leaf with a different seq_in: ineligible for ganging.
            groups[3] = [traj_task(90 + i, seed=300 + i, seq_in=SEQ_IN + 1) for i in range(2)]
            root = LearningTaskTree(cluster=[t for g in groups for t in g])
            for g in groups:
                root.add_child(LearningTaskTree(cluster=g))
            return root

        results = {}
        for workers in (1, 4):
            t = tree()
            dist_taml_train(
                t,
                FACTORY,
                mse_loss,
                config=TAMLConfig(maml=MAML),
                dist=DistConfig(workers=workers),
                rng=np.random.default_rng(3),
            )
            results[workers] = [node.theta for node in t.iter_nodes()]
        assert_trees_identical(results[1], results[4], "mixed-shapes")


class TestSemantics:
    def test_interior_aggregation_matches_legacy_fold(self):
        """The dist fold replays taml_train's arithmetic: with
        tree_rate=1 the root equals the mean of its children."""
        tree = two_level_tree()
        dist_taml_train(
            tree,
            FACTORY,
            mse_loss,
            config=TAMLConfig(maml=MAML, tree_rate=1.0),
            dist=DistConfig(workers=2),
            rng=np.random.default_rng(7),
        )
        for key in tree.theta:
            mean_child = np.mean([c.theta[key] for c in tree.children], axis=0)
            np.testing.assert_array_equal(tree.theta[key], mean_child)

    def test_reptile_outer_also_identical(self):
        maml = MAMLConfig(
            meta_lr=0.1, inner_lr=0.05, inner_steps=2, meta_batch=2,
            iterations=3, support_batch=8, outer="reptile",
        )
        ref_loss, ref = run_dist(DistConfig(workers=1), maml=maml)
        loss, got = run_dist(DistConfig(workers=4), maml=maml)
        assert loss == ref_loss
        assert_trees_identical(ref, got, "reptile")

    def test_dist_family_differs_from_legacy_schedule(self):
        """dist_taml_train has its own per-leaf RNG schedule; the legacy
        taml_train threads one generator sequentially.  They are both
        valid trainings but deliberately NOT the same numbers — pinned
        here so nobody 'fixes' one into the other silently."""
        t1, t2 = two_level_tree(), two_level_tree()
        taml_train(t1, FACTORY, mse_loss, TAMLConfig(maml=MAML), rng=np.random.default_rng(7))
        dist_taml_train(
            t2, FACTORY, mse_loss, config=TAMLConfig(maml=MAML),
            dist=DistConfig(workers=1), rng=np.random.default_rng(7),
        )
        same = all(
            np.array_equal(a.theta[k], b.theta[k])
            for a, b in zip(t1.iter_nodes(), t2.iter_nodes())
            for k in a.theta
        )
        assert not same

    def test_seeds_root_theta_when_missing(self):
        tree = two_level_tree()
        assert tree.theta is None
        dist_taml_train(
            tree, FACTORY, mse_loss, config=TAMLConfig(maml=MAML),
            dist=DistConfig(workers=2), rng=np.random.default_rng(0),
        )
        for node in tree.iter_nodes():
            assert node.theta is not None

    def test_rejects_shard_server_backend(self):
        """Shard servers serve the sharded engine only: meta-training
        and its config reject them, naming the field."""
        from repro.pipeline.config import PredictionConfig

        dist = DistConfig(backend="shard_server", shards=2)
        with pytest.raises(ValueError, match="DistConfig.backend"):
            run_dist(dist)
        with pytest.raises(ValueError, match="DistConfig.backend"):
            PredictionConfig(dist=dist)
