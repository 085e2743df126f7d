"""Coverage for remaining public surface: CLI compare, feature helpers,
tree repr, plan repr, and similarity renormalisation."""

import numpy as np
import pytest

from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.meta.features import renormalize
from repro.meta.task_tree import LearningTaskTree
from repro.similarity.quality import normalize_similarity_matrix


class TestCLICompare:
    def test_compare_prints_all_algorithms(self, capsys):
        from repro.cli import main

        code = main([
            "compare", "--n-workers", "4", "--n-tasks", "20",
            "--n-train-days", "2", "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for algo in ("ppi", "km", "ggpso", "ub", "lb"):
            assert algo in out


class TestFeatureHelpers:
    def test_renormalize_maps_all(self, rng):
        raw = {
            "a": (lambda m: (m + m.T) / 2)(rng.uniform(0, 5, size=(4, 4))),
            "b": (lambda m: (m + m.T) / 2)(rng.uniform(-1, 1, size=(4, 4))),
        }
        out = renormalize(raw)
        assert set(out) == {"a", "b"}
        for mat in out.values():
            assert mat.min() >= 0.0 and mat.max() <= 1.0
            assert np.allclose(np.diag(mat), 1.0)

    def test_normalize_single_element(self):
        out = normalize_similarity_matrix(np.array([[0.3]]))
        assert out[0, 0] == 1.0


class TestReprs:
    def test_tree_repr_mentions_kind(self):
        leaf = LearningTaskTree(cluster=[])
        assert "leaf" in repr(leaf)
        root = LearningTaskTree(cluster=[])
        root.add_child(leaf)
        assert "node[1]" in repr(root)

    def test_plan_repr_counts_stages(self):
        plan = AssignmentPlan([
            AssignmentPair(0, 0, 1.0, stage=1),
            AssignmentPair(1, 1, 1.0, stage=1),
            AssignmentPair(2, 2, 1.0, stage=3),
        ])
        text = repr(plan)
        assert "n=3" in text

    def test_trajectory_repr(self, line_trajectory):
        text = repr(line_trajectory)
        assert "n=11" in text
        assert "km" in text


class TestPublicImports:
    def test_top_level_api(self):
        import repro

        assert repro.__version__ == "1.0.0"
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module", [
        "repro.geo", "repro.nn", "repro.cluster", "repro.similarity",
        "repro.meta", "repro.assignment", "repro.sc", "repro.data",
        "repro.pipeline", "repro.eval",
    ])
    def test_subpackage_all_resolves(self, module):
        import importlib

        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None, f"{module}.{name} missing"
