"""Tests for the results collector."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.tools import RESULT_ORDER, collect_results


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "table4_cluster_ablation.txt").write_text("TABLE4 CONTENT")
    (d / "fig6_detour_porto.txt").write_text("FIG6 CONTENT")
    (d / "custom_extra.txt").write_text("EXTRA CONTENT")
    return d


class TestCollect:
    def test_orders_known_first(self, results_dir, tmp_path):
        out = tmp_path / "RESULTS.md"
        included = collect_results(results_dir, out)
        assert included == ["table4_cluster_ablation", "fig6_detour_porto", "custom_extra"]
        text = out.read_text()
        assert text.index("TABLE4") < text.index("FIG6") < text.index("EXTRA")

    def test_contents_embedded_in_code_fences(self, results_dir, tmp_path):
        out = tmp_path / "RESULTS.md"
        collect_results(results_dir, out)
        text = out.read_text()
        assert "```" in text
        assert "## fig6_detour_porto" in text

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_results(tmp_path / "nope", tmp_path / "out.md")

    def test_cli_main(self, results_dir, tmp_path, capsys):
        """``collect-results`` is a subcommand of the package CLI."""
        out = tmp_path / "OUT.md"
        code = main(["collect-results", "--results-dir", str(results_dir), "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert "3 result blocks" in capsys.readouterr().out

    def test_module_entry_point_runs_without_runtime_warnings(self, results_dir, tmp_path):
        """``-m repro.cli`` imports cleanly under ``-W error::RuntimeWarning``."""
        out = tmp_path / "OUT.md"
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli", "collect-results",
             "--results-dir", str(results_dir), "--output", str(out)],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert "## custom_extra" in out.read_text()

    def test_order_constant_is_unique(self):
        assert len(set(RESULT_ORDER)) == len(RESULT_ORDER)
