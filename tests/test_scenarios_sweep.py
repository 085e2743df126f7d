"""Tests for the sweep runner: grid expansion, manifests, reporting."""

import json

import pytest

from repro.scenarios import (
    Cell,
    RunSpec,
    expand_cells,
    load_cell_manifests,
    manifest_path,
    render_table,
    report_payload,
    resolve_run_spec,
    rows_from_manifests,
    run_sweep,
    set_path,
)

SWEEP_DOC = {
    "name": "grid",
    "scenario": {
        "generator": "uniform",
        "seed": 1,
        "params": {"n_workers": 25, "n_tasks": 50, "t_end": 15.0,
                   "width_km": 10.0, "height_km": 10.0},
    },
    "policy": {"index": {"enabled": True, "cell_km": 2.0}},
    "sweep": {
        "scenario.seed": [1, 2],
        "policy.trigger.kind": ["fixed", "adaptive"],
    },
}


def sweep_spec():
    return RunSpec.from_dict(SWEEP_DOC)


class TestSetPath:
    def test_overrides_leaf(self):
        doc = {"policy": {"cache": {"ttl": 0.0}}}
        set_path(doc, "policy.cache.ttl", 6.0)
        assert doc["policy"]["cache"]["ttl"] == 6.0

    def test_creates_missing_mappings(self):
        doc = {}
        set_path(doc, "scenario.params.n_tasks", 40)
        assert doc == {"scenario": {"params": {"n_tasks": 40}}}


class TestExpandCells:
    def test_grid_is_cross_product_in_axis_major_order(self):
        cells = expand_cells(sweep_spec())
        assert len(cells) == 4
        assert [c.overrides for c in cells] == [
            {"scenario.seed": 1, "policy.trigger.kind": "fixed"},
            {"scenario.seed": 1, "policy.trigger.kind": "adaptive"},
            {"scenario.seed": 2, "policy.trigger.kind": "fixed"},
            {"scenario.seed": 2, "policy.trigger.kind": "adaptive"},
        ]
        assert cells[0].label == "seed=1,trigger.kind=fixed"
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_cells_carry_resolved_specs(self):
        cells = expand_cells(sweep_spec())
        assert cells[2].spec.scenario.seed == 2
        assert cells[1].spec.policy.serve.trigger == "adaptive"
        assert all(c.spec.sweep == {} for c in cells)

    def test_no_axes_yields_single_cell(self):
        spec = resolve_run_spec({"scenario": "smoke", "name": "solo"})
        cells = expand_cells(spec)
        assert [(c.index, c.label) for c in cells] == [(0, "solo")]

    def test_cli_axis_overrides_file_axis(self):
        cells = expand_cells(sweep_spec(), {"scenario.seed": [9]})
        assert len(cells) == 2
        assert all(c.spec.scenario.seed == 9 for c in cells)

    def test_axis_must_target_scenario_or_policy(self):
        with pytest.raises(ValueError, match="scenario\\."):
            expand_cells(sweep_spec(), {"index.enabled": [True, False]})

    def test_cell_values_revalidated(self):
        with pytest.raises(ValueError, match="adaptive"):
            expand_cells(sweep_spec(), {"policy.trigger.kind": ["psychic"]})

    def test_bad_cell_value_fails_before_any_cell_runs(self, tmp_path):
        with pytest.raises(ValueError, match="policy.trigger.window"):
            run_sweep(
                sweep_spec(), out_dir=tmp_path,
                extra_sweep={"policy.trigger.window": [2, -1]},
            )
        assert not list(tmp_path.glob("cell*.manifest.json"))


class TestManifestPath:
    def test_slug_is_filesystem_safe(self):
        path = manifest_path("/tmp/out", 3, "seed=1,trigger.kind=fixed")
        assert path.name == "cell003-seed-1-trigger.kind-fixed.manifest.json"


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        summaries = run_sweep(sweep_spec(), out_dir=out, argv=["test"])
        return out, summaries

    def test_one_manifest_per_cell(self, sweep_out):
        out, summaries = sweep_out
        assert len(summaries) == 4
        manifests = load_cell_manifests(out)
        assert len(manifests) == 4

    def test_manifest_schema(self, sweep_out):
        out, summaries = sweep_out
        for summary, manifest in zip(summaries, load_cell_manifests(out)):
            assert manifest.command == "scenarios-run"
            assert manifest.labels["sweep"] == "grid"
            assert manifest.labels["cell"] == str(summary["cell"])
            assert manifest.labels["cell_label"] == summary["label"]
            assert manifest.metrics["signature_digest"] == summary["signature_digest"]
            assert set(manifest.config["overrides"]) == {
                "scenario.seed",
                "policy.trigger.kind",
            }
            assert 0.0 <= manifest.metrics["completion_ratio"] <= 1.0
            assert manifest.metrics["throughput_tasks_per_s"] > 0.0

    def test_seed_axis_changes_digest_deterministically(self, sweep_out):
        _, summaries = sweep_out
        digests = {s["label"]: s["signature_digest"] for s in summaries}
        # Same policy, different seed: different outcome.
        assert digests["seed=1,trigger.kind=fixed"] != digests["seed=2,trigger.kind=fixed"]
        # Re-running the whole grid reproduces every digest.
        again = run_sweep(sweep_spec())
        assert [s["signature_digest"] for s in again] == [
            s["signature_digest"] for s in summaries
        ]

    def test_pooled_cells_write_the_same_manifests(self, sweep_out, tmp_path):
        _, serial = sweep_out
        pooled = run_sweep(sweep_spec(), out_dir=tmp_path / "pooled", cell_workers=2)
        digests = [s["signature_digest"] for s in serial]
        assert [s["signature_digest"] for s in pooled] == digests
        manifests = load_cell_manifests(tmp_path / "pooled")
        assert [m.metrics["signature_digest"] for m in manifests] == digests


class TestReport:
    def test_rows_match_run_summaries(self, tmp_path):
        spec = RunSpec.from_dict(
            {**SWEEP_DOC, "sweep": {"scenario.seed": [1, 2]}}
        )
        summaries = run_sweep(spec, out_dir=tmp_path)
        rows = rows_from_manifests(load_cell_manifests(tmp_path))
        assert [r["signature_digest"] for r in rows] == [
            s["signature_digest"] for s in summaries
        ]
        assert [r["label"] for r in rows] == [s["label"] for s in summaries]
        table = render_table(rows, title="test sweep")
        assert "test sweep" in table
        for row in rows:
            assert row["signature_digest"][:12] in table
        payload = report_payload(rows, source=str(tmp_path))
        assert payload["n_cells"] == 2
        assert json.dumps(payload)  # JSON-serialisable end to end

    def test_report_survives_unknown_manifest_fields(self, tmp_path):
        spec = RunSpec.from_dict({**SWEEP_DOC, "sweep": {}})
        run_sweep(spec, out_dir=tmp_path)
        # Future writers may add fields; the reader must ignore them.
        path = next(tmp_path.glob("cell*.manifest.json"))
        doc = json.loads(path.read_text())
        doc["from_the_future"] = {"x": 1}
        path.write_text(json.dumps(doc))
        rows = rows_from_manifests(load_cell_manifests(tmp_path))
        assert len(rows) == 1
