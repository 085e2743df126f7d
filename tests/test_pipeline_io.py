"""Tests for predictor serialization round-trips."""

import numpy as np
import pytest

from repro.data import PortoConfig, build_learning_tasks, generate_porto_workers
from repro.data.didi import historical_task_locations
from repro.meta.maml import MAMLConfig
from repro.pipeline.config import PredictionConfig
from repro.pipeline.io import load_predictor, save_predictor
from repro.pipeline.training import train_predictor


@pytest.fixture(scope="module")
def trained():
    city, workers = generate_porto_workers(PortoConfig(n_workers=5, n_train_days=3, seed=21))
    hist = historical_task_locations(city, 80, seed=22)
    learning = build_learning_tasks({w.worker_id: w.history for w in workers}, city, 5, 1)
    cfg = PredictionConfig(
        algorithm="maml",
        loss="mse",
        hidden_size=8,
        fine_tune_optimizer="sgd",
        fine_tune_steps=3,
        fine_tune_lr=0.1,
        maml=MAMLConfig(iterations=2, meta_batch=2, inner_steps=1, support_batch=8),
    )
    predictor = train_predictor(learning, city, cfg, hist)
    return city, workers, predictor


class TestRoundTrip:
    def test_predictions_identical_after_reload(self, trained, tmp_path):
        city, workers, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        loaded = load_predictor(tmp_path / "snapshot", city=city)
        x = np.random.default_rng(0).uniform(0, 1, size=(3, 5, 2))
        for wid in predictor.worker_params:
            before = predictor.model_for(wid).predict(x)
            after = loaded.model_for(wid).predict(x)
            assert np.allclose(before, after)

    def test_matching_rates_preserved(self, trained, tmp_path):
        city, _, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        loaded = load_predictor(tmp_path / "snapshot", city=city)
        assert loaded.matching_rates == pytest.approx(predictor.matching_rates)

    def test_config_preserved(self, trained, tmp_path):
        city, _, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        loaded = load_predictor(tmp_path / "snapshot")
        assert loaded.config.algorithm == predictor.config.algorithm
        assert loaded.config.hidden_size == predictor.config.hidden_size

    def test_grid_reconstructed_without_city(self, trained, tmp_path):
        _, _, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        loaded = load_predictor(tmp_path / "snapshot")
        assert loaded.city.grid.rows == predictor.city.grid.rows
        assert loaded.city.grid.width_km == predictor.city.grid.width_km

    def test_version_checked(self, trained, tmp_path):
        import json

        _, _, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        meta_path = (tmp_path / "snapshot").with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_predictor(tmp_path / "snapshot")

    def test_loaded_predictor_serves_assignment(self, trained, tmp_path):
        """A reloaded snapshot must be usable by the online stage."""
        from repro.data import DidiConfig, generate_didi_tasks
        from repro.data.workload import Workload
        from repro.pipeline import AssignmentConfig, run_assignment

        city, workers, predictor = trained
        save_predictor(predictor, tmp_path / "snapshot")
        loaded = load_predictor(tmp_path / "snapshot", city=city)
        tasks = generate_didi_tasks(city, DidiConfig(n_tasks=30, seed=23))
        wl = Workload("porto-didi", city, workers, tasks)
        result = run_assignment(wl, "ppi", AssignmentConfig(batch_window=5.0), predictor=loaded)
        assert result.n_tasks == 30
