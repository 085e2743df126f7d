"""Tests for the end-to-end pipeline: training, prediction, experiments."""

import numpy as np
import pytest

from repro.meta.maml import MAMLConfig
from repro.pipeline.config import AssignmentConfig, ExperimentConfig, PredictionConfig
from repro.pipeline.experiment import (
    ASSIGNMENT_ALGORITHMS,
    evaluate_prediction,
    run_assignment,
)
from repro.pipeline.prediction import (
    CurrentLocationSnapshotProvider,
    OracleSnapshotProvider,
    PredictiveSnapshotProvider,
    rollout,
)
from repro.pipeline.training import (
    build_loss,
    make_model_factory,
    probe_learning_paths,
    train_predictor,
)


def tiny_prediction_config(algorithm="gttaml", loss="mse", **kwargs):
    return PredictionConfig(
        algorithm=algorithm,
        loss=loss,
        hidden_size=8,
        fine_tune_steps=3,
        maml=MAMLConfig(iterations=3, meta_batch=2, inner_steps=2, support_batch=8),
        **kwargs,
    )


@pytest.fixture(scope="module")
def trained(small_workload_module, learning_tasks_module):
    wl = small_workload_module
    return train_predictor(
        learning_tasks_module, wl.city, tiny_prediction_config(), wl.historical_tasks_xy
    )


# Module-scoped copies of the session fixtures (training is expensive).
@pytest.fixture(scope="module")
def small_workload_module():
    from repro.data import DidiConfig, PortoConfig, generate_didi_tasks, generate_porto_workers
    from repro.data.didi import historical_task_locations
    from repro.data.workload import Workload

    city, workers = generate_porto_workers(PortoConfig(n_workers=6, n_train_days=4, seed=3))
    tasks = generate_didi_tasks(city, DidiConfig(n_tasks=30, seed=5))
    hist = historical_task_locations(city, 100, seed=6)
    return Workload("porto-didi", city, workers, tasks, hist)


@pytest.fixture(scope="module")
def learning_tasks_module(small_workload_module):
    from repro.data import build_learning_tasks

    wl = small_workload_module
    return build_learning_tasks(
        {w.worker_id: w.history for w in wl.workers}, wl.city, seq_in=4, seq_out=1, seed=7
    )


class TestConfigs:
    def test_prediction_config_validates(self):
        with pytest.raises(ValueError):
            PredictionConfig(algorithm="nope")
        with pytest.raises(ValueError):
            PredictionConfig(loss="nope")
        with pytest.raises(ValueError):
            PredictionConfig(seq_in=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("loss_d_q_km", float("nan")),
            ("loss_d_q_km", -1.0),
            ("loss_d_q_km", float("inf")),
            ("loss_delta", float("nan")),
            ("loss_delta", 0.0),
            ("loss_kappa", 2.0),
            ("loss_kappa", float("nan")),
            ("fine_tune_lr", float("nan")),
            ("fine_tune_lr", -1.0),
            ("probe_lr", float("inf")),
            ("probe_lr", 0.0),
            ("fine_tune_steps", -3),
            ("probe_steps", 0),
            ("hidden_size", 0),
        ],
    )
    def test_bad_training_knob_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PredictionConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            PredictionConfig.from_dict({field: value})

    def test_training_knob_edges_accepted(self):
        PredictionConfig(fine_tune_steps=0, probe_steps=1, hidden_size=1, loss_kappa=0.99)

    def test_assignment_config_validates(self):
        with pytest.raises(ValueError):
            AssignmentConfig(batch_window=0.0)
        with pytest.raises(ValueError):
            AssignmentConfig(horizon_points=0)

    def test_experiment_config_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.prediction.algorithm == "gttaml"
        assert cfg.assignment.batch_window == 2.0


class TestTraining:
    def test_trains_all_workers(self, trained, learning_tasks_module):
        assert set(trained.worker_params) == {t.worker_id for t in learning_tasks_module}
        assert all(0.0 <= mr <= 1.0 for mr in trained.matching_rates.values())
        assert trained.training_seconds > 0

    def test_gttaml_builds_tree(self, trained):
        assert trained.tree is not None
        assert trained.tree.theta is not None

    @pytest.mark.parametrize("algorithm", ["maml", "ctml", "gttaml_gt"])
    def test_other_algorithms_train(self, algorithm, small_workload_module, learning_tasks_module):
        wl = small_workload_module
        pred = train_predictor(
            learning_tasks_module, wl.city, tiny_prediction_config(algorithm=algorithm), wl.historical_tasks_xy
        )
        assert len(pred.worker_params) == len(learning_tasks_module)
        if algorithm == "ctml":
            assert pred.bank is not None

    def test_task_oriented_loss_trains(self, small_workload_module, learning_tasks_module):
        wl = small_workload_module
        pred = train_predictor(
            learning_tasks_module,
            wl.city,
            tiny_prediction_config(algorithm="maml", loss="task_oriented"),
            wl.historical_tasks_xy,
        )
        assert len(pred.worker_params) == len(learning_tasks_module)

    def test_factor_restriction(self, small_workload_module, learning_tasks_module):
        wl = small_workload_module
        pred = train_predictor(
            learning_tasks_module,
            wl.city,
            tiny_prediction_config(),
            wl.historical_tasks_xy,
            factors=("distribution",),
        )
        assert pred.tree is not None

    def test_requires_tasks(self, small_workload_module):
        with pytest.raises(ValueError):
            train_predictor([], small_workload_module.city, tiny_prediction_config())

    def test_model_for_roundtrip(self, trained, learning_tasks_module):
        wid = learning_tasks_module[0].worker_id
        model = trained.model_for(wid)
        for name, arr in model.state_dict().items():
            assert np.allclose(arr, trained.worker_params[wid][name])

    def test_probe_paths_shapes(self, small_workload_module, learning_tasks_module):
        from repro.nn.losses import mse_loss

        factory = make_model_factory(tiny_prediction_config())
        paths = probe_learning_paths(learning_tasks_module[:2], factory, mse_loss, steps=2, lr=0.1)
        for p in paths.values():
            assert p.shape[0] == 2

    def test_build_loss_mse_vs_task_oriented(self, small_workload_module):
        wl = small_workload_module
        mse = build_loss(tiny_prediction_config(loss="mse"), wl.city, wl.historical_tasks_xy)
        oriented = build_loss(
            tiny_prediction_config(loss="task_oriented"), wl.city, wl.historical_tasks_xy
        )
        pred = np.random.default_rng(0).uniform(0, 1, (3, 1, 2))
        target = np.random.default_rng(1).uniform(0, 1, (3, 1, 2))
        assert mse(pred, target)[0] != oriented(pred, target)[0]


class TestEvaluation:
    def test_report_fields(self, trained, small_workload_module):
        report = evaluate_prediction(trained, small_workload_module.workers)
        assert report.rmse_cells > 0
        assert report.mae_cells > 0
        assert report.mae_cells <= report.rmse_cells + 1e-9
        assert 0.0 <= report.matching_rate <= 1.0
        assert set(report.as_row()) == {"RMSE", "MAE", "MR", "TT"}

    def test_per_worker_populated(self, trained, small_workload_module):
        report = evaluate_prediction(trained, small_workload_module.workers)
        assert len(report.per_worker) == len(small_workload_module.workers)


class TestPrediction:
    def test_rollout_shapes(self, trained):
        model = trained.model_for(next(iter(trained.worker_params)))
        recent = np.random.default_rng(0).uniform(0, 1, size=(4, 2))
        out = rollout(model, recent, horizon_points=5, seq_out=1)
        assert out.shape == (5, 2)

    def test_predictive_provider_snapshot(self, trained, small_workload_module):
        provider = PredictiveSnapshotProvider(trained, AssignmentConfig(horizon_points=4))
        w = small_workload_module.workers[0]
        t = w.routine.start_time + 30.0
        snap = provider(w, t)
        assert snap.predicted_xy.shape == (4, 2)
        assert np.all(snap.predicted_times > t)
        assert snap.matching_rate == trained.matching_rates[w.worker_id]

    def test_oracle_provider_snapshot(self, small_workload_module):
        provider = OracleSnapshotProvider(horizon_points=3)
        w = small_workload_module.workers[0]
        snap = provider(w, w.routine.start_time + 10.0)
        assert snap.matching_rate == 1.0
        assert len(snap.predicted_xy) >= 1

    def test_current_location_provider(self, small_workload_module):
        provider = CurrentLocationSnapshotProvider()
        w = small_workload_module.workers[0]
        t = w.routine.start_time + 10.0
        snap = provider(w, t)
        assert len(snap.predicted_xy) == 1
        here = w.location_at(t)
        assert np.allclose(snap.predicted_xy[0], [here.x, here.y])


class TestRunAssignment:
    @pytest.mark.parametrize("algorithm", ["ppi", "km", "ub", "lb"])
    def test_algorithms_run(self, algorithm, trained, small_workload_module):
        result = run_assignment(
            small_workload_module,
            algorithm,
            AssignmentConfig(batch_window=5.0),
            predictor=trained,
        )
        m = result.metrics()
        assert 0.0 <= m.completion_ratio <= 1.0
        assert 0.0 <= m.rejection_ratio <= 1.0
        assert result.n_completed + result.n_expired == result.n_tasks

    def test_ppi_matches_at_the_predictor_threshold(self, trained, small_workload_module, monkeypatch):
        """Theorem 2 holds for B at the ``a`` MR was measured at (Def. 7),
        so PPI takes ``a`` from the predictor's config."""
        from dataclasses import replace

        import repro.pipeline.experiment as experiment
        from repro.assignment.plan import AssignmentPlan

        seen = set()

        def spy(tasks, snaps, t, config):
            seen.add(config.a)
            return AssignmentPlan()

        monkeypatch.setattr(experiment, "ppi_assign", spy)
        predictor = replace(trained, config=replace(trained.config, mr_threshold_km=0.45))
        run_assignment(small_workload_module, "ppi", AssignmentConfig(batch_window=10.0), predictor=predictor)
        assert seen == {0.45}

    def test_ggpso_runs(self, trained, small_workload_module):
        from repro.assignment.ggpso import GGPSOConfig

        result = run_assignment(
            small_workload_module,
            "ggpso",
            AssignmentConfig(batch_window=10.0),
            predictor=trained,
            ggpso_config=GGPSOConfig(generations=5, population_size=6),
        )
        assert result.n_tasks == len(small_workload_module.tasks)

    def test_ub_never_rejected(self, small_workload_module):
        result = run_assignment(small_workload_module, "ub", AssignmentConfig(batch_window=5.0))
        assert result.n_rejections == 0

    def test_predictive_requires_predictor(self, small_workload_module):
        with pytest.raises(ValueError):
            run_assignment(small_workload_module, "ppi")

    def test_unknown_algorithm(self, small_workload_module):
        with pytest.raises(ValueError):
            run_assignment(small_workload_module, "magic")

    def test_registry_is_complete(self):
        assert set(ASSIGNMENT_ALGORITHMS) == {"ppi", "ppi_loss", "km", "km_loss", "ggpso", "ub", "lb"}


class TestConfigFromDict:
    def test_experiment_from_dict_round(self):
        from repro.pipeline.config import ExperimentConfig

        config = ExperimentConfig.from_dict(
            {
                "prediction": {"algorithm": "maml", "seq_in": 3,
                               "maml": {"iterations": 5}},
                "assignment": {"batch_window": 4.0},
            }
        )
        assert config.prediction.algorithm == "maml"
        assert config.prediction.maml.iterations == 5
        assert config.assignment.batch_window == 4.0

    def test_unknown_key_names_itself(self):
        import pytest

        from repro.pipeline.config import ExperimentConfig

        with pytest.raises(ValueError, match="seq_inn"):
            ExperimentConfig.from_dict({"prediction": {"seq_inn": 3}})
        with pytest.raises(ValueError, match="predicton"):
            ExperimentConfig.from_dict({"predicton": {}})

    def test_ppi_a_km_is_not_a_key(self):
        # PPI's threshold is prediction.mr_threshold_km; a second copy
        # in the assignment block fails at load, naming itself.
        with pytest.raises(ValueError, match="ppi_a_km"):
            ExperimentConfig.from_dict({"assignment": {"ppi_a_km": 0.3}})

    def test_dist_is_not_a_key(self):
        # Meta-training has one engine and no execution knob; a dist
        # block in the prediction config fails at load, naming itself.
        with pytest.raises(ValueError, match="unknown key 'dist' in prediction"):
            PredictionConfig.from_dict({"dist": {"backend": "serial"}})
        with pytest.raises(ValueError, match="unknown key 'dist' in prediction"):
            ExperimentConfig.from_dict({"prediction": {"dist": {}}})

    def test_cell_is_not_a_key(self):
        # The LSTM encoder-decoder is the one mobility model; a cell key
        # fails at load, naming itself.
        with pytest.raises(ValueError, match="unknown key 'cell' in prediction"):
            PredictionConfig.from_dict({"cell": "lstm"})
        with pytest.raises(ValueError, match="unknown key 'cell' in prediction"):
            ExperimentConfig.from_dict({"prediction": {"cell": "lstm"}})

    def test_value_validation_still_runs(self):
        import pytest

        from repro.pipeline.config import PredictionConfig

        with pytest.raises(ValueError, match="algorithm"):
            PredictionConfig.from_dict({"algorithm": "nope"})
