"""Extra coverage for online prediction internals."""

import numpy as np
import pytest

from repro.geo.trajectory import Trajectory
from repro.nn.seq2seq import LSTMEncoderDecoder
from repro.pipeline.adaptive import AdaptiveMRSnapshotProvider
from repro.pipeline.config import AssignmentConfig, PredictionConfig
from repro.pipeline.prediction import PredictiveSnapshotProvider, _recent_shared_track, rollout
from repro.pipeline.training import TrainedPredictor, make_model_factory
from repro.sc.entities import Worker
from tests.conftest import straight_trajectory
from tests.tape import Tensor, leaves, tape_forward


@pytest.fixture
def model(rng):
    return LSTMEncoderDecoder(2, 6, seq_out=2, rng=rng)


def tape_rollout(model, recent_norm, horizon_points):
    """Reference: the autograd-tape forward, one call per ``seq_out`` block."""
    window = np.asarray(recent_norm, dtype=float).copy()
    out = []
    while sum(len(o) for o in out) < horizon_points:
        pred = tape_forward(leaves(model.params), Tensor(window[None, :, :]), model.seq_out).data[0]
        out.append(pred)
        window = np.concatenate([window, pred])[-len(recent_norm) :]
    return np.concatenate(out)[:horizon_points]


class TestRollout:
    def test_exact_horizon_lengths(self, model, rng):
        recent = rng.uniform(0, 1, size=(4, 2))
        for horizon in (1, 2, 3, 5, 7):
            out = rollout(model, recent, horizon_points=horizon, seq_out=2)
            assert out.shape == (horizon, 2)

    def test_autoregressive_consistency(self, model, rng):
        """The first seq_out points of a long rollout equal a short one."""
        recent = rng.uniform(0, 1, size=(4, 2))
        short = rollout(model, recent, horizon_points=2, seq_out=2)
        long = rollout(model, recent, horizon_points=6, seq_out=2)
        assert np.allclose(long[:2], short)

    def test_does_not_mutate_input(self, model, rng):
        recent = rng.uniform(0, 1, size=(4, 2))
        snapshot = recent.copy()
        rollout(model, recent, horizon_points=4, seq_out=2)
        assert np.allclose(recent, snapshot)

    @pytest.mark.parametrize("seq_out", [1, 2])
    def test_bit_identical_to_tape_loop(self, rng, seq_out):
        model = LSTMEncoderDecoder(2, 6, seq_out=seq_out, rng=rng)
        recent = rng.uniform(0, 1, size=(5, 2))
        for horizon in (1, 5, 6):
            np.testing.assert_array_equal(
                rollout(model, recent, horizon_points=horizon, seq_out=seq_out),
                tape_rollout(model, recent, horizon),
            )


class TestRecentSharedTrack:
    def _worker(self):
        return Worker(
            worker_id=0,
            routine=straight_trajectory(t0=0.0, t1=100.0, n=11),
            detour_budget_km=4.0,
            speed_km_per_min=0.5,
        )

    def test_returns_last_samples_up_to_t(self):
        w = self._worker()
        xy, ts = _recent_shared_track(w, t=45.0, seq_in=3)
        assert len(xy) == 3
        assert ts[-1] <= 45.0
        # Samples are every 10 minutes at x = t/10.
        assert xy[-1][0] == pytest.approx(4.0)

    def test_pads_at_day_start(self):
        w = self._worker()
        xy, _ = _recent_shared_track(w, t=5.0, seq_in=4)
        assert len(xy) == 4
        # Only one real sample exists; the rest repeat it.
        assert np.allclose(xy[0], xy[1])

    def test_before_any_sample_uses_position(self):
        w = self._worker()
        xy, ts = _recent_shared_track(w, t=-5.0, seq_in=2)
        assert len(xy) == 2
        assert np.isfinite(xy).all()

    def test_never_leaks_future_samples(self):
        w = self._worker()
        xy, ts = _recent_shared_track(w, t=33.0, seq_in=5)
        assert all(t <= 33.0 for t in ts)


@pytest.fixture(scope="module")
def predictor_and_workers():
    """An untrained predictor with distinct per-worker parameters."""
    from repro.data import PortoConfig, generate_porto_workers

    city, workers = generate_porto_workers(PortoConfig(n_workers=3, n_train_days=1, seed=3))
    config = PredictionConfig(hidden_size=6, seq_out=2)
    factory = make_model_factory(config)
    base = factory().state_dict()
    predictor = TrainedPredictor(
        worker_params={
            w.worker_id: {k: v + 0.01 * i for k, v in base.items()} for i, w in enumerate(workers)
        },
        matching_rates={w.worker_id: 0.5 for w in workers},
        model_factory=factory,
        config=config,
        city=city,
    )
    return predictor, workers


def _batch_times(worker, step=2.0):
    return np.arange(worker.routine.start_time, worker.routine.end_time, step)


class TestProviderMemo:
    ASSIGNMENT = AssignmentConfig(horizon_points=5)

    def test_reused_provider_matches_fresh_provider(self, predictor_and_workers):
        predictor, workers = predictor_and_workers
        reused = PredictiveSnapshotProvider(predictor, self.ASSIGNMENT)
        for worker in workers:
            for t in _batch_times(worker):
                got = reused(worker, t)
                want = PredictiveSnapshotProvider(predictor, self.ASSIGNMENT)(worker, t)
                np.testing.assert_array_equal(got.predicted_xy, want.predicted_xy)
                np.testing.assert_array_equal(got.predicted_times, want.predicted_times)
                assert got.current_location == want.current_location
                assert got.matching_rate == want.matching_rate

    def test_replaced_routine_gets_fresh_prediction(self, predictor_and_workers):
        predictor, workers = predictor_and_workers
        worker = workers[0]
        provider = PredictiveSnapshotProvider(predictor, self.ASSIGNMENT)
        t = worker.routine.start_time + 60.0
        before = provider(worker, t)
        routine = worker.routine
        moved = Worker(
            worker_id=worker.worker_id,
            routine=Trajectory.from_arrays(routine.xy + 1.5, routine.times),
            detour_budget_km=worker.detour_budget_km,
            speed_km_per_min=worker.speed_km_per_min,
        )
        after = provider(moved, t)
        fresh = PredictiveSnapshotProvider(predictor, self.ASSIGNMENT)(moved, t)
        assert not np.array_equal(after.predicted_xy, before.predicted_xy)
        np.testing.assert_array_equal(after.predicted_xy, fresh.predicted_xy)

    def test_memoised_prediction_is_read_only(self, predictor_and_workers):
        predictor, workers = predictor_and_workers
        worker = workers[0]
        provider = PredictiveSnapshotProvider(predictor, self.ASSIGNMENT)
        t = worker.routine.start_time + 60.0
        first = provider(worker, t)
        with pytest.raises(ValueError):
            first.predicted_xy[0, 0] += 1.0
        # The next batch on the same window reuses the same array.
        second = provider(worker, t + 2.0)
        assert np.shares_memory(second.predicted_xy, first.predicted_xy)

    def test_adaptive_wrapper_rewrites_only_matching_rate(self, predictor_and_workers):
        predictor, workers = predictor_and_workers
        worker = workers[0]
        adaptive = AdaptiveMRSnapshotProvider(PredictiveSnapshotProvider(predictor, self.ASSIGNMENT))
        t = worker.routine.start_time + 60.0
        adaptive.outcome_listener(0, worker.worker_id, False, t)
        first = adaptive(worker, t)
        adaptive.outcome_listener(1, worker.worker_id, False, t)
        second = adaptive(worker, t + 2.0)
        assert second.matching_rate < first.matching_rate < 0.5
        np.testing.assert_array_equal(second.predicted_xy, first.predicted_xy)
