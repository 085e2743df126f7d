"""Calibration monitoring: reliability bins, Brier score, drift detector.

Everything here is deterministic by construction — the detector is a
pure function of the sample sequence, so a synthetic outcome stream
trips (or does not trip) the alarm reproducibly.
"""

import inspect

import numpy as np
import pytest

from repro.assignment.matching_rate import (
    feasible_prediction_points,
    pair_completion_probability,
)
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot
from repro.assignment.ppi import PPIConfig
from repro.obs import (
    CalibrationConfig,
    CalibrationMonitor,
    PageHinkley,
)


class TestConfig:
    def test_defaults_match_ppi_threshold(self):
        """The engine scores calibration outcomes with the belief's
        default threshold, which must be the one PPI assigns with."""
        default_a = inspect.signature(pair_completion_probability).parameters["a"].default
        assert default_a == PPIConfig().a

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"n_bins": 0}, "bin"),
            ({"ph_delta": -1.0}, "non-negative"),
            ({"min_samples": 0}, "positive"),
            ({"ph_threshold": 0.0}, "threshold"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            CalibrationConfig(**kwargs)

    def test_make_detector_dispatch(self):
        assert isinstance(CalibrationConfig().make_detector(), PageHinkley)


def test_beliefs_count_the_points_ppi_counts():
    """|B| behind a belief is PPI's ``dis + a <= bound`` set, including
    predicted points placed exactly on the Theorem 2 radius."""
    a, budget = 0.3, 3.4  # bound = min(3.4 / 2, ...) = 1.7
    centre = Point(2.0, 3.0)
    snaps, tasks, want = [], [], []
    for k, angle in enumerate(np.linspace(0.0, 2.0 * np.pi, 240, endpoint=False)):
        radius = 1.7 - a
        point = np.array([[centre.x + radius * np.cos(angle), centre.y + radius * np.sin(angle)]])
        snaps.append(
            WorkerSnapshot(
                worker_id=k,
                current_location=centre,
                predicted_xy=point,
                predicted_times=np.array([10.0]),
                detour_budget_km=budget,
                speed_km_per_min=1.0,
                matching_rate=0.5,
            )
        )
        tasks.append(SpatialTask(k, centre, 0.0, 60.0))
        b_set = feasible_prediction_points(point, np.array([centre.x, centre.y]), a, 1.7)
        want.append(1.0 - 0.5 ** len(b_set))
    assert 0.0 in want and 0.5 in want  # the radius really splits the points
    assert [pair_completion_probability(s, t, 2.0, a) for s, t in zip(snaps, tasks)] == want


class TestPageHinkley:
    def test_stationary_signal_never_alarms(self):
        ph = PageHinkley(delta=0.02, threshold=1.0)
        assert not any(ph.update(0.2) for _ in range(500))

    def test_sustained_shift_alarms(self):
        ph = PageHinkley(delta=0.02, threshold=1.0)
        for _ in range(100):
            assert not ph.update(0.1)
        tripped = [ph.update(0.9) for _ in range(100)]
        assert any(tripped)
        # Deterministic: the same sequence trips at the same index.
        first = tripped.index(True)
        ph2 = PageHinkley(delta=0.02, threshold=1.0)
        for _ in range(100):
            ph2.update(0.1)
        tripped2 = [ph2.update(0.9) for _ in range(100)]
        assert tripped2.index(True) == first

    def test_reset_rearms(self):
        ph = PageHinkley(delta=0.0, threshold=0.5)
        while not ph.update(1.0 + ph.n * 0.1):
            pass
        ph.reset()
        assert ph.statistic == 0.0
        assert not ph.update(0.1)


def feed(monitor: CalibrationMonitor, outcomes, t0: float = 0.0):
    events = []
    for i, (p, accepted) in enumerate(outcomes):
        event = monitor.observe(p, accepted, t0 + float(i))
        if event is not None:
            events.append(event)
    return events


class TestCalibrationMonitor:
    def test_perfectly_calibrated_bins(self):
        mon = CalibrationMonitor(CalibrationConfig(n_bins=10))
        # p=0.75 pairs accepted 3 out of 4 — the bin agrees with itself.
        feed(mon, [(0.75, True), (0.75, True), (0.75, True), (0.75, False)])
        summary = mon.summary()
        bin7 = summary["bins"][7]
        assert bin7["n"] == 4
        assert bin7["mean_predicted"] == pytest.approx(0.75)
        assert bin7["frac_accepted"] == pytest.approx(0.75)
        assert summary["ece"] == pytest.approx(0.0)
        assert mon.brier == pytest.approx(0.1875)

    def test_p_equal_one_lands_in_last_bin(self):
        mon = CalibrationMonitor(CalibrationConfig(n_bins=10))
        feed(mon, [(1.0, True)])
        assert mon.summary()["bins"][9]["n"] == 1

    def test_invalid_probability_rejected(self):
        mon = CalibrationMonitor()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mon.observe(1.5, True, 0.0)
        with pytest.raises(ValueError):
            mon.observe(float("nan"), True, 0.0)

    def test_drift_event_fires_once_and_rearms(self):
        cfg = CalibrationConfig(min_samples=20, ph_delta=0.02, ph_threshold=2.0)
        mon = CalibrationMonitor(cfg)
        # Calibrated warm-up: confident predictions, honoured.
        events = feed(mon, [(0.9, True)] * 40)
        assert events == []
        # The model goes stale: same confidence, all rejections.
        events = feed(mon, [(0.9, False)] * 40, t0=100.0)
        assert len(events) == 1
        event = events[0]
        assert event["type"] == "drift"
        assert event["detector"] == "page_hinkley"
        assert event["n_samples"] > 40
        assert 100.0 <= event["t"] < 140.0
        assert mon.drift_events == [event]
        # The detector was reset: the post-drift regime is the new
        # baseline, so more of the same does not instantly re-alarm.
        assert mon.detector.n < mon.n

    def test_alarm_suppressed_before_min_samples(self):
        cfg = CalibrationConfig(min_samples=500, ph_threshold=0.5)
        mon = CalibrationMonitor(cfg)
        events = feed(mon, [(0.9, False)] * 100)
        assert events == []
        assert mon.n == 100

    def test_summary_roundtrips_to_json(self):
        import json

        mon = CalibrationMonitor()
        feed(mon, [(0.2, False), (0.8, True)])
        assert json.loads(json.dumps(mon.summary()))["n_samples"] == 2
