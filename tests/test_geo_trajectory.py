"""Tests for repro.geo.trajectory."""

import numpy as np
import pytest

from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint

from tests.conftest import straight_trajectory


class TestConstruction:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory([
                TrajectoryPoint(Point(0, 0), 0.0),
                TrajectoryPoint(Point(1, 0), 0.0),
            ])

    @pytest.mark.parametrize(
        "bad",
        [
            (TrajectoryPoint(Point(1.0, 0.0), float("nan")), r"time must be finite, got nan"),
            (TrajectoryPoint(Point(float("inf"), 0.0), 1.0), r"location must be finite, got \(inf, 0\.0\)"),
            (TrajectoryPoint(Point(1.0, float("nan")), 1.0), r"location must be finite, got \(1\.0, nan\)"),
            (TrajectoryPoint(Point(1.0, 0.0), float("inf")), r"time must be finite, got inf"),
        ],
    )
    def test_rejects_non_finite_samples(self, bad):
        # A NaN time passes the strictly-increasing check, and
        # ``position_at`` would then answer ``Point(nan, nan)``.  The
        # error names the sample, the field and the value.
        point, message = bad
        with pytest.raises(ValueError, match=rf"sample 1: {message}"):
            Trajectory([TrajectoryPoint(Point(0, 0), 0.0), point, TrajectoryPoint(Point(2, 0), 2.0)])

    def test_from_arrays(self):
        traj = Trajectory.from_arrays(np.array([[0, 0], [1, 1]]), [0.0, 5.0])
        assert len(traj) == 2
        assert traj[1].location == Point(1.0, 1.0)

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory.from_arrays(np.zeros((2, 2)), [0.0])

    def test_iteration_and_indexing(self, line_trajectory):
        pts = list(line_trajectory)
        assert pts[0] == line_trajectory[0]
        assert len(pts) == len(line_trajectory)


class TestGeometry:
    def test_length(self, line_trajectory):
        assert line_trajectory.length_km() == pytest.approx(10.0)

    def test_duration(self, line_trajectory):
        assert line_trajectory.duration() == pytest.approx(100.0)

    def test_xy_shape(self, line_trajectory):
        assert line_trajectory.xy.shape == (11, 2)


class TestInterpolation:
    def test_position_at_samples(self, line_trajectory):
        for p in line_trajectory:
            got = line_trajectory.position_at(p.time)
            assert got.distance_to(p.location) < 1e-9

    def test_position_between_samples(self, line_trajectory):
        mid = line_trajectory.position_at(5.0)  # halfway through first segment
        assert mid.x == pytest.approx(0.5)

    def test_clamps_before_and_after(self, line_trajectory):
        assert line_trajectory.position_at(-10.0) == line_trajectory[0].location
        assert line_trajectory.position_at(1e6) == line_trajectory[-1].location

    def test_constant_speed(self):
        traj = straight_trajectory(end=(10.0, 0.0), t1=10.0)
        for t in np.linspace(0, 10, 21):
            p = traj.position_at(float(t))
            assert p.x == pytest.approx(t, abs=1e-9)


class TestSlicing:
    def test_slice_time(self, line_trajectory):
        sub = line_trajectory.slice_time(20.0, 50.0)
        assert sub.start_time >= 20.0
        assert sub.end_time <= 50.0

    def test_slice_empty_raises(self, line_trajectory):
        with pytest.raises(ValueError):
            line_trajectory.slice_time(1000.0, 2000.0)

    def test_slice_reversed_raises(self, line_trajectory):
        with pytest.raises(ValueError):
            line_trajectory.slice_time(50.0, 20.0)

    def test_future_points(self, line_trajectory):
        fut = line_trajectory.future_points(45.0, 3)
        assert len(fut) == 3
        assert all(p.time > 45.0 for p in fut)

    def test_future_points_at_end(self, line_trajectory):
        assert line_trajectory.future_points(100.0, 5) == []


class TestResample:
    def test_uniform_step(self, line_trajectory):
        res = line_trajectory.resampled(25.0)
        times = np.asarray(res.times)
        assert np.allclose(np.diff(times), 25.0)

    def test_preserves_endpoints(self, line_trajectory):
        res = line_trajectory.resampled(10.0)
        assert res.start_time == pytest.approx(line_trajectory.start_time)
        assert res[-1].location.distance_to(line_trajectory[-1].location) < 1e-6

    def test_rejects_bad_step(self, line_trajectory):
        with pytest.raises(ValueError):
            line_trajectory.resampled(0.0)

    def test_single_point_trajectory(self):
        traj = Trajectory([TrajectoryPoint(Point(1, 1), 0.0)])
        assert len(traj.resampled(5.0)) == 1
