"""Float-arithmetic routines against the numpy forms they replace.

``evaluate_acceptance``, ``Trajectory.position_at`` and the prediction
cache's deviation test work on a handful of points, so they run float
arithmetic instead of numpy calls.  The array forms below are the
references: every decision, detour, arrival and interpolated position
must be equal with ``==``, not approximately, because a last-bit
difference in one detour changes a run's signature.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.point import Point
from repro.geo.trajectory import Trajectory, TrajectoryPoint
from repro.sc.acceptance import AcceptanceDecision, evaluate_acceptance
from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.serve.prediction_cache import PredictionCache


# ----------------------------------------------------------------------
# References: the numpy forms.


def reference_position_at(routine: Trajectory, t: float) -> Point:
    times = routine.times
    if t <= times[0]:
        return routine[0].location
    if t >= times[-1]:
        return routine[-1].location
    hi = bisect.bisect_right(times, t)
    lo = hi - 1
    t0, t1 = times[lo], times[hi]
    frac = (t - t0) / (t1 - t0)
    x0, y0 = routine.xy[lo]
    x1, y1 = routine.xy[hi]
    return Point(float(x0 + frac * (x1 - x0)), float(y0 + frac * (y1 - y0)))


def reference_acceptance(worker: Worker, task: SpatialTask, current_time: float) -> AcceptanceDecision:
    routine = worker.routine
    future = [p for p in routine if p.time > current_time]
    here = reference_position_at(routine, current_time)
    points = [here] + [p.location for p in future]
    times = [current_time] + [p.time for p in future]

    tloc = np.array([task.location.x, task.location.y])
    xy = np.array([[p.x, p.y] for p in points])
    d_to_task = np.sqrt(((xy - tloc) ** 2).sum(axis=1))
    arrival = np.asarray(times) + d_to_task / worker.speed_km_per_min
    reachable = arrival <= task.deadline

    best_detour = math.inf
    best_arrival = math.inf
    for k in range(len(points)):
        if not reachable[k]:
            continue
        if k + 1 < len(points):
            seg = float(np.sqrt(((xy[k] - xy[k + 1]) ** 2).sum()))
            detour = float(d_to_task[k]) + float(np.sqrt(((tloc - xy[k + 1]) ** 2).sum())) - seg
        else:
            detour = 2.0 * float(d_to_task[k])
        detour = max(detour, 0.0)
        if detour < best_detour:
            best_detour = detour
            best_arrival = float(arrival[k])

    accepted = best_detour <= worker.detour_budget_km
    return AcceptanceDecision(accepted=accepted, detour_km=best_detour, arrival_time=best_arrival)


def reference_arrivals(worker: Worker, location: Point, current_time: float) -> list[float]:
    """Arrival time at ``location`` from each branch point, as the reference computes it."""
    routine = worker.routine
    future = [p for p in routine if p.time > current_time]
    here = reference_position_at(routine, current_time)
    xy = np.array([[here.x, here.y]] + [[p.location.x, p.location.y] for p in future])
    times = np.array([current_time] + [p.time for p in future])
    d = np.sqrt(((xy - np.array([location.x, location.y])) ** 2).sum(axis=1))
    return (times + d / worker.speed_km_per_min).tolist()


def reference_predicted_position(snapshot: WorkerSnapshot, t: float) -> np.ndarray | None:
    times = snapshot.predicted_times
    xy = snapshot.predicted_xy
    if len(xy) == 0:
        return None
    origin = np.array([snapshot.current_location.x, snapshot.current_location.y])
    if t <= times[0]:
        return origin if t < times[0] else xy[0]
    idx = int(np.searchsorted(times, t))
    if idx >= len(times):
        return xy[-1]
    t0, t1 = times[idx - 1], times[idx]
    if t1 <= t0:
        return xy[idx]
    frac = (t - t0) / (t1 - t0)
    return xy[idx - 1] + frac * (xy[idx] - xy[idx - 1])


def reference_deviated(snapshot: WorkerSnapshot, here: Point, t: float, deviation_km) -> bool:
    if deviation_km is None:
        return False
    predicted = reference_predicted_position(snapshot, t)
    if predicted is None:
        return False
    gap = float(np.hypot(predicted[0] - here.x, predicted[1] - here.y))
    return gap > deviation_km


# ----------------------------------------------------------------------
# Strategies.  Integer lattice values give tasks on samples, collinear
# routes and tied detours; wide floats give last-bit rounding.

coord = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
)
gap = st.one_of(st.integers(1, 10).map(float), st.floats(1e-3, 30.0))


@st.composite
def routines(draw, max_size: int = 12) -> Trajectory:
    n = draw(st.integers(1, max_size))
    times = [draw(st.floats(-100.0, 100.0))]
    for step in draw(st.lists(gap, min_size=n - 1, max_size=n - 1)):
        times.append(times[-1] + step)
    xy = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return Trajectory(TrajectoryPoint(Point(x, y), t) for (x, y), t in zip(xy, times))


@st.composite
def query_times(draw, times) -> float:
    """A time before, at, between or after ``times``."""
    kind = draw(st.sampled_from(["before", "at", "between", "after"]))
    if kind == "before":
        return times[0] - draw(st.floats(1e-6, 50.0))
    if kind == "after":
        return times[-1] + draw(st.floats(0.0, 50.0))
    i = draw(st.integers(0, len(times) - 1))
    if kind == "at" or i == len(times) - 1:
        return float(times[i])
    frac = draw(st.floats(0.0, 1.0, exclude_max=True))
    return float(times[i] + frac * (times[i + 1] - times[i]))


@st.composite
def workers(draw) -> Worker:
    return Worker(
        worker_id=0,
        routine=draw(routines()),
        detour_budget_km=draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0))),
        speed_km_per_min=draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 3.0))),
    )


@st.composite
def tasks_for(draw, worker: Worker, t: float) -> SpatialTask:
    """A task at a sample, at the current position or anywhere, whose
    deadline is either exactly one branch point's arrival or free."""
    routine = worker.routine
    where = draw(st.sampled_from(["sample", "here", "free"]))
    if where == "sample":
        location = routine[draw(st.integers(0, len(routine) - 1))].location
    elif where == "here":
        location = routine.position_at(t)
    else:
        location = Point(draw(coord), draw(coord))
    if draw(st.booleans()):
        deadline = draw(st.sampled_from(reference_arrivals(worker, location, t)))
    else:
        deadline = t + draw(st.floats(-20.0, 200.0))
    return SpatialTask(0, location, release_time=deadline - 1.0, deadline=deadline)


# ----------------------------------------------------------------------
# Acceptance.


class TestAcceptanceParity:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_array_form(self, data):
        worker = data.draw(workers())
        t = data.draw(query_times(worker.routine.times))
        assert worker.routine.position_at(t) == reference_position_at(worker.routine, t)
        for task in data.draw(st.lists(tasks_for(worker, t), min_size=1, max_size=20)):
            assert evaluate_acceptance(worker, task, t) == reference_acceptance(worker, task, t)

    def test_matches_array_form_in_bulk(self):
        """20,000 random offers from a fixed seed.  A last-bit difference
        in one square (``x ** 2`` against ``x * x``) reaches a decision
        in about one offer in 1,500 to 5,000, too rarely for the drawn
        examples above to meet it."""
        rng = np.random.default_rng(0)
        for _ in range(400):
            n = int(rng.integers(1, 13))
            times = np.cumsum(rng.uniform(0.5, 10.0, size=n)) + rng.uniform(-50.0, 50.0)
            routine = Trajectory.from_arrays(rng.uniform(-20.0, 20.0, size=(n, 2)), times)
            worker = Worker(0, routine, float(rng.uniform(0.0, 15.0)), float(rng.uniform(0.1, 2.0)))
            for _ in range(50):
                t = float(rng.uniform(times[0] - 5.0, times[-1] + 5.0))
                deadline = t + float(rng.uniform(1.0, 120.0))
                location = Point(*rng.uniform(-20.0, 20.0, size=2).tolist())
                task = SpatialTask(0, location, deadline - 1.0, deadline)
                assert evaluate_acceptance(worker, task, t) == reference_acceptance(worker, task, t)

    @staticmethod
    def line_worker(budget: float = 1.0, speed: float = 1.0, n: int = 4) -> Worker:
        routine = Trajectory(TrajectoryPoint(Point(float(i), 0.0), float(i)) for i in range(n))
        return Worker(0, routine, detour_budget_km=budget, speed_km_per_min=speed)

    def check(self, worker: Worker, task: SpatialTask, t: float) -> AcceptanceDecision:
        decision = evaluate_acceptance(worker, task, t)
        assert decision == reference_acceptance(worker, task, t)
        return decision

    def test_before_the_routine_starts(self):
        worker = self.line_worker()
        decision = self.check(worker, SpatialTask(0, Point(1.0, 0.0), 0.0, 50.0), -5.0)
        # Every sample is ahead of the clamped start, the first one included.
        assert decision.accepted and decision.detour_km == 0.0 and decision.arrival_time == 1.0

    def test_after_the_routine_ends(self):
        worker = self.line_worker(budget=2.0)
        decision = self.check(worker, SpatialTask(0, Point(3.0, 1.0), 0.0, 50.0), 10.0)
        # Only the last position remains: an out-and-back trip.
        assert decision.accepted and decision.detour_km == 2.0 and decision.arrival_time == 11.0

    def test_one_sample_routine(self):
        routine = Trajectory([TrajectoryPoint(Point(1.0, 1.0), 5.0)])
        worker = Worker(0, routine, detour_budget_km=1.0, speed_km_per_min=0.5)
        decision = self.check(worker, SpatialTask(0, Point(1.0, 2.0), 0.0, 50.0), 7.0)
        assert not decision.accepted and decision.detour_km == 2.0 and decision.arrival_time == 9.0

    def test_task_on_a_sample_ties_first_branch_wins(self):
        # Branching before and after the sample both cost 0 km; the
        # earlier branch point is kept.
        worker = self.line_worker(budget=0.0, speed=0.5)
        decision = self.check(worker, SpatialTask(0, Point(1.0, 0.0), 0.0, 50.0), 0.0)
        assert decision.accepted and decision.detour_km == 0.0 and decision.arrival_time == 2.0

    def test_arrival_exactly_at_the_deadline(self):
        worker = self.line_worker(budget=5.0)
        task = SpatialTask(0, Point(0.0, 2.0), 0.0, 2.0)
        decision = self.check(worker, task, 0.0)
        assert decision.accepted and decision.arrival_time == task.deadline
        late = SpatialTask(0, Point(0.0, 2.0), 0.0, math.nextafter(2.0, 0.0))
        assert not self.check(worker, late, 0.0).accepted

    def test_zero_budget(self):
        worker = self.line_worker(budget=0.0)
        assert self.check(worker, SpatialTask(0, Point(1.5, 0.0), 0.0, 50.0), 0.0).accepted
        assert not self.check(worker, SpatialTask(0, Point(1.5, 0.1), 0.0, 50.0), 0.0).accepted

    def test_unreachable_everywhere(self):
        worker = self.line_worker()
        decision = self.check(worker, SpatialTask(0, Point(0.0, 30.0), 0.0, 10.0), 0.0)
        assert not decision.accepted and decision.detour_km == math.inf


# ----------------------------------------------------------------------
# Prediction-cache hit path.


@st.composite
def snapshots(draw) -> WorkerSnapshot:
    n = draw(st.integers(0, 8))
    # Integer times repeat, which gives duplicate timestamps.
    times = sorted(draw(st.lists(st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 60.0)), min_size=n, max_size=n)))
    xy = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return WorkerSnapshot(
        worker_id=0,
        current_location=Point(draw(coord), draw(coord)),
        predicted_xy=np.array(xy, dtype=float).reshape(n, 2),
        predicted_times=np.array(times, dtype=float),
        detour_budget_km=1.0,
        speed_km_per_min=1.0,
        matching_rate=0.5,
    )


def no_provider(worker, t):
    raise AssertionError("the provider is not called here")


class TestCacheHitParity:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_predicted_position_and_deviation_match_array_form(self, data):
        snapshot = data.draw(snapshots())
        times = snapshot.predicted_times.tolist() or [0.0]
        t = data.draw(st.one_of(query_times(times), st.floats(-10.0, 80.0)))
        expected = reference_predicted_position(snapshot, t)
        got = PredictionCache._predicted_position(snapshot, t)
        if expected is None:
            assert got is None
        else:
            assert got == (float(expected[0]), float(expected[1]))

        here = Point(data.draw(coord), data.draw(coord))
        deviation = data.draw(st.one_of(st.none(), st.floats(0.0, 60.0)))
        cache = PredictionCache(no_provider, ttl=1.0, deviation_km=deviation)
        assert cache._deviated(snapshot, here, t) == reference_deviated(snapshot, here, t, deviation)

    def test_empty_forecast_never_deviates(self):
        empty = WorkerSnapshot(0, Point(0.0, 0.0), np.zeros((0, 2)), np.zeros(0), 1.0, 1.0, 0.5)
        assert PredictionCache._predicted_position(empty, 3.0) is None
        assert not PredictionCache(no_provider, ttl=1.0, deviation_km=0.0)._deviated(
            empty, Point(100.0, 100.0), 3.0
        )

    def test_hit_shares_the_cached_arrays(self):
        routine = Trajectory(TrajectoryPoint(Point(float(i), 0.0), 2.0 * i) for i in range(5))
        worker = Worker(7, routine, detour_budget_km=1.0, speed_km_per_min=1.0)
        built = WorkerSnapshot(
            7, Point(0.0, 0.0), np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([2.0, 4.0]), 1.0, 1.0, 0.5
        )
        cache = PredictionCache(lambda w, t: built, ttl=6.0, deviation_km=2.0)
        first = cache.get(worker, 0.0)
        hit = cache.get(worker, 3.0)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert hit.predicted_xy is first.predicted_xy
        assert hit.predicted_times is first.predicted_times
        assert hit.current_location == worker.last_shared_location(3.0)

    def test_with_location_copies_every_field(self):
        snapshot = WorkerSnapshot(
            3, Point(1.0, 2.0), np.array([[1.0, 0.0]]), np.array([2.0]), 1.5, 0.7, 0.25
        )
        moved = snapshot.with_location(Point(4.0, 5.0))
        expected = replace(snapshot, current_location=Point(4.0, 5.0))
        for f in fields(WorkerSnapshot):
            got, want = getattr(moved, f.name), getattr(expected, f.name)
            if isinstance(want, np.ndarray):
                assert got is getattr(snapshot, f.name)
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, f.name
        assert snapshot.current_location == Point(1.0, 2.0)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 2.0, 2.5, 4.0, 9.0])
def test_duplicate_timestamps(t):
    snapshot = WorkerSnapshot(
        0,
        Point(0.0, 0.0),
        np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 5.0], [4.0, 4.0]]),
        np.array([0.0, 2.0, 2.0, 4.0]),
        1.0,
        1.0,
        0.5,
    )
    expected = reference_predicted_position(snapshot, t)
    assert PredictionCache._predicted_position(snapshot, t) == (float(expected[0]), float(expected[1]))
