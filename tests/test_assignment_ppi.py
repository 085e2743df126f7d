"""Tests for PPI (Algorithm 4), the baselines, GGPSO, and plans."""

import numpy as np
import pytest

from repro.assignment.baselines import km_assign, lower_bound_assign, upper_bound_assign
from repro.assignment.ggpso import GGPSOConfig, ggpso_assign
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot


def snapshot(worker_id, points, mr=0.5, detour=4.0, speed=0.5, times=None, current=None):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if times is None:
        times = 10.0 * np.arange(1, len(pts) + 1)
    cur = current if current is not None else Point(float(pts[0, 0]), float(pts[0, 1]))
    return WorkerSnapshot(
        worker_id=worker_id,
        current_location=cur,
        predicted_xy=pts,
        predicted_times=np.asarray(times, dtype=float),
        detour_budget_km=detour,
        speed_km_per_min=speed,
        matching_rate=mr,
    )


def task(task_id, x, y, release=0.0, deadline=40.0):
    return SpatialTask(task_id=task_id, location=Point(x, y), release_time=release, deadline=deadline)


class TestAssignmentPlan:
    def test_rejects_duplicate_task(self):
        with pytest.raises(ValueError):
            AssignmentPlan([AssignmentPair(0, 0, 1.0), AssignmentPair(0, 1, 1.0)])

    def test_rejects_duplicate_worker(self):
        with pytest.raises(ValueError):
            AssignmentPlan([AssignmentPair(0, 0, 1.0), AssignmentPair(1, 0, 1.0)])

    def test_add_conflict(self):
        plan = AssignmentPlan([AssignmentPair(0, 0, 1.0)])
        with pytest.raises(ValueError):
            plan.add(AssignmentPair(1, 0, 1.0))

    def test_lookup(self):
        plan = AssignmentPlan([AssignmentPair(3, 7, 1.0)])
        assert plan.worker_for_task(3) == 7
        assert plan.worker_for_task(99) is None
        assert plan.task_ids() == {3}
        assert plan.worker_ids() == {7}

    def test_id_sets_track_adds_and_are_copies(self):
        plan = AssignmentPlan()
        plan.extend([AssignmentPair(k, 10 + k, 1.0) for k in range(3)])
        assert plan.task_ids() == {0, 1, 2} and plan.worker_ids() == {10, 11, 12}
        plan.task_ids().add(5)
        plan.worker_ids().add(15)
        plan.add(AssignmentPair(5, 15, 1.0))  # the copies did not block it
        with pytest.raises(ValueError, match="conflicts"):
            plan.add(AssignmentPair(6, 15, 1.0))
        assert len(plan) == 4


class TestPPI:
    def test_empty_inputs(self):
        assert len(ppi_assign([], [], 0.0)) == 0
        assert len(ppi_assign([task(0, 0, 0)], [], 0.0)) == 0

    def test_assigns_feasible_pair(self):
        workers = [snapshot(0, [[1.0, 0.0], [1.2, 0.0]], mr=0.9)]
        tasks = [task(0, 1.0, 0.1)]
        plan = ppi_assign(tasks, workers, 0.0)
        assert plan.worker_for_task(0) == 0

    def test_high_confidence_assigned_in_stage_one(self):
        # Two predicted points near the task, MR 0.9 -> |B|*MR = 1.8 >= 1.
        workers = [snapshot(0, [[1.0, 0.0], [1.1, 0.0], [0.9, 0.0]], mr=0.9)]
        plan = ppi_assign([task(0, 1.0, 0.0)], workers, 0.0, config=PPIConfig(a=0.3))
        assert plan.pairs[0].stage == 1

    def test_low_confidence_goes_to_stage_two(self):
        workers = [snapshot(0, [[1.0, 0.0]], mr=0.3)]  # |B|*MR = 0.3 < 1
        plan = ppi_assign([task(0, 1.0, 0.0)], workers, 0.0, config=PPIConfig(a=0.3))
        assert plan.pairs[0].stage == 2

    def test_out_of_radius_goes_to_stage_three(self):
        # Distance 1.8 + a 0.3 > bound 2.0 fails Theorem 2, but 1.8 <= 2.0
        # passes the plain stage-3 check.
        workers = [snapshot(0, [[1.8, 0.0]], mr=0.5, detour=4.0)]
        plan = ppi_assign([task(0, 0.0, 0.0)], workers, 0.0, config=PPIConfig(a=0.3))
        assert len(plan) == 1
        assert plan.pairs[0].stage == 3

    def test_infeasible_not_assigned(self):
        workers = [snapshot(0, [[50.0, 50.0]], mr=0.9)]
        plan = ppi_assign([task(0, 0.0, 0.0)], workers, 0.0)
        assert len(plan) == 0

    def test_prioritises_confident_worker(self):
        """One task, two equally-near workers: the one whose |B|*MR
        crosses the stage-1 threshold gets it."""
        confident = snapshot(0, [[1.0, 0.0], [1.0, 0.1]], mr=0.9)
        shaky = snapshot(1, [[1.0, 0.0], [1.0, 0.1]], mr=0.1)
        plan = ppi_assign([task(0, 1.0, 0.0)], [confident, shaky], 0.0, config=PPIConfig(a=0.3))
        assert plan.worker_for_task(0) == 0

    def test_each_worker_used_once(self):
        workers = [snapshot(0, [[0.0, 0.0]], mr=0.9)]
        tasks = [task(0, 0.0, 0.0), task(1, 0.1, 0.0)]
        plan = ppi_assign(tasks, workers, 0.0)
        assert len(plan) == 1

    def test_epsilon_chunking_still_covers_all(self):
        """Many stage-2 candidates with epsilon=1: every task that can be
        served still gets a worker."""
        workers = [snapshot(i, [[float(i), 0.0]], mr=0.2) for i in range(5)]
        tasks = [task(i, float(i), 0.2) for i in range(5)]
        plan = ppi_assign(tasks, workers, 0.0, config=PPIConfig(a=0.3, epsilon=1))
        assert len(plan) == 5

    @pytest.mark.parametrize("order", ["far_first", "near_first"])
    def test_zero_mr_pair_with_feasible_points_goes_to_stage_two(self, order):
        """|B| * MR is 0 both for an MR = 0 worker with a non-empty B and
        for a worker with an empty B; only the first belongs in stage 2,
        whichever order the snapshots come in."""
        near = snapshot(8, [[0.5, 0.0]], mr=0.0)  # B = {0.5}: 0.5 + 0.3 <= 2
        far = snapshot(3, [[1.9, 0.0]], mr=0.5)  # B empty, nearest 1.9 <= 2
        workers = [far, near] if order == "far_first" else [near, far]
        plan = ppi_assign([task(1, 0.0, 0.0)], workers, 0.0, config=PPIConfig(a=0.3))
        assert [(p.task_id, p.worker_id, p.stage) for p in plan] == [(1, 8, 2)]

    def test_expired_task_skipped(self):
        workers = [snapshot(0, [[1.0, 0.0]], mr=0.9)]
        expired = task(0, 1.0, 0.0, release=0.0, deadline=5.0)
        plan = ppi_assign([expired], workers, current_time=10.0)
        assert len(plan) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PPIConfig(a=-0.1)
        with pytest.raises(ValueError):
            PPIConfig(epsilon=0)


class TestKMBaseline:
    def test_matches_nearest_globally(self):
        workers = [snapshot(0, [[0.0, 0.0]]), snapshot(1, [[5.0, 0.0]])]
        tasks = [task(0, 0.1, 0.0), task(1, 5.1, 0.0)]
        plan = km_assign(tasks, workers, 0.0)
        assert plan.worker_for_task(0) == 0
        assert plan.worker_for_task(1) == 1

    def test_respects_bound(self):
        workers = [snapshot(0, [[0.0, 0.0]], detour=2.0)]
        plan = km_assign([task(0, 3.0, 0.0)], workers, 0.0)  # 3 > d/2 = 1
        assert len(plan) == 0


class TestUpperBound:
    def test_uses_real_route_feasibility(self):
        # Real route passes right by the task.
        oracle = snapshot(0, [[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]], times=[0.0, 5.0, 10.0])
        plan = upper_bound_assign([task(0, 2.0, 0.1)], [oracle], 0.0)
        assert len(plan) == 1

    def test_deadline_enforced(self):
        oracle = snapshot(0, [[10.0, 0.0]], times=[100.0])
        # Task deadline long past the only reachable time.
        plan = upper_bound_assign([task(0, 10.0, 0.0, deadline=5.0)], [oracle], 0.0)
        assert len(plan) == 0

    def test_prefers_smaller_detour(self):
        near = snapshot(0, [[1.0, 0.1]], times=[1.0])
        far = snapshot(1, [[1.0, 1.5]], times=[1.0])
        plan = upper_bound_assign([task(0, 1.0, 0.0)], [near, far], 0.0)
        assert plan.worker_for_task(0) == 0


class TestLowerBound:
    def test_uses_current_location_only(self):
        w = snapshot(0, [[100.0, 100.0]], current=Point(1.0, 0.0))
        plan = lower_bound_assign([task(0, 1.0, 0.1)], [w], 0.0)
        assert len(plan) == 1

    def test_far_current_location_infeasible(self):
        w = snapshot(0, [[1.0, 0.0]], current=Point(100.0, 100.0))
        plan = lower_bound_assign([task(0, 1.0, 0.1)], [w], 0.0)
        assert len(plan) == 0


class TestGGPSO:
    def test_empty(self):
        assert len(ggpso_assign([], [], 0.0)) == 0

    def test_finds_obvious_assignment(self):
        workers = [snapshot(0, [[0.0, 0.0]]), snapshot(1, [[5.0, 0.0]])]
        tasks = [task(0, 0.1, 0.0), task(1, 5.1, 0.0)]
        plan = ggpso_assign(tasks, workers, 0.0, GGPSOConfig(generations=10))
        assert plan.worker_for_task(0) == 0
        assert plan.worker_for_task(1) == 1

    def test_plan_is_valid_matching(self):
        rng = np.random.default_rng(0)
        workers = [snapshot(i, rng.uniform(0, 5, size=(3, 2))) for i in range(6)]
        tasks = [task(i, *rng.uniform(0, 5, size=2)) for i in range(8)]
        plan = ggpso_assign(tasks, workers, 0.0, GGPSOConfig(generations=15))
        # AssignmentPlan construction already validates; double-check ids.
        assert plan.task_ids() <= {t.task_id for t in tasks}
        assert plan.worker_ids() <= {w.worker_id for w in workers}

    def test_never_worse_than_greedy_seed(self):
        """Elitism keeps the greedy seed, so total utility can only grow."""
        rng = np.random.default_rng(2)
        workers = [snapshot(i, rng.uniform(0, 6, size=(2, 2))) for i in range(5)]
        tasks = [task(i, *rng.uniform(0, 6, size=2)) for i in range(5)]
        short = ggpso_assign(tasks, workers, 0.0, GGPSOConfig(generations=1))
        long = ggpso_assign(tasks, workers, 0.0, GGPSOConfig(generations=40))
        assert sum(p.score for p in long) >= sum(p.score for p in short) - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GGPSOConfig(population_size=1)
        with pytest.raises(ValueError):
            GGPSOConfig(mutation_rate=2.0)
        with pytest.raises(ValueError):
            GGPSOConfig(elite=0)
