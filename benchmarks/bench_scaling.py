"""Scaling behaviour of the three hot algorithms.

Complements the paper's Appendix B complexity analyses with measured
growth curves: the KM solver (O(n^3)), GTMC clustering (similarity
matrices are the quadratic term), and a single PPI batch (pairwise
feasibility scan + staged matchings).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import write_result
from repro.assignment.hungarian import solve_assignment
from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.cluster.game import best_response_clustering
from repro.eval.report import format_table
from repro.geo.point import Point
from repro.sc.entities import SpatialTask, WorkerSnapshot


def _time(fn, repeats=3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_scaling_hungarian(benchmark):
    rng = np.random.default_rng(0)
    rows = []
    timings = {}
    for n in (16, 32, 64, 128):
        cost = rng.normal(size=(n, n))
        timings[n] = _time(lambda c=cost: solve_assignment(c))
        rows.append([n, timings[n] * 1e3])
    write_result(
        "scaling_hungarian",
        format_table("KM solver scaling (dense n x n)", ["n", "ms"], rows),
    )
    # O(n^3)-ish: doubling n should not grow time by more than ~16x.
    assert timings[128] / max(timings[64], 1e-9) < 16.0
    benchmark.pedantic(lambda: solve_assignment(rng.normal(size=(64, 64))), rounds=3, iterations=1)


def test_scaling_best_response(benchmark):
    rng = np.random.default_rng(1)
    rows = []
    for n in (10, 20, 40, 80):
        raw = rng.uniform(0, 1, size=(n, n))
        sim = (raw + raw.T) / 2
        np.fill_diagonal(sim, 1.0)
        init = rng.integers(0, 3, size=n)
        elapsed = _time(lambda s=sim, i=init: best_response_clustering(s, i, gamma=0.2))
        rows.append([n, elapsed * 1e3])
    write_result(
        "scaling_best_response",
        format_table("Best-response dynamics scaling", ["players", "ms"], rows),
    )
    benchmark.pedantic(
        lambda: best_response_clustering(sim, init, gamma=0.2), rounds=3, iterations=1
    )


def test_scaling_ppi_batch(benchmark):
    rng = np.random.default_rng(2)

    def make_inputs(n_tasks, n_workers):
        workers = [
            WorkerSnapshot(
                worker_id=w,
                current_location=Point(*rng.uniform(0, 10, 2)),
                predicted_xy=rng.uniform(0, 10, size=(6, 2)),
                predicted_times=10.0 * np.arange(1, 7),
                detour_budget_km=4.0,
                speed_km_per_min=0.5,
                matching_rate=float(rng.uniform(0, 1)),
            )
            for w in range(n_workers)
        ]
        tasks = [
            SpatialTask(i, Point(*rng.uniform(0, 10, 2)), 0.0, float(rng.uniform(20, 40)))
            for i in range(n_tasks)
        ]
        return tasks, workers

    rows = []
    for n_tasks, n_workers in ((20, 10), (50, 20), (100, 40), (200, 80)):
        tasks, workers = make_inputs(n_tasks, n_workers)
        elapsed = _time(lambda t=tasks, w=workers: ppi_assign(t, w, 0.0, config=PPIConfig()))
        rows.append([f"{n_tasks}x{n_workers}", elapsed * 1e3])
    write_result(
        "scaling_ppi",
        format_table("PPI single-batch scaling", ["tasks x workers", "ms"], rows),
    )
    tasks, workers = make_inputs(50, 20)
    plan = benchmark.pedantic(lambda: ppi_assign(tasks, workers, 0.0), rounds=3, iterations=1)
    assert len(plan) <= min(50, 20)
