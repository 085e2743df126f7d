"""Equivalence tests: the serving engine vs. a fixed-step reference loop.

Two exactness claims anchor the serving layer:

1. Under its default ``ServeConfig`` (fixed window, unbounded queue, no
   index, no cache) the event-driven engine reproduces the paper's
   fixed-step batch scan **exactly** — same completion/rejection/expiry
   counts, same detours, same per-batch records.  The scan lives here,
   as :func:`fixed_step_reference`, and nowhere in the library.
2. The sparse candidate graph from the uniform-grid index is a superset
   of every Theorem-2-feasible pair, so candidate-aware PPI/KM return
   the identical plans the dense scan would.
"""

import pytest

from repro.assignment.baselines import km_assign
from repro.assignment.ppi import ppi_assign
from repro.sc.acceptance import evaluate_acceptance
from repro.sc.platform import BatchRecord, SimulationResult
from repro.serve import (
    DeadReckoningProvider,
    ServeConfig,
    ServeEngine,
    StreamConfig,
    make_task_stream,
    make_worker_fleet,
    result_signature,
)

from tests.test_sc import greedy_assign, oracle_provider


def fixed_step_reference(
    workers, provider, tasks, assign_fn, t_start, t_end,
    batch_window=2.0, assignment_window=10.0, outcome_listener=None,
):
    """The paper's online loop as a plain fixed-step scan.

    Every ``batch_window`` minutes from ``t_start``: release arrived
    tasks, expire those past their deadline or cancellation window, and
    assign the pending tasks to the online, non-busy workers.  It only
    releases tasks at ticks, so compare it with the engine on horizons
    that are multiples of the window.
    """
    result = SimulationResult(
        n_tasks=len(tasks), n_completed=0, n_assignments=0, n_rejections=0, n_expired=0
    )
    pending = {}
    remaining = sorted(tasks, key=lambda task: task.release_time)
    next_task = 0
    busy_until = {}
    worker_by_id = {w.worker_id: w for w in workers}
    t = t_start
    while t <= t_end + 1e-9:
        while next_task < len(remaining) and remaining[next_task].release_time <= t:
            pending[remaining[next_task].task_id] = remaining[next_task]
            next_task += 1
        for tid in [
            tid
            for tid, task in pending.items()
            if task.deadline < t
            or (assignment_window is not None and t > task.release_time + assignment_window)
        ]:
            del pending[tid]
            result.n_expired += 1
        available = [
            w
            for w in workers
            if w.availability_start() <= t <= w.availability_end()
            and busy_until.get(w.worker_id, -1.0) <= t
        ]
        batch_tasks = list(pending.values())
        if batch_tasks and available:
            plan = assign_fn(batch_tasks, [provider(w, t) for w in available], t)
            n_accepted = 0
            for pair in plan:
                worker = worker_by_id[pair.worker_id]
                task = pending[pair.task_id]
                decision = evaluate_acceptance(worker, task, t)
                result.n_assignments += 1
                if outcome_listener is not None:
                    outcome_listener(task.task_id, worker.worker_id, decision.accepted, t)
                if decision.accepted:
                    n_accepted += 1
                    result.n_completed += 1
                    result.completed_task_ids.add(task.task_id)
                    result.detours_km.append(decision.detour_km)
                    del pending[task.task_id]
                    off_route = decision.detour_km / worker.speed_km_per_min
                    busy_until[worker.worker_id] = t + batch_window + off_route
                else:
                    result.n_rejections += 1
            result.batches.append(
                BatchRecord(
                    batch_time=t,
                    n_pending=len(batch_tasks),
                    n_available=len(available),
                    n_assigned=len(plan),
                    n_accepted=n_accepted,
                    n_rejected=len(plan) - n_accepted,
                )
            )
        t += batch_window
    result.n_expired += len(pending)
    return result


def serve(workers, provider, tasks, assign_fn, t_start, t_end, outcome_listener=None, **config):
    engine = ServeEngine(workers, provider, ServeConfig(**config), assign_fn=assign_fn)
    return engine.run(tasks, t_start, t_end, outcome_listener=outcome_listener)


def scenario(seed, **overrides):
    cfg = StreamConfig(
        n_workers=overrides.pop("n_workers", 30),
        n_tasks=overrides.pop("n_tasks", 60),
        t_end=overrides.pop("t_end", 60.0),
        seed=seed,
        **overrides,
    )
    return make_task_stream(cfg), make_worker_fleet(cfg)


class TestBatchPlatformParity:
    """The engine's default configuration vs :func:`fixed_step_reference`."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("assign_fn", [ppi_assign, km_assign, greedy_assign])
    def test_counts_and_batches_match(self, seed, assign_fn):
        tasks, workers = scenario(seed)
        provider = DeadReckoningProvider(seed=seed)
        reference = fixed_step_reference(workers, provider, tasks, assign_fn, 0.0, 60.0)
        streamed = serve(workers, provider, tasks, assign_fn, 0.0, 60.0)
        assert result_signature(streamed) == result_signature(reference)

    def test_parity_without_assignment_window(self):
        tasks, workers = scenario(5)
        provider = DeadReckoningProvider(seed=5)
        reference = fixed_step_reference(
            workers, provider, tasks, ppi_assign, 0.0, 60.0, assignment_window=None
        )
        streamed = serve(workers, provider, tasks, ppi_assign, 0.0, 60.0, assignment_window=None)
        assert result_signature(streamed) == result_signature(reference)

    def test_parity_with_oracle_provider(self):
        tasks, workers = scenario(6, n_workers=10, n_tasks=30)
        reference = fixed_step_reference(
            workers, oracle_provider, tasks, ppi_assign, 0.0, 60.0, batch_window=3.0
        )
        streamed = serve(workers, oracle_provider, tasks, ppi_assign, 0.0, 60.0, batch_window=3.0)
        assert result_signature(streamed) == result_signature(reference)

    def test_parity_of_outcome_listener_streams(self):
        tasks, workers = scenario(7)
        provider = DeadReckoningProvider(seed=7)
        ref_events, got_events = [], []
        fixed_step_reference(
            workers, provider, tasks, ppi_assign, 0.0, 60.0,
            outcome_listener=lambda *event: ref_events.append(event),
        )
        serve(
            workers, provider, tasks, ppi_assign, 0.0, 60.0,
            outcome_listener=lambda *event: got_events.append(event),
        )
        assert got_events == ref_events


class TestSparseDenseExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("assign_fn", [ppi_assign, km_assign], ids=["ppi", "km"])
    def test_sparse_plans_match_dense(self, seed, assign_fn):
        # A wide extent so the index actually prunes.
        tasks, workers = scenario(seed, width_km=40.0, height_km=40.0)
        provider = DeadReckoningProvider(seed=seed)
        dense = ServeEngine(workers, provider, ServeConfig(), assign_fn=assign_fn)
        sparse = ServeEngine(
            workers,
            provider,
            ServeConfig(use_index=True, index_cell_km=2.0),
            assign_fn=assign_fn,
            candidate_assign_fn=assign_fn,
        )
        r_dense = dense.run(tasks, 0.0, 60.0)
        r_sparse = sparse.run(tasks, 0.0, 60.0)
        assert result_signature(r_sparse) == result_signature(r_dense)
        assert r_sparse.n_candidate_pairs < r_sparse.n_dense_pairs

    def test_sparse_matches_when_everything_is_in_range(self):
        """A tiny extent: the candidate graph is (nearly) dense and the
        plans still coincide."""
        tasks, workers = scenario(4, width_km=2.0, height_km=2.0)
        provider = DeadReckoningProvider(seed=4)
        dense = ServeEngine(workers, provider, ServeConfig(), assign_fn=ppi_assign)
        sparse = ServeEngine(
            workers,
            provider,
            ServeConfig(use_index=True, index_cell_km=0.5),
            assign_fn=ppi_assign,
            candidate_assign_fn=ppi_assign,
        )
        assert result_signature(sparse.run(tasks, 0.0, 60.0)) == result_signature(
            dense.run(tasks, 0.0, 60.0)
        )

    def test_cache_passthrough_preserves_parity(self):
        """ttl=0 caching must not change a single outcome."""
        tasks, workers = scenario(8)
        provider = DeadReckoningProvider(seed=8)
        plain = ServeEngine(workers, provider, ServeConfig(), assign_fn=ppi_assign)
        cached = ServeEngine(
            workers, provider, ServeConfig(cache_ttl=0.0), assign_fn=ppi_assign
        )
        assert result_signature(cached.run(tasks, 0.0, 60.0)) == result_signature(
            plain.run(tasks, 0.0, 60.0)
        )
