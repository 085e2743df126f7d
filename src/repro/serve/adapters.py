"""The observable outcome of a run, for equivalence checks.

Parity between two ways of running the same workload — serial vs
sharded engines, dense vs indexed candidates, a recorded sweep cell vs
its rerun — is stated as equality of
:func:`result_signature`.
"""

from __future__ import annotations

from repro.sc.platform import SimulationResult


def result_signature(result: SimulationResult) -> dict[str, object]:
    """The observable outcome of a run, for equivalence checks.

    Everything deterministic about a simulation — aggregate counts,
    accepted detours, completed task ids, and the per-batch records —
    excluding wall-clock timings, which legitimately differ between
    runs.
    """
    return {
        "n_tasks": result.n_tasks,
        "n_completed": result.n_completed,
        "n_assignments": result.n_assignments,
        "n_rejections": result.n_rejections,
        "n_expired": result.n_expired,
        "detours_km": list(result.detours_km),
        "completed_task_ids": set(result.completed_task_ids),
        "batches": [
            (
                b.batch_time,
                b.n_pending,
                b.n_available,
                b.n_assigned,
                b.n_accepted,
                b.n_rejected,
            )
            for b in result.batches
        ],
    }
