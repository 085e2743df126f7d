"""A day in the life of a courier fleet: batch-by-batch PPI assignment.

Domain scenario from the paper's introduction: ride-hailing-style tasks
arrive with rush-hour peaks; part-time couriers cross the city on their
own routines; the platform matches in 2-minute batches against
predicted mobility.  This example surfaces the *internals*: per-batch
supply/demand, which PPI stage produced each assignment, and how
rejected tasks carry over.

Run:  python examples/courier_day.py
"""

from __future__ import annotations

from collections import Counter

from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.meta.maml import MAMLConfig
from repro.pipeline import (
    AssignmentConfig,
    PredictionConfig,
    WorkloadSpec,
    make_workload1,
    train_predictor,
)
from repro.pipeline.prediction import PredictiveSnapshotProvider
from repro.serve import ServeConfig, ServeEngine


def main() -> None:
    spec = WorkloadSpec(n_workers=10, n_tasks=200, n_train_days=4, seed=11)
    workload, learning = make_workload1(spec)
    config = PredictionConfig(
        algorithm="gttaml",
        loss="task_oriented",
        maml=MAMLConfig(iterations=8, meta_batch=4, inner_steps=2),
    )
    predictor = train_predictor(learning, workload.city, config, workload.historical_tasks_xy)

    assignment = AssignmentConfig()
    provider = PredictiveSnapshotProvider(predictor, assignment)
    stage_counter: Counter[int] = Counter()
    ppi_cfg = PPIConfig(a=predictor.config.mr_threshold_km, epsilon=assignment.ppi_epsilon)

    def counting_ppi(tasks, snapshots, t):
        plan = ppi_assign(tasks, snapshots, t, config=ppi_cfg)
        for pair in plan:
            stage_counter[pair.stage] += 1
        return plan

    engine = ServeEngine(
        workload.workers,
        provider,
        ServeConfig(
            batch_window=assignment.batch_window,
            assignment_window=assignment.assignment_window,
        ),
        assign_fn=counting_ppi,
    )
    t0, t1 = workload.horizon()
    result = engine.run(workload.tasks, t0, t1)

    print("batch log (every 15th batch):")
    print(f"{'t':>6} {'pending':>8} {'free':>5} {'assigned':>9} {'accepted':>9} {'rejected':>9}")
    for record in result.batches[::15]:
        print(
            f"{record.batch_time:>6.0f} {record.n_pending:>8} {record.n_available:>5} "
            f"{record.n_assigned:>9} {record.n_accepted:>9} {record.n_rejected:>9}"
        )

    m = result.metrics()
    print(
        f"\nday summary: {result.n_completed}/{result.n_tasks} tasks completed "
        f"({m.completion_ratio:.1%}), rejection {m.rejection_ratio:.1%}, "
        f"mean detour {m.worker_cost_km:.2f} km"
    )
    total_assigned = sum(stage_counter.values())
    print("\nPPI stage breakdown (who produced the assignments):")
    for stage, label in ((1, "stage 1: |B|*MR >= 1 (near-certain)"),
                         (2, "stage 2: confidence-ordered chunks"),
                         (3, "stage 3: plain predicted proximity")):
        n = stage_counter.get(stage, 0)
        share = n / total_assigned if total_assigned else 0.0
        print(f"  {label:<38} {n:>5}  ({share:.1%})")


if __name__ == "__main__":
    main()
