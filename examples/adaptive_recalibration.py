"""Online matching-rate recalibration (extension beyond the paper).

The offline matching rate can be optimistic: a worker whose test day
deviates from their history keeps receiving confident assignments and
keeps rejecting them.  The :mod:`repro.pipeline.adaptive` tracker
treats every accept/reject as evidence and recalibrates MR within the
day, which PPI's confidence ordering then exploits.

This example runs the same day twice — fixed offline MR vs adaptive
MR — and compares rejection rates, then shows the per-worker MR drift.

Run:  python examples/adaptive_recalibration.py
"""

from __future__ import annotations

from repro.assignment.ppi import PPIConfig, ppi_assign
from repro.meta.maml import MAMLConfig
from repro.pipeline import (
    AssignmentConfig,
    PredictionConfig,
    WorkloadSpec,
    make_workload1,
    train_predictor,
)
from repro.pipeline.adaptive import AdaptiveMRSnapshotProvider
from repro.pipeline.prediction import PredictiveSnapshotProvider
from repro.serve import ServeConfig, ServeEngine


def main() -> None:
    spec = WorkloadSpec(n_workers=12, n_tasks=300, n_train_days=3, seed=19)
    workload, learning = make_workload1(spec)
    config = PredictionConfig(
        algorithm="gttaml",
        loss="task_oriented",
        maml=MAMLConfig(iterations=8, meta_batch=4, inner_steps=2),
    )
    predictor = train_predictor(learning, workload.city, config, workload.historical_tasks_xy)
    assignment = AssignmentConfig()
    ppi_cfg = PPIConfig(a=predictor.config.mr_threshold_km, epsilon=assignment.ppi_epsilon)

    def assign_fn(tasks, snapshots, t):
        return ppi_assign(tasks, snapshots, t, config=ppi_cfg)

    t0, t1 = workload.horizon()
    serve_config = ServeConfig(
        batch_window=assignment.batch_window, assignment_window=assignment.assignment_window
    )

    # Run 1: fixed offline MR.
    base = PredictiveSnapshotProvider(predictor, assignment)
    fixed = ServeEngine(workload.workers, base, serve_config, assign_fn=assign_fn).run(
        workload.tasks, t0, t1
    )

    # Run 2: MR recalibrated from accept/reject feedback.
    adaptive_provider = AdaptiveMRSnapshotProvider(
        base=PredictiveSnapshotProvider(predictor, assignment)
    )
    adaptive = ServeEngine(
        workload.workers, adaptive_provider, serve_config, assign_fn=assign_fn
    ).run(workload.tasks, t0, t1, outcome_listener=adaptive_provider.outcome_listener)

    print(f"{'variant':<12} {'completion':>10} {'rejection':>10} {'cost km':>8}")
    for name, result in (("fixed MR", fixed), ("adaptive MR", adaptive)):
        m = result.metrics()
        print(f"{name:<12} {m.completion_ratio:>10.3f} {m.rejection_ratio:>10.3f} {m.worker_cost_km:>8.3f}")

    print("\nper-worker MR drift (offline prior -> end-of-day posterior):")
    tracker = adaptive_provider.tracker
    for worker in workload.workers:
        prior = predictor.matching_rates.get(worker.worker_id, 0.0)
        posterior = tracker.posterior(worker.worker_id, prior)
        accepts, rejects = tracker.observations(worker.worker_id)
        if accepts + rejects == 0:
            continue
        arrow = "down" if posterior < prior - 0.02 else ("up" if posterior > prior + 0.02 else "flat")
        print(
            f"  worker {worker.worker_id:>2}: {prior:.2f} -> {posterior:.2f} "
            f"({accepts} accepts / {rejects} rejects, {arrow})"
        )


if __name__ == "__main__":
    main()
