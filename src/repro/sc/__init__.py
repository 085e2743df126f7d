"""Spatial crowdsourcing domain model.

Implements the system model of Section II: tasks arrive dynamically,
the platform assigns in batch mode against *predicted* worker mobility,
and workers accept or reject against their *actual* routines and detour
budgets.  The online batch loop itself is
:class:`repro.serve.engine.ServeEngine`.
"""

from repro.sc.entities import SpatialTask, Worker, WorkerSnapshot
from repro.sc.acceptance import AcceptanceDecision, evaluate_acceptance
from repro.sc.platform import SimulationResult, BatchRecord, validate_plan
from repro.sc.metrics import AssignmentMetrics

__all__ = [
    "SpatialTask",
    "Worker",
    "WorkerSnapshot",
    "AcceptanceDecision",
    "evaluate_acceptance",
    "SimulationResult",
    "BatchRecord",
    "validate_plan",
    "AssignmentMetrics",
]
