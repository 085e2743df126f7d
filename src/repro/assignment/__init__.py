"""Task assignment: the KM substrate, matching rate, PPI, and baselines."""

from repro.assignment.hungarian import (
    solve_assignment,
    assignment_cost,
    maximum_weight_matching,
    Edge,
    WarmStartState,
)
from repro.assignment.matching_rate import (
    matching_rate,
    completion_radius,
    feasible_prediction_points,
    theorem2_bound,
)
from repro.assignment.ppi import ppi_assign, CandidateGraph, PPIConfig
from repro.assignment.baselines import (
    km_assign,
    upper_bound_assign,
    lower_bound_assign,
)
from repro.assignment.ggpso import ggpso_assign, GGPSOConfig
from repro.assignment.plan import AssignmentPlan, AssignmentPair

__all__ = [
    "solve_assignment",
    "assignment_cost",
    "maximum_weight_matching",
    "Edge",
    "WarmStartState",
    "matching_rate",
    "completion_radius",
    "feasible_prediction_points",
    "theorem2_bound",
    "ppi_assign",
    "CandidateGraph",
    "PPIConfig",
    "km_assign",
    "upper_bound_assign",
    "lower_bound_assign",
    "ggpso_assign",
    "GGPSOConfig",
    "AssignmentPlan",
    "AssignmentPair",
]
