"""Exact MILP solving: LP simplex and branch-and-bound."""

from .branch_bound import DEFAULT_REL_GAP, INTEGRALITY_TOL, branch_and_bound, check_limits
from .simplex import PreparedLP, check_solution
from .types import Basis, NumericalFailure, Solution, SolveStatus, relative_gap

__all__ = [
    "Basis",
    "DEFAULT_REL_GAP",
    "INTEGRALITY_TOL",
    "NumericalFailure",
    "PreparedLP",
    "Solution",
    "SolveStatus",
    "branch_and_bound",
    "check_limits",
    "check_solution",
    "relative_gap",
]
