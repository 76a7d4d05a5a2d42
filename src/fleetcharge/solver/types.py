"""Result types and failures shared by the LP and MILP solvers."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .simplex import Factor

__all__ = ["SolveStatus", "Solution", "Basis", "NumericalFailure"]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


class NumericalFailure(RuntimeError):
    """The LP solver could not make progress within its iteration budget."""


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis, small enough to keep on every open search node.

    ``basic`` holds the column index basic in each row position and
    ``at_upper`` one bool per column (structural columns, then one slack
    per row): True where a nonbasic column sits at its upper bound. The
    entries of basic columns are ignored. A solve from this record puts a
    nonbasic column at its upper bound when that bound is finite and
    either the record says upper or the lower bound is infinite, else at
    its lower bound. The arrays are never written after construction, so
    siblings may share one.
    """

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass
class Solution:
    """Outcome of a solve: status, variable values, objective, and bounds.

    An LP solve is OPTIMAL or INFEASIBLE: the solver takes only models
    whose costs are bounded on their side, so no relaxation is unbounded.
    ``gap`` is (objective - best_bound) / max(|objective|, 1e-9) for
    minimization; OPTIMAL implies gap <= the configured tolerance. ``values``
    covers the model's structural columns and is None when no feasible point
    was found. ``basis`` is the final LP basis of an OPTIMAL LP solve, a
    warm start for a solve of the same model under nearby bounds, and
    ``factor`` the :class:`~fleetcharge.solver.simplex.Factor` that owns
    its kernel inverse, tagged with ``basis``; a branch-and-bound result
    carries neither.

    ``counts`` is the work done, keyed ``lp_solves``, ``pivots``,
    ``refactorizations`` and ``factor_handoffs``: an LP solve counts
    itself once, its dual pivots, its kernel refactorizations and the
    factor it took over (0 or 1), and a branch-and-bound result sums the
    counts of all its LP solves (node LPs and polishes).
    Branch-and-bound also reports ``stop_reason``: ``gap`` (target gap
    proven), ``exhausted`` (tree searched), ``node_limit``, ``time_limit``
    or ``infeasible``.
    """

    status: SolveStatus
    values: np.ndarray | None = None
    objective: float | None = None
    best_bound: float | None = None
    gap: float | None = None
    node_count: int = 0
    wall_time: float = 0.0
    basis: Basis | None = None
    factor: Factor | None = None
    counts: Counter = field(default_factory=Counter)
    stop_reason: str | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) \
            and self.values is not None


def relative_gap(objective: float, bound: float) -> float:
    return (objective - bound) / max(abs(objective), 1e-9)
