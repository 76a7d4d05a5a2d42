"""HiGHS, through ``scipy.optimize``, as an independent LP and MILP reference.

scipy is only a test extra, so test modules import this one after
``pytest.importorskip("scipy")``. The adapter reads a ``LinearModel`` field
by field and shares no code with the in-repo solver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array, diags_array

from fleetcharge.model import EQ, GE, LE, LinearModel

MIP_REL_GAP = 1e-9  # far below any gap under test, so this is the optimum


def _matrix(model: LinearModel) -> csr_array:
    rows = np.repeat(np.arange(model.num_rows), np.diff(model.row_start))
    # Repeated (row, column) entries add up, as in the in-repo simplex.
    return csr_array((np.asarray(model.row_vals, dtype=float),
                      (rows, np.asarray(model.row_cols, dtype=int))),
                     shape=(model.num_rows, model.num_cols))


def highs_solve(model: LinearModel, time_limit: float = 60.0):
    """(objective, values) of an optimal point, or (None, None) when HiGHS
    proves the model infeasible. Any other outcome fails loudly."""
    matrix = _matrix(model)
    rhs, sense = np.array(model.rhs, dtype=float), np.array(model.senses, dtype=object)
    row_lo = np.where(sense == LE, -math.inf, rhs)
    row_hi = np.where(sense == GE, math.inf, rhs)
    result = milp(
        c=np.asarray(model.objective, dtype=float),
        integrality=np.asarray(model.integer, dtype=int),
        bounds=Bounds(model.lower, model.upper),
        constraints=[LinearConstraint(matrix, row_lo, row_hi)] if model.num_rows else [],
        options={"mip_rel_gap": MIP_REL_GAP, "time_limit": time_limit},
    )
    if result.status == 2:
        return None, None
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {result.message}")
    return float(result.fun), np.asarray(result.x)


def highs_lp(model: LinearModel, method: str = "highs"):
    """(status, objective, iterations) of the LP with integrality ignored,
    from ``scipy.optimize.linprog`` with ``method``: status is "optimal",
    "infeasible" or "unbounded", the objective is None unless optimal, and
    iterations is HiGHS's iteration count. Any other outcome fails loudly."""
    matrix = _matrix(model)
    rhs, sense = np.array(model.rhs, dtype=float), np.array(model.senses, dtype=object)
    sign = np.where(sense == GE, -1.0, 1.0)  # GE rows become LE rows
    ub, eq = np.flatnonzero(sense != EQ), np.flatnonzero(sense == EQ)
    signed = (diags_array(sign) @ matrix).tocsr()
    result = linprog(
        np.asarray(model.objective, dtype=float),
        A_ub=signed[ub] if ub.size else None,
        b_ub=(sign * rhs)[ub] if ub.size else None,
        A_eq=matrix[eq] if eq.size else None,
        b_eq=rhs[eq] if eq.size else None,
        bounds=list(zip(model.lower, model.upper)),
        method=method,
        # Presolve can call an unbounded LP infeasible; the simplex without
        # it tells the two apart.
        options={"presolve": False},
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(result.status)
    if status is None:
        raise RuntimeError(f"HiGHS did not finish: {result.message}")
    if status != "optimal":
        return status, None, int(result.nit)
    return status, float(result.fun), int(result.nit)
