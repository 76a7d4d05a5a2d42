"""HiGHS, through ``scipy.optimize.milp``, as an independent MILP reference.

scipy is only a test extra, so test modules import this one after
``pytest.importorskip("scipy")``. The adapter reads a ``LinearModel`` field
by field and shares no code with the in-repo solver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from fleetcharge.model import GE, LE, LinearModel

MIP_REL_GAP = 1e-9  # far below any gap under test, so this is the optimum


def highs_solve(model: LinearModel, time_limit: float = 60.0):
    """(objective, values) of an optimal point, or (None, None) when HiGHS
    proves the model infeasible. Any other outcome fails loudly."""
    entries = [(i, j, a) for i, row in enumerate(model.rows) for j, a in row.coeffs]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    # Repeated (row, column) entries add up, as in the in-repo simplex.
    matrix = csr_array((vals, (rows, cols)), shape=(model.num_rows, model.num_cols))
    row_lo = [-math.inf if row.sense == LE else row.rhs for row in model.rows]
    row_hi = [math.inf if row.sense == GE else row.rhs for row in model.rows]
    result = milp(
        c=np.asarray(model.objective, dtype=float),
        integrality=np.asarray(model.integer, dtype=int),
        bounds=Bounds(model.lower, model.upper),
        constraints=[LinearConstraint(matrix, row_lo, row_hi)] if model.rows else [],
        options={"mip_rel_gap": MIP_REL_GAP, "time_limit": time_limit},
    )
    if result.status == 2:
        return None, None
    if result.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {result.message}")
    return float(result.fun) + model.objective_offset, np.asarray(result.x)
