"""Reference objectives from HiGHS through ``scipy.optimize.milp``.

scipy is not a dependency of fleetcharge, so :func:`reference_objectives`
guards the import; without it the benchmark falls back to a replay-only
check.
"""

from __future__ import annotations

import math
import time

import numpy as np
from fleetcharge.model import GE, LE

__all__ = ["highs_objective", "reference_objectives"]

MIP_REL_GAP = 1e-7  # far below any workload's gap, so the reference is the optimum
TIME_LIMIT_S = 60.0


def highs_objective(model) -> tuple[float | None, float]:
    """Optimal objective of a ``LinearModel`` (None if HiGHS proves none),
    and the seconds HiGHS took."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    entries = [(i, j, a) for i, row in enumerate(model.rows) for j, a in row.coeffs]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    # Repeated (row, column) entries add up, as in the in-repo simplex.
    matrix = csr_array((vals, (rows, cols)), shape=(model.num_rows, model.num_cols))
    row_lo = [-math.inf if row.sense == LE else row.rhs for row in model.rows]
    row_hi = [math.inf if row.sense == GE else row.rhs for row in model.rows]
    start = time.perf_counter()
    result = milp(
        c=np.asarray(model.objective, dtype=float),
        integrality=np.asarray(model.integer, dtype=int),
        bounds=Bounds(model.lower, model.upper),
        constraints=[LinearConstraint(matrix, row_lo, row_hi)] if model.rows else [],
        options={"mip_rel_gap": MIP_REL_GAP, "time_limit": TIME_LIMIT_S},
    )
    seconds = time.perf_counter() - start
    if result.status != 0:
        return None, seconds
    return float(result.fun) + model.objective_offset, seconds


def reference_objectives(models) -> tuple[list | None, float]:
    """HiGHS's objective for each model (None for a missing model) and the
    total HiGHS time, or None when scipy cannot be imported."""
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError:
        return None, 0.0
    objectives, total = [], 0.0
    for model in models:
        if model is None:
            objectives.append(None)
            continue
        objective, seconds = highs_objective(model)
        objectives.append(objective)
        total += seconds
    return objectives, total
