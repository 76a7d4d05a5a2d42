"""Independent oracles for the solver tests.

Kept deliberately separate from the package: a rational-arithmetic LP
solver (exact tableau simplex with Bland's rule), a knapsack dynamic
program, and deterministic random-instance generators share no code with
the implementation under test. The brute-force enumeration oracle tries
every integer assignment; it borrows only the package's cold-start LP
solve for the continuous part, never branch-and-bound or a warm start.

Three small helpers that only tests call live here too: ``solve_lp`` (one
cold LP solve of a model), ``objective_breakdown`` (the model-side split
of an objective that the validator recomputes independently) and
``run_fresh`` (code run in a new interpreter that imports the package). The
loop references for vectorized code (``dense_matrix``,
``check_solution_by_rows``, ``curve_rows_by_loop``) and for the kernel
refactorization (``refactor_by_dense_columns``) sit beside them, as
do the float formulas that the time grid's integer arithmetic replaced
(``quantize_by_float``, ``slack_blocks_by_float``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import fleetcharge
from fleetcharge.builder import VariableCatalog
from fleetcharge.domain import Scenario
from fleetcharge.model import EQ, GE, LE, LinearModel
from fleetcharge.solver import PreparedLP, Solution, SolveStatus
from fleetcharge.solver.simplex import TOL_CHECK

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def solve_lp(model: LinearModel, lower=None, upper=None) -> Solution:
    """LP solve with integrality relaxed (marks ignored), from the slack basis.

    Deterministic: identical input produces the identical pivot sequence
    and solution. Raises :class:`NumericalFailure` when the iteration
    budget is exhausted.
    """
    return PreparedLP(model).solve(lower, upper)


def objective_breakdown(
    scenario: Scenario, cat: VariableCatalog, values
) -> dict[str, float]:
    """Split a solution's objective into energy/infrastructure/peak parts.

    This is the model-side decomposition (it reads the catalog's columns);
    the validator recomputes the same quantities independently.
    """
    tau = scenario.time_grid.block_duration_hours
    prices = scenario.price_schedule.energy_price_per_kwh
    energy = 0.0
    for (truck_id, day, leg_index, type_id, block), col in cat.y.items():
        charger = scenario.charger(type_id)
        energy += float(values[col]) * tau \
            * (charger.rated_power_kw / charger.efficiency) \
            * prices[scenario.charger_index(type_id)][block]
    infra = sum(
        scenario.charger(type_id).capital_cost * float(values[col])
        for (loc, type_id), col in cat.x.items())
    peak = scenario.alpha * sum(values[col] for col in cat.c_peak.values())
    return {
        "energy": energy,
        "infrastructure": float(infra),
        "peak": float(peak),
        "total": energy + float(infra) + float(peak),
    }


def solve_lp_exact(c, rows, senses, rhs):
    """min c'x s.t. rows x {<=,>=,=} rhs, x >= 0 — exact Fractions.

    Two-phase tableau simplex with Bland's rule, so it terminates and never
    suffers roundoff. Returns (status, objective Fraction or None).
    """
    n = len(c)
    m = len(rows)
    c = [Fraction(v) for v in c]
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]

    # Normalize to b >= 0.
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
            senses = list(senses)
            senses[i] = {LE: GE, GE: LE, EQ: EQ}[senses[i]]

    columns: list[list[Fraction]] = [list(col) for col in zip(*a)] if m else []
    costs = list(c)
    art_cols: list[int] = []

    def add_col(entries, cost):
        col = [Fraction(0)] * m
        for i, v in entries:
            col[i] = Fraction(v)
        columns.append(col)
        costs.append(Fraction(cost))
        return len(columns) - 1

    basis: list[int] = [-1] * m
    for i in range(m):
        if senses[i] == LE:
            j = add_col([(i, 1)], 0)
            basis[i] = j
        elif senses[i] == GE:
            add_col([(i, -1)], 0)
    for i in range(m):
        if basis[i] == -1:
            j = add_col([(i, 1)], 0)
            art_cols.append(j)
            basis[i] = j

    width = len(columns)
    tableau = [[columns[j][i] for j in range(width)] + [b[i]] for i in range(m)]

    def pivot(row, col):
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for r in range(m):
            if r != row and tableau[r][col] != 0:
                factor = tableau[r][col]
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], tableau[row])]
        basis[row] = col

    def run(cost_vec, forbidden):
        while True:
            duals = [cost_vec[basis[i]] for i in range(m)]
            entering = -1
            for j in range(width):
                if j in forbidden or j in basis:
                    continue
                reduced = cost_vec[j] - sum(
                    duals[i] * tableau[i][j] for i in range(m))
                if reduced < 0:
                    entering = j
                    break  # Bland: lowest index
            if entering == -1:
                return OPTIMAL
            ratio = None
            leaving = -1
            for i in range(m):
                if tableau[i][entering] > 0:
                    r = tableau[i][-1] / tableau[i][entering]
                    if ratio is None or r < ratio or (
                            r == ratio and basis[i] < basis[leaving]):
                        ratio = r
                        leaving = i
            if leaving == -1:
                return UNBOUNDED
            pivot(leaving, entering)

    phase1 = [Fraction(0)] * width
    for j in art_cols:
        phase1[j] = Fraction(1)
    if art_cols:
        status = run(phase1, forbidden=set())
        if status != OPTIMAL:
            return INFEASIBLE, None
        infeas = sum(phase1[basis[i]] * tableau[i][-1] for i in range(m))
        if infeas != 0:
            return INFEASIBLE, None
        # Pivot leftover artificials out where possible.
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(width):
                    if j not in art_cols and tableau[i][j] != 0:
                        pivot(i, j)
                        break

    full_costs = costs + []
    status = run(full_costs, forbidden=set(art_cols))
    if status == UNBOUNDED:
        return UNBOUNDED, None
    objective = sum(full_costs[basis[i]] * tableau[i][-1] for i in range(m))
    return OPTIMAL, objective


def dense_matrix(model: LinearModel) -> np.ndarray:
    """The model's m x n coefficient matrix by a plain loop over its CSR
    lists; repeated (row, column) entries add up in storage order."""
    A = np.zeros((model.num_rows, model.num_cols))
    for i in range(model.num_rows):
        for k in range(model.row_start[i], model.row_start[i + 1]):
            A[i, model.row_cols[k]] += model.row_vals[k]
    return A


def scaled_matrix(model: LinearModel) -> np.ndarray:
    """The solver's row-scaled matrix by a plain loop: each row of
    :func:`dense_matrix` divided by its largest |coefficient| (an empty
    row by 1)."""
    A = dense_matrix(model)
    for i in range(model.num_rows):
        scale = max((abs(a) for a in A[i]), default=0.0)
        A[i] /= scale if scale > 0 else 1.0
    return A


def refactor_by_dense_columns(state) -> tuple[np.ndarray, np.ndarray]:
    """K^-1 and x_B of a simplex state's basis, from its k x k structural
    kernel taken out of a dense m x k copy ``A_S`` of the basic structural
    columns; the state is not changed.

    The reference for ``_SimplexState._refactor``, which builds the kernel
    from the stored entries: both invert the same matrix, so their K^-1
    agree bit for bit. The basic slacks' values come from a dense product
    here and from a pass over the stored entries there, so x_B agrees to
    roundoff.
    """
    prep, basis = state.prep, state.basis
    m, n = prep.m, prep.n
    structural = basis < n
    struct_pos = np.flatnonzero(structural)
    slack_pos = np.flatnonzero(~structural)
    slack_rows = basis[slack_pos] - n
    in_kernel = np.ones(m, dtype=bool)
    in_kernel[slack_rows] = False
    kernel_rows = np.flatnonzero(in_kernel)
    position = np.full(n, -1)
    position[basis[struct_pos]] = np.arange(struct_pos.size)
    picked = position[prep.col_of] >= 0
    A_S = np.zeros((m, struct_pos.size))
    A_S[prep.col_rows[picked], position[prep.col_of[picked]]] = prep.col_vals[picked]
    K_inv = np.linalg.inv(A_S[kernel_rows])
    residual = state._residual()
    x_B = np.empty(m)
    x_B[struct_pos] = K_inv @ residual[kernel_rows]
    x_B[slack_pos] = residual[slack_rows] - A_S[slack_rows] @ x_B[struct_pos]
    return K_inv, x_B


def check_solution_by_rows(model: LinearModel, values) -> list[str]:
    """Column-by-column and row-by-row reference for the vectorized
    ``check_solution``, reading the CSR lists one row at a time; both must
    return the same messages."""
    x = np.asarray(values, dtype=float)
    problems = []
    for j in range(model.num_cols):
        if x[j] < model.lower[j] - TOL_CHECK or x[j] > model.upper[j] + TOL_CHECK:
            problems.append(
                f"column {model.col_names[j]} = {x[j]} outside "
                f"[{model.lower[j]}, {model.upper[j]}]")
        if model.integer[j] and abs(x[j] - round(x[j])) > 1e-6:
            problems.append(f"column {model.col_names[j]} = {x[j]} not integral")
    for i, name in enumerate(model.row_names):
        lo, hi = model.row_start[i], model.row_start[i + 1]
        coeffs = list(zip(model.row_cols[lo:hi], model.row_vals[lo:hi]))
        sense, rhs = model.senses[i], model.rhs[i]
        lhs = sum(coef * x[j] for j, coef in coeffs)
        scale = max(1.0, max((abs(coef) for _, coef in coeffs), default=1.0))
        if sense == LE and lhs > rhs + TOL_CHECK * scale:
            problems.append(f"row {name}: {lhs} > {rhs}")
        elif sense == GE and lhs < rhs - TOL_CHECK * scale:
            problems.append(f"row {name}: {lhs} < {rhs}")
        elif sense == EQ and abs(lhs - rhs) > TOL_CHECK * scale:
            problems.append(f"row {name}: {lhs} != {rhs}")
    return problems


def _sum_in_order(values):
    """Left to right from 0, as ``sum`` adds floats before Python 3.12
    (which compensates)."""
    return functools.reduce(operator.add, values, 0)


def _smooth_by_loop(values: list[float], window: int = 4) -> list[float]:
    half_lo = window // 2
    half_hi = window - half_lo - 1
    out = []
    for t in range(len(values)):
        lo = max(0, t - half_lo)
        hi = min(len(values), t + half_hi + 1)
        out.append(_sum_in_order(values[lo:hi]) / (hi - lo))
    return out


def curve_rows_by_loop(scenario: Scenario, cell, plan, type_ids) -> list[list]:
    """Reference for the sweep's numpy ``_curve_rows``: the per-block loops
    over days, types and window terms, each value formatted by ``repr``."""
    grid = scenario.time_grid
    bpd, days = grid.blocks_per_day, grid.num_days
    rows = []
    for location in scenario.location_ids:
        by_type = plan.power_by_type.get(location, {})
        daily: dict[int, list[float]] = {}
        for tid in type_ids:
            curve = by_type.get(tid, [0.0] * grid.total_blocks)
            daily[tid] = [
                _sum_in_order(curve[d * bpd + t] for d in range(days)) / days
                for t in range(bpd)
            ]
        total = [_sum_in_order(daily[tid][t] for tid in type_ids) for t in range(bpd)]
        smooth_by_type = {tid: _smooth_by_loop(daily[tid]) for tid in type_ids}
        smooth_total = _smooth_by_loop(total)
        max_peak = max(map(sum, zip(*by_type.values())), default=0.0)
        installed = sum(
            scenario.charger(tid).rated_power_kw
            * plan.charger_counts.get(location, {}).get(tid, 0)
            for tid in type_ids)
        for t in range(bpd):
            rows.append(
                [cell.alpha, cell.slack_minutes, cell.design, location, t]
                + [repr(float(daily[tid][t])) for tid in type_ids]
                + [repr(float(smooth_by_type[tid][t])) for tid in type_ids]
                + [repr(float(x)) for x in (total[t], smooth_total[t], max_peak,
                                            installed)])
    return rows


def quantize_by_float(dep_min: int, arr_min: int, block_minutes: int) -> tuple[int, int, int]:
    """Reference for the grid's integer quantization: departure block
    (floor), arrival block (ceil) and travel blocks (ceil) within the day,
    by float division with 1e-9 guards against its noise."""
    block = block_minutes / 60.0 * 60.0  # through hours, as tau is stored
    return (int(math.floor(dep_min / block + 1e-9)),
            int(math.ceil(arr_min / block - 1e-9)),
            int(math.ceil((arr_min - dep_min) / block - 1e-9)))


def slack_blocks_by_float(slack_minutes: int, block_minutes: int) -> int | None:
    """Reference for ``TimeGrid.slack_blocks``: the slack in whole blocks,
    or None where it is not a whole number of blocks."""
    blocks = slack_minutes / (block_minutes / 60.0 * 60.0)
    if abs(blocks - round(blocks)) > 1e-9:
        return None
    return int(round(blocks))


def lp_to_exact_inputs(model: LinearModel):
    """Convert a LinearModel with lower bounds 0 into oracle inputs.

    Finite upper bounds become explicit rows; the oracle itself only knows
    x >= 0.
    """
    n = model.num_cols
    assert all(lo == 0 for lo in model.lower), "oracle expects zero lower bounds"
    rows = dense_matrix(model).tolist()
    senses = list(model.senses)
    rhs = list(model.rhs)
    for j in range(n):
        if model.upper[j] != float("inf"):
            dense = [0.0] * n
            dense[j] = 1.0
            rows.append(dense)
            senses.append(LE)
            rhs.append(model.upper[j])
    return model.objective, rows, senses, rhs


def knapsack_best_value(values, weights, capacity) -> int:
    """0/1 knapsack by dynamic programming over integer capacities."""
    table = [0] * (capacity + 1)
    for value, weight in zip(values, weights):
        for cap in range(capacity, weight - 1, -1):
            table[cap] = max(table[cap], table[cap - weight] + value)
    return table[capacity]


def random_lp(seed: int, size: int = 8) -> LinearModel:
    """A dense random LP with mixed senses, zero lower bounds, box uppers.

    A column without an upper bound gets a cost of at least zero, so the
    LP is in the solver's input class and never unbounded.
    """
    rng = random.Random(seed)
    model = LinearModel()
    for j in range(size):
        upper = rng.choice([float("inf"), rng.randrange(2, 9)])
        cost = rng.randrange(-9, 10)
        if upper == float("inf"):
            cost = abs(cost)
        model.add_column(f"x{j}", 0.0, upper, objective=cost)
    for i in range(size):
        coeffs = [(j, rng.randrange(-5, 6)) for j in range(size)
                  if rng.random() < 0.7]
        if not coeffs:
            coeffs = [(rng.randrange(size), 1)]
        sense = rng.choice([LE, LE, GE, EQ])
        point = [rng.uniform(0, 2) for _ in range(size)]
        value = sum(c * point[j] for j, c in coeffs)
        slacked = value + rng.uniform(0, 4) if sense == LE else \
            value - rng.uniform(0, 4) if sense == GE else value
        model.add_row(f"r{i}", coeffs, sense, round(slacked, 3))
    return model


def random_mixed_bounds_lp(seed: int, size: int = 8) -> LinearModel:
    """A dense random LP over every column kind of the solver's input
    class: costless lower-only, upper-only, lower-only, boxed and fixed,
    with mixed senses.

    Boxed and fixed columns take costs of both signs; the others take the
    sign their bounds allow in the input class (upper-only: at most zero,
    lower-only: at least zero). Rows are built around a point inside the
    box, and inequality rows are loosened or tightened at random, so the
    LP may be optimal or infeasible.
    """
    rng = random.Random(seed)
    model = LinearModel()
    point = []
    for j in range(size):
        kind = rng.choice(["costless", "upper", "lower", "boxed", "fixed"])
        lo = float(rng.randrange(-5, 3))
        hi = lo if kind == "fixed" else lo + rng.randrange(1, 7)
        point.append(rng.uniform(lo, hi))
        if kind == "upper":
            lo = -math.inf
        if kind in ("costless", "lower"):
            hi = math.inf
        cost = rng.randrange(-9, 10)
        cost = {"costless": 0, "upper": -abs(cost), "lower": abs(cost)}.get(kind, cost)
        model.add_column(f"x{j}", lo, hi, objective=cost)
    for i in range(size):
        coeffs = [(j, rng.randrange(-5, 6)) for j in range(size)
                  if rng.random() < 0.7]
        if not coeffs:
            coeffs = [(rng.randrange(size), 1)]
        sense = rng.choice([LE, LE, GE, EQ])
        value = sum(c * point[j] for j, c in coeffs)
        shift = rng.uniform(-1, 4)
        rhs = value + shift if sense == LE else value - shift if sense == GE else value
        model.add_row(f"r{i}", coeffs, sense, round(rhs, 3))
    return model


def random_binary_milp(seed: int) -> LinearModel:
    """Pure-binary MILP, <=12 binaries and <=10 rows, mostly feasible."""
    rng = random.Random(seed)
    n = rng.randrange(6, 13)
    m = rng.randrange(3, 11)
    model = LinearModel()
    for j in range(n):
        model.add_column(
            f"y{j}", 0.0, 1.0, objective=rng.randrange(-10, 11), integer=True)
    anchor = [rng.randrange(0, 2) for _ in range(n)]
    for i in range(m):
        coeffs = [(j, rng.randrange(-6, 7)) for j in range(n)
                  if rng.random() < 0.6]
        if not coeffs:
            coeffs = [(rng.randrange(n), 1)]
        value = sum(c * anchor[j] for j, c in coeffs)
        sense = rng.choice([LE, LE, GE, GE, EQ])
        if sense == LE:
            rhs = value + rng.randrange(0, 4)
        elif sense == GE:
            rhs = value - rng.randrange(0, 4)
        else:
            rhs = value
        model.add_row(f"r{i}", coeffs, sense, float(rhs))
    return model


# -- brute-force enumeration ---------------------------------------------------
# Every integer assignment inside the column bounds is tried; continuous
# columns are optimized by an LP solve per assignment. Models whose columns
# are all integer skip the LP entirely and are checked in vectorized batches.


class TooLarge(ValueError):
    """Model exceeds the brute-force enumeration cap."""


FEAS_TOL = 1e-9
BATCH = 1 << 14


def _integer_ranges(model: LinearModel, max_binaries: int, max_assignments: int):
    int_cols = model.integer_cols
    if len(int_cols) > max_binaries:
        raise TooLarge(
            f"{len(int_cols)} integer columns exceed the cap of {max_binaries}")
    ranges = []
    total = 1
    for j in int_cols:
        lo, hi = model.lower[j], model.upper[j]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise TooLarge(
                f"integer column {model.col_names[j]} lacks finite bounds")
        lo_i, hi_i = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
        if hi_i < lo_i:
            return int_cols, None, 0  # empty integer box: infeasible
        ranges.append(range(lo_i, hi_i + 1))
        total *= len(ranges[-1])
        if total > max_assignments:
            raise TooLarge(
                f"assignment count exceeds the cap of {max_assignments}")
    return int_cols, ranges, total


def _pure_integer_best(model: LinearModel, int_cols, ranges) -> Solution:
    """All columns integer: vectorized feasibility scan, no LP needed."""
    n = model.num_cols
    A = dense_matrix(model)
    rhs = np.array(model.rhs, dtype=float)
    c = np.asarray(model.objective, dtype=float)

    best_obj = math.inf
    best_x = None
    assignments = itertools.product(*ranges)
    while True:
        batch = list(itertools.islice(assignments, BATCH))
        if not batch:
            break
        X = np.zeros((len(batch), n))
        X[:, int_cols] = np.asarray(batch, dtype=float)
        lhs = X @ A.T
        ok = np.ones(len(batch), dtype=bool)
        for i, sense in enumerate(model.senses):
            tol = FEAS_TOL * max(1.0, abs(rhs[i]))
            if sense == LE:
                ok &= lhs[:, i] <= rhs[i] + tol
            elif sense == GE:
                ok &= lhs[:, i] >= rhs[i] - tol
            else:
                ok &= np.abs(lhs[:, i] - rhs[i]) <= tol
        if not ok.any():
            continue
        objs = X[ok] @ c
        k = int(np.argmin(objs))
        if objs[k] < best_obj - 1e-15:
            best_obj = float(objs[k])
            best_x = X[ok][k].copy()
    if best_x is None:
        return Solution(status=SolveStatus.INFEASIBLE)
    return Solution(status=SolveStatus.OPTIMAL, values=best_x, objective=best_obj,
                    best_bound=best_obj, gap=0.0)


def brute_force_enumerate(
    model: LinearModel,
    max_binaries: int = 20,
    max_assignments: int = 1 << 20,
) -> Solution:
    """Exhaustively fix integer assignments; return the global best.

    Raises :class:`TooLarge` above the caps. Deterministic: assignments are
    visited in lexicographic order and ties keep the first winner.
    """
    int_cols, ranges, total = _integer_ranges(model, max_binaries, max_assignments)
    if ranges is None:
        return Solution(status=SolveStatus.INFEASIBLE)
    if not int_cols:
        return PreparedLP(model).solve()

    continuous = [j for j in range(model.num_cols) if not model.integer[j]]
    if not continuous:
        return _pure_integer_best(model, int_cols, ranges)

    prep = PreparedLP(model)
    lower = np.asarray(model.lower, dtype=float)
    upper = np.asarray(model.upper, dtype=float)
    best: Solution | None = None
    for assignment in itertools.product(*ranges):
        lo = lower.copy()
        hi = upper.copy()
        for j, v in zip(int_cols, assignment):
            lo[j] = v
            hi[j] = v
        result = prep.solve(lo, hi)
        if result.status != SolveStatus.OPTIMAL:
            continue
        if best is None or result.objective < best.objective - 1e-12:
            best = result
    if best is None:
        return Solution(status=SolveStatus.INFEASIBLE, node_count=total)
    best.gap = 0.0
    best.best_bound = best.objective
    best.node_count = total
    return best


def run_fresh(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this package, with
    ``env`` added to the environment."""
    src = Path(fleetcharge.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
