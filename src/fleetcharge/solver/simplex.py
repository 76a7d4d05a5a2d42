"""Dense bounded-variable simplex: one dual simplex, then primal clean-up.

Variables live between (possibly infinite) bounds and sit nonbasic at a
bound or free at zero; each row gets one slack column whose bounds encode
the row sense, so every row is an equality internally.

Every solve runs a bounded dual simplex from a dual-feasible basis. A warm
start is the final :class:`Basis` of an earlier solve of the same LP under
other bounds (a branch-and-bound parent): the solve refactorizes it once
and recomputes the basic values under the new bounds. A cold start is the
slack basis (B = I): each structural column sits at the finite bound its
cost prefers, or free at zero, and a cost that is not dual feasible there
(no finite bound on its cost's side) is zeroed for the dual pass only
(Koberstein's cost-modification dual phase 1). The leaving row has the
largest bound violation (ties to the lowest position); the entering column
comes from the dual ratio test (ties to the largest pivot, then the lowest
index). A row no column can repair proves the LP infeasible. A basis that
does not fit, is singular or not dual feasible, or a warm dual loop that
fails numerically, restarts from the slack basis.

A primal simplex on the true costs then cleans up: Dantzig pricing (most
violating reduced cost) with a permanent switch to Bland's least-index rule
after a stall, which breaks cycling. It stops at once when the basis is
already dual feasible, and it is the pass that detects unboundedness.

The basis inverse is updated by elementary row operations and refactorized
from scratch periodically. Rows and the cost vector are rescaled to unit
magnitude so absolute tolerances are meaningful across problems; the
reported objective is recomputed from unscaled data.

Desk-scale instances only: everything is dense numpy, nothing is sparse.
"""

from __future__ import annotations

import numpy as np

from ..model import EQ, GE, LE, LinearModel
from .types import Basis, NumericalFailure, Solution, SolveStatus

__all__ = ["PreparedLP", "solve_lp", "check_solution"]

INF = float("inf")

BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

TOL_DUAL = 1e-9
TOL_PIVOT = 1e-10
TOL_PRIMAL = 1e-9  # bound violation the dual simplex still repairs
TOL_INFEASIBLE = 1e-7  # violation an unrepairable row must show to prove infeasibility
TOL_WARM_DUAL = 1e-7  # reduced-cost slip a warm basis may carry
TOL_CHECK = 1e-6  # violation check_solution reports (rows: times max |coef|)
REFACTOR_EVERY = 96
STALL_LIMIT = 400


class PreparedLP:
    """A model converted once to dense arrays, solvable under many bounds.

    Branch-and-bound reuses a single instance across nodes, passing
    per-node structural bounds and the parent's basis to :meth:`solve`. Instances are immutable
    after construction, so concurrent solves are safe.
    """

    def __init__(self, model: LinearModel):
        self.model = model
        m, n = model.num_rows, model.num_cols
        self.m, self.n = m, n

        A = np.zeros((m, n))
        b = np.zeros(m)
        slack_lower = np.zeros(m)
        slack_upper = np.zeros(m)
        for i, row in enumerate(model.rows):
            for j, coef in row.coeffs:
                A[i, j] += coef
            b[i] = row.rhs
            if row.sense == LE:
                slack_lower[i], slack_upper[i] = 0.0, INF
            elif row.sense == GE:
                slack_lower[i], slack_upper[i] = -INF, 0.0
            else:
                slack_lower[i], slack_upper[i] = 0.0, 0.0

        # Row equilibration keeps |a| near one so absolute tolerances behave.
        row_scale = np.abs(A).max(axis=1, initial=0.0)
        row_scale = np.where(row_scale > 0, row_scale, 1.0)
        A /= row_scale[:, None]
        b /= row_scale

        c = np.asarray(model.objective, dtype=float)
        self.cost_scale = max(1.0, float(np.abs(c).max(initial=0.0)))

        # Columns: structural then one slack per row.
        self.n_real = n + m
        self.A_real = np.hstack([A, np.eye(m)]) if m else np.zeros((0, n))
        self.AT_real = np.ascontiguousarray(self.A_real.T)
        self.b = b
        self.slack_lower = slack_lower
        self.slack_upper = slack_upper
        self.c_real = np.zeros(self.n_real)
        self.c_real[:n] = c / self.cost_scale

    def solve(self, lower=None, upper=None, basis: Basis | None = None) -> Solution:
        """Solve min c'x under the given structural bounds (default: model's).

        ``basis``, the ``Solution.basis`` of an earlier solve of this LP,
        starts the dual simplex from it; an unusable basis falls back to
        the slack basis, so the result never depends on its quality.
        """
        n, m = self.n, self.m
        lo = np.asarray(self.model.lower if lower is None else lower, dtype=float)
        hi = np.asarray(self.model.upper if upper is None else upper, dtype=float)
        if np.any(lo > hi + 1e-12):
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0)
        if m == 0:
            return self._solve_unconstrained(lo, hi)

        state = None
        if basis is not None:
            try:
                state = _SimplexState(self, lo, hi, basis)
                feasible = state.run_dual(state.dual_costs)
            except NumericalFailure:
                state = None  # unusable basis: restart from the slack basis
        if state is None:
            state = _SimplexState(self, lo, hi)
            feasible = state.run_dual(state.dual_costs)
        if not feasible:
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0)
        if state.run_primal() == SolveStatus.UNBOUNDED:
            return Solution(status=SolveStatus.UNBOUNDED, best_bound=-INF)

        x = state.values()[:n]
        x = np.minimum(np.maximum(x, lo), hi)  # clamp roundoff noise
        objective = self.model.objective_value(x)
        return Solution(
            status=SolveStatus.OPTIMAL,
            values=x,
            objective=objective,
            best_bound=objective,
            gap=0.0,
            basis=Basis(state.basis, state.col_status),
        )

    def _solve_unconstrained(self, lo, hi) -> Solution:
        c = np.asarray(self.model.objective, dtype=float)
        target = np.where(c > 0, lo, np.where(c < 0, hi, 0.0))
        if np.any((c != 0) & ~np.isfinite(target)):
            return Solution(status=SolveStatus.UNBOUNDED, best_bound=-INF)
        fallback = np.where(np.isfinite(lo), lo, np.minimum(hi, 0.0))
        fallback = np.where(np.isfinite(fallback), fallback, 0.0)
        x = np.where(c == 0, fallback, target)
        objective = self.model.objective_value(x)
        return Solution(
            status=SolveStatus.OPTIMAL, values=x, objective=objective,
            best_bound=objective, gap=0.0,
        )


class _SimplexState:
    """Mutable per-solve state: bounds, basis, statuses, basis inverse."""

    def __init__(self, prep: PreparedLP, lo, hi, start: Basis | None = None):
        self.prep = prep
        self.m, self.n = prep.m, prep.n
        self.n_real = prep.n_real
        self.b = prep.b

        self.lower = np.concatenate([lo, prep.slack_lower])
        self.upper = np.concatenate([hi, prep.slack_upper])
        self._outer_buf = np.empty((self.m, self.m))
        if start is None:
            self._slack_start()
        else:
            self._load(start)

    def _slack_start(self) -> None:
        """Slack basis (B = I) with every structural column at the bound
        its cost prefers, which is dual feasible once the costs of columns
        without that bound are zeroed in ``dual_costs``."""
        n, lo, hi = self.n, self.lower[:self.n], self.upper[:self.n]
        c = self.prep.c_real
        at_hi = np.isfinite(hi) & ((c[:n] < 0) | ~np.isfinite(lo))
        self.col_status = np.full(self.n_real, BASIC, dtype=np.int8)
        self.col_status[:n] = np.where(
            at_hi, AT_UPPER, np.where(np.isfinite(lo), AT_LOWER, FREE))
        self.basis = np.arange(n, self.n_real)
        self.B_inv = np.eye(self.m)
        self.x_B = self._residual()

        status = self.col_status[:n]
        self.dual_costs = c.copy()
        self.dual_costs[:n][((c[:n] > 0) & (status != AT_LOWER))
                            | ((c[:n] < 0) & (status != AT_UPPER))] = 0.0

    def _load(self, start: Basis) -> None:
        """Adopt a basis from an earlier solve under the current bounds.

        Raises :class:`NumericalFailure` when the record does not fit this
        LP or its basis matrix is singular or ill-conditioned.
        """
        basic, status = np.asarray(start.basic), np.asarray(start.status)
        if (basic.dtype.kind not in "iu" or basic.shape != (self.m,)
                or status.shape != (self.n_real,)
                or basic.min() < 0 or basic.max() >= self.n_real
                or np.count_nonzero(status == BASIC) != self.m
                or np.any(status[basic] != BASIC)):
            raise NumericalFailure("warm-start basis does not fit this LP")
        self.basis = basic.astype(int)
        self.dual_costs = self.prep.c_real

        # Nonbasic columns sit at a finite bound of the new box, keeping
        # their old side where it exists, or free at zero.
        col = status.astype(np.int8)
        nonbasic = col != BASIC
        lo_ok, hi_ok = np.isfinite(self.lower), np.isfinite(self.upper)
        at_hi = nonbasic & hi_ok & ((col == AT_UPPER) | ~lo_ok)
        col[nonbasic] = FREE
        col[nonbasic & lo_ok & ~at_hi] = AT_LOWER
        col[at_hi] = AT_UPPER
        self.col_status = col

        self._refactor()
        residual = self._residual()
        error = np.abs(self._basis_matrix() @ self.x_B - residual).max()
        if not error <= 1e-7 * (1.0 + np.abs(residual).max()):
            raise NumericalFailure("warm-start basis is ill-conditioned")

    def _ftran(self, j: int) -> np.ndarray:
        """B_inv times column j."""
        return self.B_inv @ self.prep.A_real[:, j]

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        y = c[self.basis] @ self.B_inv  # = B_inv.T @ c_B, cache-friendly
        return c - self.prep.AT_real @ y

    # -- values --------------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        x = np.zeros(self.n_real)
        at_lo = self.col_status == AT_LOWER
        at_hi = self.col_status == AT_UPPER
        x[at_lo] = self.lower[at_lo]
        x[at_hi] = self.upper[at_hi]
        return x

    def _residual(self) -> np.ndarray:
        """b minus the nonbasic columns' share."""
        return self.b - self.prep.A_real @ self._nonbasic_values()

    def values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.x_B
        return x

    def _basis_matrix(self) -> np.ndarray:
        return self.prep.A_real[:, self.basis]

    def _refactor(self) -> None:
        try:
            self.B_inv = np.linalg.inv(self._basis_matrix())
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        self.x_B = self.B_inv @ self._residual()

    # -- passes ---------------------------------------------------------------

    def run_primal(self) -> SolveStatus:
        """Primal simplex on the true costs from a primal-feasible basis."""
        return self._iterate(self.prep.c_real)

    def run_dual(self, c: np.ndarray) -> bool:
        """Bounded dual simplex on costs ``c`` from a dual-feasible basis to
        a primal-feasible one; False when a row proves the LP infeasible.

        Raises :class:`NumericalFailure` when the basis is not dual feasible
        or the loop cannot finish.
        """
        status = self.col_status
        movable = (self.upper - self.lower) > 1e-15
        z = self._reduced_costs(c)
        slip = np.where(status == AT_LOWER, -z, np.where(status == AT_UPPER, z,
                        np.where(status == FREE, np.abs(z), 0.0)))
        if np.any(movable & (slip > TOL_WARM_DUAL)):
            raise NumericalFailure("start basis is not dual feasible")

        max_iters = max(1000, 3 * self.n_real)
        for iteration in range(1, max_iters + 1):
            if iteration % REFACTOR_EVERY == 0:
                self._refactor()
                z = self._reduced_costs(c)
            lo_b, hi_b = self.lower[self.basis], self.upper[self.basis]
            below, above = lo_b - self.x_B, self.x_B - hi_b
            violation = np.maximum(below, above)
            leave_pos = int(np.argmax(violation))
            if violation[leave_pos] <= TOL_PRIMAL:
                return True
            to_lower = below[leave_pos] > 0
            target = lo_b[leave_pos] if to_lower else hi_b[leave_pos]

            # x_r = beta_r - sum_j alpha_j (x_j - x_j now) over nonbasic j;
            # a column qualifies when its feasible move pushes x_r to target.
            alpha = self.B_inv[leave_pos] @ self.prep.A_real
            push = alpha if to_lower else -alpha
            eligible = movable & (
                ((status == AT_LOWER) & (push < -TOL_PIVOT))
                | ((status == AT_UPPER) & (push > TOL_PIVOT))
                | ((status == FREE) & (np.abs(push) > TOL_PIVOT)))
            if not eligible.any():
                if violation[leave_pos] <= TOL_INFEASIBLE:
                    raise NumericalFailure("near-feasible row has no pivot")
                return False

            cand = np.flatnonzero(eligible)
            z_cand = z[cand]
            dual_room = np.where(status[cand] == AT_LOWER, z_cand,
                                 np.where(status[cand] == AT_UPPER, -z_cand,
                                          np.abs(z_cand)))
            ratio = np.maximum(dual_room, 0.0) / np.abs(alpha[cand])
            ties = cand[ratio <= ratio.min() * (1 + 1e-9) + 1e-12]
            enter = int(ties[np.argmax(np.abs(alpha[ties]))])

            d = self._ftran(enter)
            step = (self.x_B[leave_pos] - target) / d[leave_pos]
            base = (self.upper[enter] if status[enter] == AT_UPPER
                    else self.lower[enter] if status[enter] == AT_LOWER else 0.0)
            self.x_B -= d * step
            leave_col = self.basis[leave_pos]
            self._pivot(leave_pos, enter, base + step, d=d)
            # Dual step: the entering reduced cost drops to zero and the
            # leaving column takes minus the step.
            theta = z[enter] / alpha[enter]
            z -= theta * alpha
            z[enter] = 0.0
            z[leave_col] = -theta
        raise NumericalFailure(
            f"dual simplex exceeded {max_iters} iterations without converging")

    # -- core loop --------------------------------------------------------------

    def _iterate(self, c: np.ndarray) -> SolveStatus:
        m = self.m
        max_iters = max(20000, 60 * (m + self.n_real))
        use_bland = False
        stall = 0
        # Bounds never change inside a pass; fixed columns never enter.
        fixed = (self.upper - self.lower) <= 1e-15

        for iteration in range(1, max_iters + 1):
            if iteration % REFACTOR_EVERY == 0:
                self._refactor()

            z = self._reduced_costs(c)

            viol = np.zeros(self.n_real)
            at_lo = (self.col_status == AT_LOWER) & ~fixed
            at_hi = (self.col_status == AT_UPPER) & ~fixed
            free = self.col_status == FREE
            viol[at_lo] = -z[at_lo]
            viol[at_hi] = z[at_hi]
            viol[free] = np.abs(z[free])

            eligible = viol > TOL_DUAL
            if not eligible.any():
                return SolveStatus.OPTIMAL

            if use_bland:
                enter = int(np.argmax(eligible))  # least index with True
            else:
                enter = int(np.argmax(viol))

            if self.col_status[enter] == AT_UPPER:
                direction = -1.0
            elif self.col_status[enter] == FREE:
                direction = 1.0 if z[enter] < 0 else -1.0
            else:
                direction = 1.0

            d = self._ftran(enter)
            delta = -d * direction  # per-unit change of each basic value

            lo_b = self.lower[self.basis]
            hi_b = self.upper[self.basis]
            lim = np.full(m, INF)
            grow = delta > TOL_PIVOT
            shrink = delta < -TOL_PIVOT
            with np.errstate(invalid="ignore"):
                lim[grow] = (hi_b[grow] - self.x_B[grow]) / delta[grow]
                lim[shrink] = (lo_b[shrink] - self.x_B[shrink]) / delta[shrink]
            np.nan_to_num(lim, copy=False, nan=INF, posinf=INF)
            np.maximum(lim, 0.0, out=lim)

            range_e = self.upper[enter] - self.lower[enter]
            t_enter = range_e if np.isfinite(range_e) else INF
            t_rows = float(lim.min()) if m else INF

            if min(t_rows, t_enter) == INF:
                return SolveStatus.UNBOUNDED

            if t_enter <= t_rows:
                # Bound flip: the entering column crosses its own box first.
                if t_enter > 0:
                    self.x_B += delta * t_enter
                self.col_status[enter] = AT_UPPER if direction > 0 else AT_LOWER
                stall = stall + 1 if t_enter <= 1e-12 else 0
            else:
                ties = np.where(lim <= t_rows * (1 + 1e-9) + 1e-12)[0]
                leave_pos = int(min(ties, key=lambda i: (-abs(d[i]), self.basis[i])))
                t_star = float(lim[leave_pos])
                base = (self.upper[enter] if self.col_status[enter] == AT_UPPER
                        else self.lower[enter] if self.col_status[enter] == AT_LOWER
                        else 0.0)
                if t_star > 0:
                    self.x_B += delta * t_star
                self._pivot(leave_pos, enter, base + direction * t_star, d=d)
                stall = stall + 1 if t_star <= 1e-12 else 0

            if stall > STALL_LIMIT and not use_bland:
                use_bland = True
                stall = 0
        raise NumericalFailure(
            f"simplex exceeded {max_iters} iterations without converging")

    def _pivot(self, leave_pos: int, enter: int, enter_value: float, d: np.ndarray) -> None:
        pivot = d[leave_pos]
        if abs(pivot) < TOL_PIVOT:
            raise NumericalFailure("vanishing pivot element")
        leave_col = self.basis[leave_pos]
        leave_val = self.x_B[leave_pos]
        lo, hi = self.lower[leave_col], self.upper[leave_col]
        if np.isfinite(lo) and (not np.isfinite(hi) or abs(leave_val - lo) <= abs(leave_val - hi)):
            self.col_status[leave_col] = AT_LOWER
        else:
            self.col_status[leave_col] = AT_UPPER

        self.basis[leave_pos] = enter
        self.col_status[enter] = BASIC
        self.x_B[leave_pos] = enter_value

        # Rank-one basis-inverse update; the pivot row is restored afterward
        # because the full outer product zeroes it out exactly.
        piv_row = self.B_inv[leave_pos] / pivot
        np.multiply(d[:, None], piv_row[None, :], out=self._outer_buf)
        self.B_inv -= self._outer_buf
        self.B_inv[leave_pos] = piv_row


def solve_lp(model: LinearModel, lower=None, upper=None) -> Solution:
    """LP solve with integrality relaxed (marks ignored).

    Deterministic: identical input produces the identical pivot sequence
    and solution. Raises :class:`NumericalFailure` when the iteration
    budget is exhausted.
    """
    return PreparedLP(model).solve(lower, upper)


def check_solution(model: LinearModel, values) -> list[str]:
    """Independent row-by-row and bound re-check; returns violation messages."""
    x = np.asarray(values, dtype=float)
    problems = []
    for j in range(model.num_cols):
        if x[j] < model.lower[j] - TOL_CHECK or x[j] > model.upper[j] + TOL_CHECK:
            problems.append(
                f"column {model.col_names[j]} = {x[j]} outside "
                f"[{model.lower[j]}, {model.upper[j]}]")
        if model.integer[j] and abs(x[j] - round(x[j])) > 1e-6:
            problems.append(f"column {model.col_names[j]} = {x[j]} not integral")
    for row in model.rows:
        lhs = sum(coef * x[j] for j, coef in row.coeffs)
        scale = max(1.0, max((abs(coef) for _, coef in row.coeffs), default=1.0))
        if row.sense == LE and lhs > row.rhs + TOL_CHECK * scale:
            problems.append(f"row {row.name}: {lhs} > {row.rhs}")
        elif row.sense == GE and lhs < row.rhs - TOL_CHECK * scale:
            problems.append(f"row {row.name}: {lhs} < {row.rhs}")
        elif row.sense == EQ and abs(lhs - row.rhs) > TOL_CHECK * scale:
            problems.append(f"row {row.name}: {lhs} != {row.rhs}")
    return problems
