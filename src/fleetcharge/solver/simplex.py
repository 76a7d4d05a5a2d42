"""Bounded-variable dual simplex for LPs whose columns all have a finite bound.

Each row gets one slack column whose bounds encode the row sense, so every
row is an equality internally, and every slack has a finite bound.

The input class: every column has a finite lower or upper bound, and every
cost has a finite bound on the side it favours (a column with c > 0 needs
a finite lower bound and one with c < 0 a finite upper bound). The fleet
models are in it (binaries, counts, energies and departures are boxed, the
peak epigraph is >= 0, and energy, charger capital and the weighted peak
cost are c >= 0), and :class:`PreparedLP` rejects any other model. In this
class every nonbasic column sits at a finite bound, the slack basis is dual
feasible and no LP is unbounded, so one bounded dual simplex on the true
costs solves every LP and ends at an optimal basis (Koberstein 2005).

Every solve runs that dual simplex from a dual-feasible basis. A warm
start is the final :class:`Basis` of an earlier solve of the same LP under
other bounds (a branch-and-bound parent), and the solve recomputes the
basic values under the new bounds. Handed that solve's final basis inverse
too (a :class:`Factor`, which branch-and-bound passes on when it dives
straight into a child), it takes the inverse over with its pivot age and
refactorizes only when the basic values fail the residual check; without
one it refactorizes the basis once. A cold start is the slack basis
(B = I) with each structural column at the finite bound its cost prefers.
The leaving row has the largest bound violation (ties to the lowest
position); the entering column comes from the dual ratio test (ties to
the largest pivot, then the lowest index). A row no column can repair
proves the LP infeasible. A basis that does not fit, is singular or not
dual feasible, or a warm dual loop that fails numerically, restarts from
the slack basis.

The loop keeps one state per column, its direction: +1 at its lower
bound, -1 at its upper bound, 0 when basic or fixed. A nonbasic column's
value is the bound its direction names (a fixed one reads its lower bound,
which equals its upper), and a pivot changes the direction of the two
columns it touches. Beside it the loop keeps the bounds of the basic
columns by position. A column is eligible when its direction times its
push toward the target is below -TOL_PIVOT, and the ratio test reads only
the candidates, with the dual room direction * z over |alpha|.

Most basic columns are slacks, so the basis inverse is built from its
structural kernel (Suhl & Suhl 1990; Koberstein 2005). With S the k basic
structural columns and R_k the k rows whose slack is nonbasic, order the
rows R_k first and the basic slacks' rows R_s after:

    B = [ K          0 ]        B^-1 = [ K^-1              0 ]
        [ A[R_s, S]  I ]               [ -A[R_s, S] K^-1   I ]

with K = A[R_k, S]. A refactorization reads K and the coupling block
A[R_s, S] straight from the stored entries of the basic structural
columns, inverts only the k x k kernel K, and writes B^-1 from these
blocks over the m x m array the solve already holds: its columns are unit
vectors on R_s and carry K^-1 on R_k. Its only temporaries are kernel- and
coupling-sized. Between refactorizations B^-1 takes
elementary row operations, and after REFACTOR_EVERY of them, counted
across the hand-off from one solve to the next, it is rebuilt. Every
per-pivot step touches only nonzeros: a column ``B^-1 a_j`` reads a_j's
stored entries, the dual pivot row is one pass over the stored nonzeros
of A, and the rank-one update rewrites only the entries of B^-1 where
both the entering column and the pivot row are nonzero. Slack columns are
never stored; they are the implicit identity after A, and the reduced
costs and residuals read A plus that identity.

A is stored once, by column, and never dense (Maros 2003). Rows and the
cost vector are rescaled to unit magnitude so absolute tolerances are
meaningful across problems; the reported objective is recomputed from
unscaled data. B^-1 is dense m x m, one array per solve that a
:class:`Factor` hands on to the next; the kernel is inverted densely,
without LU updates.
"""

from __future__ import annotations

import numpy as np

from ..model import EQ, GE, LE, LinearModel
from .types import Basis, Factor, NumericalFailure, Solution, SolveStatus

__all__ = ["PreparedLP", "check_solution"]

INF = float("inf")

TOL_PIVOT = 1e-10
TOL_PRIMAL = 1e-9  # bound violation the dual simplex still repairs
TOL_INFEASIBLE = 1e-7  # violation an unrepairable row must show to prove infeasibility
TOL_WARM_DUAL = 1e-7  # reduced-cost slip a warm basis may carry
TOL_CHECK = 1e-6  # violation check_solution reports (rows: times max |coef|)
REFACTOR_EVERY = 96


class PreparedLP:
    """A model converted once to arrays, solvable under many bounds.

    Holds the row-scaled m x n structural matrix A once, as flat CSC
    arrays built from the model's CSR rows: column j's entries are
    ``col_start[j]:col_start[j + 1]`` of ``col_rows`` (ascending),
    ``col_vals`` and ``col_of`` (j itself). Slack columns are the implicit
    identity after A. It also holds the scaled right-hand side, the slack
    bounds that encode the row senses and the scaled costs over all
    n + m columns.

    Branch-and-bound reuses a single instance across nodes, passing per-node
    structural bounds, the parent's basis and, when it is the last one
    solved, its factor to :meth:`solve`. Instances hold no per-solve state
    and are immutable after construction, so the same arguments give the
    same answer and concurrent solves are safe.

    Raises ValueError naming the first column outside the input class (no
    finite bound, or a cost with none on its side; see the module docstring).
    """

    def __init__(self, model: LinearModel):
        c = np.asarray(model.objective, dtype=float)
        _check_input_class(model, c, model.lower, model.upper)
        self.model = model
        m, n = model.num_rows, model.num_cols
        self.m, self.n = m, n

        # Each stored (row, column) pair once, in column-major order.
        # bincount adds repeated pairs in storage order, as a coefficient
        # loop would, and sums that cancel drop.
        keys, slot = np.unique(np.asarray(model.row_cols, dtype=int) * m
                               + _row_of_entry(model), return_inverse=True)
        vals = np.bincount(slot, weights=np.asarray(model.row_vals, dtype=float))
        keep = vals != 0.0
        self.col_of, self.col_rows = np.divmod(keys[keep], m)
        vals = vals[keep]
        senses = np.array(model.senses, dtype=object)
        self.slack_lower = np.where(senses == GE, -INF, 0.0)
        self.slack_upper = np.where(senses == LE, INF, 0.0)

        # Row equilibration keeps |a| near one so absolute tolerances behave.
        row_scale = np.zeros(m)
        np.maximum.at(row_scale, self.col_rows, np.abs(vals))
        row_scale[row_scale == 0] = 1.0
        self.b = np.array(model.rhs, dtype=float) / row_scale

        self.cost_scale = max(1.0, float(np.abs(c).max(initial=0.0)))

        # Columns: structural then one slack per row.
        self.n_real = n + m
        self.col_vals = vals / row_scale[self.col_rows]
        self.col_start = np.zeros(n + 1, dtype=int)
        np.cumsum(np.bincount(self.col_of, minlength=n), out=self.col_start[1:])
        self.c_real = np.zeros(self.n_real)
        self.c_real[:n] = c / self.cost_scale

    def solve(self, lower=None, upper=None, basis: Basis | None = None,
              factor: Factor | None = None) -> Solution:
        """Solve min c'x under the given structural bounds (default: model's).

        ``basis``, the ``Solution.basis`` of an earlier solve of this LP,
        starts the dual simplex from it; an unusable basis falls back to
        the slack basis, so the result never depends on its quality.
        ``factor``, the ``Solution.factor`` returned with ``basis``, spares
        the start's refactorization. The solve takes its inverse over and
        leaves it None; a factor of another basis, a spent one or one that
        fails the residual check is ignored and the basis refactorized.
        The bounds must leave every column a finite bound, and each cost
        its favoured side finite, as the model's do and as branching,
        which only tightens them, keeps them; other bounds raise the
        ValueError that :class:`PreparedLP` raises for such a model. The
        result is OPTIMAL, carrying its own final basis and factor, or
        INFEASIBLE.
        """
        n = self.n
        lo = np.asarray(self.model.lower if lower is None else lower, dtype=float)
        hi = np.asarray(self.model.upper if upper is None else upper, dtype=float)
        _check_input_class(self.model, self.c_real[:n], lo, hi)
        if np.any(lo > hi + 1e-12):
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0)

        state = None
        if basis is not None:
            try:
                state = _SimplexState(self, lo, hi, basis, factor)
                feasible = state.run_dual()
            except NumericalFailure:
                state = None  # unusable basis: restart from the slack basis
        if state is None:
            state = _SimplexState(self, lo, hi)
            feasible = state.run_dual()
        if not feasible:
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0)

        x = state.values()[:n]
        x = np.minimum(np.maximum(x, lo), hi)  # clamp roundoff noise
        objective = self.model.objective_value(x)
        final = Basis(state.basis, state.direction < 0)
        return Solution(
            status=SolveStatus.OPTIMAL,
            values=x,
            objective=objective,
            best_bound=objective,
            gap=0.0,
            basis=final,
            factor=Factor(final, state.B_inv, state.age),
        )


def _check_input_class(model: LinearModel, c: np.ndarray, lower, upper) -> None:
    """Raise ValueError naming the first column under ``lower``/``upper``
    that has no finite bound, or whose cost, of the sign of ``c``, has no
    finite bound on its side."""
    lo_ok, hi_ok = np.isfinite(lower), np.isfinite(upper)
    uncapped = ((c > 0) & ~lo_ok) | ((c < 0) & ~hi_ok)
    outside = uncapped | ~(lo_ok | hi_ok)
    if outside.any():
        j = int(np.argmax(outside))
        if not uncapped[j]:
            raise ValueError(f"column {model.col_names[j]} has no finite bound")
        side = "lower" if c[j] > 0 else "upper"
        raise ValueError(f"column {model.col_names[j]} has cost "
                         f"{model.objective[j]:g} and no finite {side} bound")


class _SimplexState:
    """Mutable per-solve state: bounds, basis, column directions, basis
    inverse and its age, the pivots it has taken since it was last rebuilt."""

    def __init__(self, prep: PreparedLP, lo, hi, start: Basis | None = None,
                 factor: Factor | None = None):
        self.prep = prep
        self.m, self.n = prep.m, prep.n
        self.n_real = prep.n_real
        self.b = prep.b

        self.lower = np.concatenate([lo, prep.slack_lower])
        self.upper = np.concatenate([hi, prep.slack_upper])
        if start is None:
            self._slack_start()
        else:
            self._load(start, factor)

    def _place(self, basis: np.ndarray, prefer_upper: np.ndarray) -> None:
        """Adopt ``basis`` and put every nonbasic column at a finite bound:
        the upper one where it is finite and preferred, or the only finite
        one, else the lower one. Sets the direction and the basic bounds."""
        self.basis = basis
        lower, upper = self.lower, self.upper
        at_upper = np.isfinite(upper) & (prefer_upper | ~np.isfinite(lower))
        self.direction = np.where(upper - lower > 1e-15,
                                  np.where(at_upper, -1.0, 1.0), 0.0)
        self.direction[basis] = 0.0
        self.basic_lower = lower[basis]
        self.basic_upper = upper[basis]

    def _slack_start(self) -> None:
        """Slack basis (B = I) with every structural column at the bound
        its cost prefers: dual feasible for the input class."""
        self._place(np.arange(self.n, self.n_real), self.prep.c_real < 0)
        self.B_inv = np.eye(self.m)
        # The identity counts as one update old: a cold solve rebuilds after
        # 95 pivots, then every 96. Root LPs run long, so where the rebuilds
        # fall sets their roundoff, and with it the last digits of the gaps
        # that sweeps report.
        self.age = 1
        self.x_B = self._residual()

    def _load(self, start: Basis, factor: Factor | None) -> None:
        """Adopt a basis from an earlier solve under the current bounds,
        taking over ``factor``'s inverse when it belongs to ``start``.

        Raises :class:`NumericalFailure` when the record does not fit this
        LP or its basis matrix is singular or ill-conditioned.
        """
        basic, at_upper = np.asarray(start.basic), np.asarray(start.at_upper)
        if (basic.dtype.kind not in "iu" or basic.shape != (self.m,)
                or at_upper.shape != (self.n_real,)
                or basic.min(initial=0) < 0 or basic.max(initial=0) >= self.n_real
                # bincount, not np.unique: the latter imports numpy.ma.
                or np.bincount(basic.astype(int)).max(initial=0) > 1):
            raise NumericalFailure("warm-start basis does not fit this LP")
        # Nonbasic columns sit at a finite bound of the new box, keeping
        # their old side where it is finite.
        self._place(basic.astype(int), at_upper)

        residual = self._residual()
        self.B_inv = None
        if factor is not None and factor.basis is start:
            self.B_inv, factor.inverse = factor.inverse, None
        if self.B_inv is not None:
            self.age = factor.age
            self.x_B = self.B_inv @ residual
            if self._solves(residual):
                return
        self._refactor()
        if not self._solves(residual):
            raise NumericalFailure("warm-start basis is ill-conditioned")

    def _solves(self, residual: np.ndarray) -> bool:
        """Whether B x_B reproduces the residual (NaN fails)."""
        error = np.abs(self._residual(self.values())).max(initial=0.0)
        return bool(error <= 1e-7 * (1.0 + np.abs(residual).max(initial=0.0)))

    def _ftran(self, j: int) -> np.ndarray:
        """B_inv times column j, read from the column's stored entries."""
        if j >= self.n:
            return self.B_inv[:, j - self.n].copy()
        prep = self.prep
        lo, hi = prep.col_start[j], prep.col_start[j + 1]
        return self.B_inv[:, prep.col_rows[lo:hi]] @ prep.col_vals[lo:hi]

    def _row_times_A(self, v: np.ndarray) -> np.ndarray:
        """The row vector v times [A | I]: one pass over A's stored entries."""
        prep = self.prep
        vA = np.bincount(prep.col_of, weights=v[prep.col_rows] * prep.col_vals,
                         minlength=self.n)
        return np.concatenate([vA, v])

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        c_B = c[self.basis]
        priced = np.flatnonzero(c_B)
        return c - self._row_times_A(c_B[priced] @ self.B_inv[priced])

    # -- values --------------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        """Each nonbasic column at its bound (a fixed one at its lower,
        which equals its upper); the basic columns at zero."""
        x = np.where(self.direction < 0, self.upper, self.lower)
        x[self.basis] = 0.0
        return x

    def _residual(self, x: np.ndarray | None = None) -> np.ndarray:
        """b - [A | I] x in one pass over A's stored entries; x defaults to
        the nonbasic values, leaving what the basic columns must meet."""
        x = self._nonbasic_values() if x is None else x
        prep = self.prep
        Ax = np.bincount(prep.col_rows, weights=prep.col_vals * x[prep.col_of],
                         minlength=self.m)
        return self.b - Ax - x[self.n:]

    def values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.x_B
        return x

    def _refactor(self) -> None:
        """Rebuild B_inv and x_B from the k x k kernel (module docstring),
        writing B^-1 over the state's m x m array; a state without one, a
        warm start handed no factor, gets a new array.

        Raises :class:`NumericalFailure` when the basic slacks do not leave
        exactly k kernel rows or the kernel is singular; B_inv is then
        untouched.
        """
        m, n = self.m, self.n
        structural = self.basis < n
        struct_pos = np.flatnonzero(structural)
        slack_pos = np.flatnonzero(~structural)
        slack_rows = self.basis[slack_pos] - n
        in_kernel = np.ones(m, dtype=bool)
        in_kernel[slack_rows] = False
        kernel_rows = np.flatnonzero(in_kernel)
        k = struct_pos.size
        if kernel_rows.size != k:
            raise NumericalFailure("basis repeats a slack column")
        # K = A[R_k, S] and the coupling A[R_s, S] straight from the stored
        # entries of the basic structural columns: each entry goes to the
        # slot of its row in R_k or R_s and of its column in S.
        prep = self.prep
        position = np.full(n, -1)
        position[self.basis[struct_pos]] = np.arange(k)
        picked = np.flatnonzero(position[prep.col_of] >= 0)
        rows, vals = prep.col_rows[picked], prep.col_vals[picked]
        cols = position[prep.col_of[picked]]
        slot = np.empty(m, dtype=int)
        slot[kernel_rows] = np.arange(k)
        slot[slack_rows] = np.arange(m - k)
        kernel_entry = in_kernel[rows]
        K = np.zeros((k, k))
        K[slot[rows[kernel_entry]], cols[kernel_entry]] = vals[kernel_entry]
        coupling = np.zeros((m - k, k))
        coupled = ~kernel_entry
        coupling[slot[rows[coupled]], cols[coupled]] = vals[coupled]
        try:
            K_inv = np.linalg.inv(K)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        del K

        residual = self._residual()
        self.x_B = np.empty(m)
        self.x_B[struct_pos] = K_inv @ residual[kernel_rows]
        self.x_B[slack_pos] = residual[slack_rows] - coupling @ self.x_B[struct_pos]

        if self.B_inv is None:
            self.B_inv = np.zeros((m, m))
        else:
            self.B_inv.fill(0.0)
        self.B_inv[np.ix_(struct_pos, kernel_rows)] = K_inv
        np.negative(coupling, out=coupling)  # exact, so the product is -A[R_s, S] K^-1
        self.B_inv[np.ix_(slack_pos, kernel_rows)] = coupling @ K_inv
        self.B_inv[slack_pos, slack_rows] = 1.0
        self.age = 0

    # -- dual simplex ---------------------------------------------------------

    def run_dual(self) -> bool:
        """Bounded dual simplex on the true costs from a dual-feasible
        basis to an optimal one; False when a row proves the LP infeasible.

        Raises :class:`NumericalFailure` when the basis is not dual feasible
        or the loop cannot finish.
        """
        c = self.prep.c_real
        z = self._reduced_costs(c)
        # A reduced cost on the wrong side of its column's direction is
        # dual infeasibility.
        if np.any(self.direction * z < -TOL_WARM_DUAL):
            raise NumericalFailure("start basis is not dual feasible")
        if not self.m:
            return True  # no row to repair

        max_iters = max(1000, 3 * self.n_real)
        for _ in range(max_iters):
            if self.age >= REFACTOR_EVERY:
                self._refactor()
                z = self._reduced_costs(c)
            x_B = self.x_B
            violation = np.maximum(self.basic_lower - x_B, x_B - self.basic_upper)
            leave_pos = int(violation.argmax())
            if violation[leave_pos] <= TOL_PRIMAL:
                return True
            x_r = float(x_B[leave_pos])
            lo_r, hi_r = float(self.basic_lower[leave_pos]), float(self.basic_upper[leave_pos])
            to_lower = lo_r - x_r > 0
            target = lo_r if to_lower else hi_r

            # x_r = beta_r - sum_j alpha_j (x_j - x_j now) over nonbasic j;
            # a column qualifies when its feasible move pushes x_r to target,
            # that is when direction * push < -TOL_PIVOT with push = +-alpha.
            alpha = self._row_times_A(self.B_inv[leave_pos])
            signed = self.direction * alpha
            eligible = signed < -TOL_PIVOT if to_lower else signed > TOL_PIVOT
            cand = eligible.nonzero()[0]
            if not cand.size:
                if violation[leave_pos] <= TOL_INFEASIBLE:
                    raise NumericalFailure("near-feasible row has no pivot")
                return False

            # The dual room of a candidate is direction * z.
            room = self.direction[cand] * z[cand]
            abs_alpha = np.abs(alpha[cand])
            ratio = np.maximum(room, 0.0) / abs_alpha
            tied = ratio <= ratio.min() * (1 + 1e-9) + 1e-12
            enter = int(cand[tied][abs_alpha[tied].argmax()])

            d = self._ftran(enter)
            step = (x_r - target) / d[leave_pos]
            base = self.lower[enter] if self.direction[enter] > 0 else self.upper[enter]
            x_B -= d * step
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

    def _pivot(self, leave_pos: int, enter: int, enter_value: float, d: np.ndarray) -> None:
        pivot = float(d[leave_pos])
        if abs(pivot) < TOL_PIVOT:
            raise NumericalFailure("vanishing pivot element")
        leave_col = int(self.basis[leave_pos])
        leave_val = float(self.x_B[leave_pos])
        lo, hi = float(self.lower[leave_col]), float(self.upper[leave_col])
        # It leaves at its nearer bound (an infinite one is never nearer).
        self.direction[leave_col] = 0.0 if hi - lo <= 1e-15 else \
            1.0 if abs(leave_val - lo) <= abs(leave_val - hi) else -1.0

        self.basis[leave_pos] = enter
        self.direction[enter] = 0.0
        self.basic_lower[leave_pos] = self.lower[enter]
        self.basic_upper[leave_pos] = self.upper[enter]
        self.x_B[leave_pos] = enter_value

        # Rank-one basis-inverse update on the entries where both d and the
        # pivot row are nonzero (the others would lose a product with a
        # zero); the pivot row is restored afterward because the outer
        # product zeroes it out exactly.
        piv_row = self.B_inv[leave_pos] / pivot
        rows, cols = d.nonzero()[0][:, None], piv_row.nonzero()[0]
        self.B_inv[rows, cols] -= d[rows] * piv_row[cols]
        self.B_inv[leave_pos] = piv_row
        self.age += 1


def _row_of_entry(model: LinearModel) -> np.ndarray:
    """The row index of each stored coefficient, in storage order."""
    return np.repeat(np.arange(model.num_rows), np.diff(model.row_start))


def check_solution(model: LinearModel, values) -> list[str]:
    """Independent bound, integrality and row re-check; returns violation messages."""
    x = np.asarray(values, dtype=float)
    problems = []
    outside = (x < np.asarray(model.lower) - TOL_CHECK) \
        | (x > np.asarray(model.upper) + TOL_CHECK)
    fractional = np.asarray(model.integer, dtype=bool) & (np.abs(x - np.round(x)) > 1e-6)
    for j in np.flatnonzero(outside | fractional):
        if outside[j]:
            problems.append(
                f"column {model.col_names[j]} = {x[j]} outside "
                f"[{model.lower[j]}, {model.upper[j]}]")
        if fractional[j]:
            problems.append(f"column {model.col_names[j]} = {x[j]} not integral")
    row_of = _row_of_entry(model)
    vals = np.asarray(model.row_vals, dtype=float)
    # bincount adds each row's products one by one in storage order, so
    # every left-hand side is the sum a coefficient loop would give.
    lhs = np.bincount(row_of, weights=vals * x[model.row_cols], minlength=model.num_rows)
    tol = np.ones(model.num_rows)
    np.maximum.at(tol, row_of, np.abs(vals))
    tol *= TOL_CHECK
    rhs, senses = np.array(model.rhs), np.array(model.senses, dtype=object)
    bad = ((senses == LE) & (lhs > rhs + tol)) | ((senses == GE) & (lhs < rhs - tol)) \
        | ((senses == EQ) & (np.abs(lhs - rhs) > tol))
    relation = {LE: ">", GE: "<", EQ: "!="}
    for i in np.flatnonzero(bad):
        # An empty row's left-hand side prints as the integer 0.
        value = lhs[i] if model.row_start[i + 1] > model.row_start[i] else 0
        problems.append(f"row {model.row_names[i]}: {value} "
                        f"{relation[model.senses[i]]} {model.rhs[i]}")
    return problems
