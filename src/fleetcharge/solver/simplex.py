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
basic values under the new bounds. Handed the :class:`Factor` that solve
returned with that very record, it takes the factor over with its pivot
age (:meth:`PreparedLP.solve` owns this rule) and refactorizes only when
the basic values fail the residual check; without one it refactorizes
the basis once. A cold start is the slack basis (B = I) with each
structural column at the finite bound its cost prefers. The leaving row
has the largest bound violation (ties to the lowest position); the
entering column comes from the dual ratio test (ties to the largest
pivot, then the lowest index). A row no column can repair proves the LP
infeasible. A basis that does not fit, is singular or not dual feasible,
or a warm dual loop that fails numerically, restarts from the slack
basis.

The loop keeps one state per column, its direction: +1 at its lower
bound, -1 at its upper bound, 0 when basic or fixed. A nonbasic column's
value is the bound its direction names (a fixed one reads its lower bound,
which equals its upper), and a pivot changes the direction of the two
columns it touches. Beside it the loop keeps the bounds of the basic
columns by position. A column is eligible when its direction times its
push toward the target is below -TOL_PIVOT, and the ratio test reads only
the candidates, with the dual room direction * z over |alpha|.

Most basic columns are slacks, so the basis is represented by the inverse
of its structural kernel alone (Suhl & Suhl 1990; Koberstein 2005). With
S the k basic structural columns and R_k the k rows whose slack is
nonbasic, order the rows R_k first and the basic slacks' rows R_s after:

    B = [ K  0 ]        B^-1 = [ K^-1        0 ]
        [ C  I ]               [ -C K^-1     I ]

with K = A[R_k, S] and C = A[R_s, S]. A :class:`Factor` owns this form:
K^-1 as a dense k x k array, with index arrays that map its rows to basis
positions and its columns to kernel rows. Everything else is read from
A through :class:`PreparedLP`'s two passes over its stored entries, A x
(``times``) and v [A | I] (``row_times``, which also prices pivot rows
and duals):

- FTRAN: y_S = K^-1 a[R_k], and each basic slack of row r gets
  a[r] - (A[:, S] y_S)[r], with A[:, S] y_S from ``times``;
- the pivot row of a structural position is its row of K^-1, and that of
  the slack of row r is e_r - A[r, S] K^-1, with A[r, S] read through a
  row-wise index over A's entries;
- the duals are y[R_k] = c_S K^-1 and 0 elsewhere, because slack costs
  are 0.

A pivot puts the entering column, whose FTRAN is d, in position p, whose
row of B^-1 is rho. With d_S the part of d on the structural positions and
rho_k the part of rho on the kernel rows, the product-form step
B^-1 -= d (rho / d_p), restricted to the kernel block, is the dense
O(k^2) rank-one update K^-1 -= d_S (rho_k / d_p), made in place on the
rows where d_S is nonzero; then the case changes one row or column:

- structural for structural: the row of position p becomes rho_k / d_p
  (a column replacement of K);
- slack for slack: the kernel row of the entering slack becomes the
  leaving slack's row, and its column of K^-1 becomes -d_S / d_p (a row
  replacement of K);
- a structural column where a slack leaves: K^-1 is bordered by the row
  rho_k / d_p, the column -d_S / d_p and the corner 1 / d_p, the Schur
  complement of the new kernel being d_p (Bisschop & Meeraus, Math. Prog.
  13, 1977);
- a slack where a structural column leaves: the row of position p and
  the column of the entering slack's row are deleted, which the
  Schur-complement identity makes exact after the rank-one step.

After REFACTOR_EVERY pivots, counted across the hand-off from one solve to
the next, the kernel is rebuilt from A's stored entries and inverted
anew. numpy has no LU, and a product-form eta file would cost a Python
loop of up to REFACTOR_EVERY numpy calls per FTRAN and per pivot row,
where the explicit K^-1 costs one; the kernel is about 10-25% of m on
the fleet models, so K^-1 is small where a dense B^-1 was not.

A is stored once, by column, with a row-wise index that is a permutation
of its entries, and never dense (Maros 2003). Rows and the cost vector are
rescaled to unit magnitude so absolute tolerances are meaningful across
problems; the reported objective is recomputed from unscaled data.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..model import EQ, GE, LE, LinearModel
from .types import Basis, NumericalFailure, Solution, SolveStatus

__all__ = ["Factor", "PreparedLP", "check_solution"]

INF = float("inf")

TOL_PIVOT = 1e-10
TOL_PRIMAL = 1e-9  # bound violation the dual simplex still repairs
TOL_INFEASIBLE = 1e-7  # violation an unrepairable row must show to prove infeasibility
TOL_WARM_DUAL = 1e-7  # reduced-cost slip a warm basis may carry
TOL_CHECK = 1e-6  # violation check_solution reports (rows: times max |coef|)
REFACTOR_EVERY = 96


class PreparedLP:
    """A snapshot of a model as arrays, solvable under many bounds.

    Reads the model once and keeps no reference to it, so a later change
    to the model changes no solve. Holds the row-scaled m x n structural
    matrix A once, as flat CSC arrays built from the model's CSR rows:
    column j's entries are ``col_start[j]:col_start[j + 1]`` of
    ``col_rows`` (ascending), ``col_vals`` and ``col_of`` (j itself). Row
    i's entries are the CSC positions ``row_entry[row_start[i]:row_start[i
    + 1]]``, so the row-wise index owns no second copy of A. Slack columns
    are the implicit identity after A. It also holds the scaled right-hand
    side, the slack bounds that encode the row senses, the scaled costs
    over all n + m columns and, read-only, the structural ``lower`` and
    ``upper`` bounds, the ``col_names``, the unscaled ``cost``, its
    ``priced`` columns and the ``objective_offset``. :meth:`times` and
    :meth:`row_times` are the passes over A's stored entries that a pivot
    makes; only a refactorization makes another.

    Branch-and-bound reuses a single instance across nodes, passing per-node
    structural bounds, the parent's basis and the last solve's factor to
    :meth:`solve`. Instances hold no per-solve state and are immutable
    after construction, so the same arguments give the same answer and
    concurrent solves are safe.

    Raises ValueError naming the first column outside the input class (no
    finite bound, or a cost with none on its side; see the module docstring).
    """

    def __init__(self, model: LinearModel):
        self.col_names = tuple(model.col_names)
        self.cost, self.lower, self.upper = (np.array(values, dtype=float) for values in
                                             (model.objective, model.lower, model.upper))
        _check_input_class(self.col_names, self.cost, self.lower, self.upper)
        self.priced = np.flatnonzero(self.cost)
        for array in (self.cost, self.lower, self.upper, self.priced):
            array.flags.writeable = False
        self.objective_offset = float(model.objective_offset)
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

        self.cost_scale = max(1.0, float(np.abs(self.cost).max(initial=0.0)))

        # Columns: structural then one slack per row.
        self.n_real = n + m
        self.col_vals = vals / row_scale[self.col_rows]
        self.col_start = np.zeros(n + 1, dtype=int)
        np.cumsum(np.bincount(self.col_of, minlength=n), out=self.col_start[1:])
        self.row_entry = np.argsort(self.col_rows, kind="stable")
        self.row_start = np.zeros(m + 1, dtype=int)
        np.cumsum(np.bincount(self.col_rows, minlength=m), out=self.row_start[1:])
        self.c_real = np.zeros(self.n_real)
        self.c_real[:n] = self.cost / self.cost_scale

    def solve(self, lower=None, upper=None, basis: Basis | None = None,
              factor: Factor | None = None) -> Solution:
        """Solve min c'x under the given structural bounds (default: the model's).

        ``basis``, the ``Solution.basis`` of an earlier solve of this LP,
        starts the dual simplex from it; an unusable basis falls back to
        the slack basis, so the result never depends on its quality.
        ``factor``, the ``Solution.factor`` returned with ``basis``, spares
        the start's refactorization. Only here is a hand-off ruled on: the
        solve takes the factor over, counting one ``factor_handoffs``, only
        when it is tagged with this very ``basis`` object and was built for
        this LP, and updates it in place; any other factor is left alone, and one that fails the
        residual check is refactorized. The bounds must leave every column
        a finite bound, and each cost its favoured side finite, as the
        model's do and as branching, which only tightens them, keeps them;
        other bounds raise the ValueError that :class:`PreparedLP` raises
        for such a model. The result is OPTIMAL, carrying its final basis
        and the factor tagged with it, or INFEASIBLE; either way its
        ``counts`` hold one ``lp_solves`` and the dual pivots and
        refactorizations the solve made, a failed warm start's included.
        """
        n = self.n
        lo = self.lower if lower is None else np.asarray(lower, dtype=float)
        hi = self.upper if upper is None else np.asarray(upper, dtype=float)
        _check_input_class(self.col_names, self.cost, lo, hi)
        handed = (basis is not None and factor is not None and factor.basis is basis
                  and factor.prep is self)
        # The states add their pivots and refactorizations.
        counts = Counter(lp_solves=1, pivots=0, refactorizations=0,
                         factor_handoffs=int(handed))
        if np.any(lo > hi + 1e-12):
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0,
                            counts=counts)

        state = None
        if basis is not None:
            try:
                state = _SimplexState(self, lo, hi, basis, factor if handed else None,
                                      counts)
                feasible = state.run_dual()
            except NumericalFailure:
                state = None  # unusable basis: restart from the slack basis
        if state is None:
            state = _SimplexState(self, lo, hi, counts=counts)
            feasible = state.run_dual()
        if not feasible:
            return Solution(status=SolveStatus.INFEASIBLE, best_bound=INF, gap=0.0,
                            counts=counts)

        x = state.values()[:n]
        x = np.minimum(np.maximum(x, lo), hi)  # clamp roundoff noise
        # The offset, then each priced c_j x_j, added left to right (unlike np.sum).
        objective = float(np.add.accumulate(np.concatenate(
            [[self.objective_offset], self.cost[self.priced] * x[self.priced]]))[-1])
        state.factor.basis = Basis(state.basis, state.direction < 0)
        return Solution(
            status=SolveStatus.OPTIMAL,
            values=x,
            objective=objective,
            best_bound=objective,
            gap=0.0,
            basis=state.factor.basis,
            factor=state.factor,
            counts=counts,
        )

    def times(self, x: np.ndarray) -> np.ndarray:
        """A x by row, for x over the structural columns: one pass over
        A's stored entries."""
        return np.bincount(self.col_rows, weights=self.col_vals * x[self.col_of],
                           minlength=self.m)

    def row_times(self, v: np.ndarray) -> np.ndarray:
        """The row vector v times [A | I]: one pass over A's stored entries."""
        vA = np.bincount(self.col_of, weights=v[self.col_rows] * self.col_vals,
                         minlength=self.n)
        return np.concatenate([vA, v])


def _check_input_class(names, cost: np.ndarray, lower, upper) -> None:
    """Raise ValueError naming (from ``names``) the first column under
    ``lower``/``upper`` that has no finite bound, or whose ``cost`` has no
    finite bound on the side it favours."""
    lo_ok, hi_ok = np.isfinite(lower), np.isfinite(upper)
    uncapped = ((cost > 0) & ~lo_ok) | ((cost < 0) & ~hi_ok)
    outside = uncapped | ~(lo_ok | hi_ok)
    if outside.any():
        j = int(np.argmax(outside))
        if not uncapped[j]:
            raise ValueError(f"column {names[j]} has no finite bound")
        side = "lower" if cost[j] > 0 else "upper"
        raise ValueError(f"column {names[j]} has cost "
                         f"{cost[j]:g} and no finite {side} bound")


class _SimplexState:
    """Mutable per-solve state: bounds, basis, column directions, the
    basic values x_B, the basis's :class:`Factor` and ``counts`` of pivots
    and refactorizations, which a caller may share between states."""

    def __init__(self, prep: PreparedLP, lo, hi, start: Basis | None = None,
                 factor: Factor | None = None, counts: Counter | None = None):
        self.prep = prep
        self.m, self.n = prep.m, prep.n
        self.n_real = prep.n_real
        self.b = prep.b
        self.counts = Counter() if counts is None else counts

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
        """Slack basis (B = I, an empty kernel) with every structural column
        at the bound its cost prefers: dual feasible for the input class."""
        self._place(np.arange(self.n, self.n_real), self.prep.c_real < 0)
        self.factor = Factor(self.prep)
        self.factor.refactor(self.basis)
        # The identity counts as one update old: a cold solve rebuilds after
        # 95 pivots, then every 96. Root LPs run long, so where the rebuilds
        # fall sets their roundoff, and with it the last digits of the gaps
        # that sweeps report.
        self.factor.age = 1
        self.x_B = self._residual()

    def _load(self, start: Basis, factor: Factor | None) -> None:
        """Adopt a basis from an earlier solve under the current bounds,
        taking ``factor``, the factor of ``start``, over when given one.

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
        self.factor = Factor(self.prep) if factor is None else factor
        if factor is not None:
            factor.basis = None  # taken over: this solve updates it in place
            self.x_B = factor.solve(residual, self.basis)
            if self._solves(residual):
                return
        self._refactor()
        if not self._solves(residual):
            raise NumericalFailure("warm-start basis is ill-conditioned")

    def _solves(self, residual: np.ndarray) -> bool:
        """Whether B x_B reproduces the residual (NaN fails)."""
        error = np.abs(self._residual(self.values())).max(initial=0.0)
        return bool(error <= 1e-7 * (1.0 + np.abs(residual).max(initial=0.0)))

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        """c - c_B B^-1 [A | I]."""
        return c - self.prep.row_times(self.factor.duals(c, self.basis))

    # -- values --------------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        """Each nonbasic column at its bound (a fixed one at its lower,
        which equals its upper); the basic columns at zero."""
        x = np.where(self.direction < 0, self.upper, self.lower)
        x[self.basis] = 0.0
        return x

    def _residual(self, x: np.ndarray | None = None) -> np.ndarray:
        """b - [A | I] x; x defaults to the nonbasic values, leaving what
        the basic columns must meet."""
        x = self._nonbasic_values() if x is None else x
        return self.b - self.prep.times(x[:self.n]) - x[self.n:]

    def values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.x_B
        return x

    def _refactor(self) -> None:
        """Rebuild the factor from the basis, then x_B with it.

        Raises :class:`NumericalFailure` as :meth:`Factor.refactor` does.
        """
        self.counts["refactorizations"] += 1
        self.factor.refactor(self.basis)
        self.x_B = self.factor.solve(self._residual(), self.basis)

    # -- dual simplex ---------------------------------------------------------

    def run_dual(self) -> bool:
        """Bounded dual simplex on the true costs from a dual-feasible
        basis to an optimal one; False when a row proves the LP infeasible.

        Raises :class:`NumericalFailure` when the basis is not dual feasible
        or the loop cannot finish.
        """
        c = self.prep.c_real
        factor = self.factor
        z = self._reduced_costs(c)
        # A reduced cost on the wrong side of its column's direction is
        # dual infeasibility.
        if np.any(self.direction * z < -TOL_WARM_DUAL):
            raise NumericalFailure("start basis is not dual feasible")
        if not self.m:
            return True  # no row to repair

        max_iters = max(1000, 3 * self.n_real)
        for _ in range(max_iters):
            if factor.age >= REFACTOR_EVERY:
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
            rho = factor.row(leave_pos, self.basis)
            alpha = self.prep.row_times(rho)
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

            d = factor.ftran(enter, self.basis)
            step = (x_r - target) / d[leave_pos]
            base = self.lower[enter] if self.direction[enter] > 0 else self.upper[enter]
            x_B -= d * step
            leave_col = self.basis[leave_pos]
            self._pivot(leave_pos, enter, base + step, d=d, rho=rho)
            # Dual step: the entering reduced cost drops to zero and the
            # leaving column takes minus the step.
            theta = z[enter] / alpha[enter]
            z -= theta * alpha
            z[enter] = 0.0
            z[leave_col] = -theta
        raise NumericalFailure(
            f"dual simplex exceeded {max_iters} iterations without converging")

    def _pivot(self, leave_pos: int, enter: int, enter_value: float,
               d: np.ndarray, rho: np.ndarray) -> None:
        """Put column ``enter``, whose FTRAN is d, in position ``leave_pos``,
        whose row of B^-1 is rho, at ``enter_value``."""
        self.counts["pivots"] += 1
        pivot = float(d[leave_pos])
        if abs(pivot) < TOL_PIVOT:
            raise NumericalFailure("vanishing pivot element")
        leave_col = int(self.basis[leave_pos])
        leave_val = float(self.x_B[leave_pos])
        lo, hi = float(self.lower[leave_col]), float(self.upper[leave_col])
        # It leaves at its nearer bound (an infinite one is never nearer).
        self.direction[leave_col] = 0.0 if hi - lo <= 1e-15 else \
            1.0 if abs(leave_val - lo) <= abs(leave_val - hi) else -1.0

        self.factor.replace(leave_pos, enter, d, rho, self.basis)
        self.basis[leave_pos] = enter
        self.direction[enter] = 0.0
        self.basic_lower[leave_pos] = self.lower[enter]
        self.basic_upper[leave_pos] = self.upper[enter]
        self.x_B[leave_pos] = enter_value


class Factor:
    """The kernel form of B^-1 (module docstring) for one basis of a
    :class:`PreparedLP`.

    K^-1 is the leading k x k block of ``K_inv``, whose spare rows and
    columns take the borders of later pivots. Row i of K^-1 belongs to
    basis position ``kernel_pos[i]`` and column j to model row
    ``kernel_row[j]``. ``kernel_of_col``, over all n + m columns, and
    ``kernel_of_row`` map a basic structural column and a row back to its
    index in K^-1; both hold -1 outside the kernel, so every slack column
    reads -1, and an update writes one entry per column or row that joins
    or leaves the kernel. The last row and column of ``K_inv`` stay zero,
    and so does the last entry of ``y_ext``, scratch for a kernel vector,
    so an index of -1 reads a zero and needs no mask. ``age`` counts the
    pivots since K^-1 was last inverted.

    The basis array stays with the solve, which passes it as ``basic`` to
    each operation, so the factor never reads an array that a solve has
    rebound or that siblings share. ``basis`` tags the factor with the
    :class:`Basis` its solve returned, and is None while a solve that
    took it over updates it in place, so one factor serves one solve.
    """

    def __init__(self, prep: PreparedLP):
        self.prep = prep
        self.m, self.n = prep.m, prep.n
        self.basis: Basis | None = None
        self.K_inv: np.ndarray | None = None
        self.y_ext = np.zeros(prep.m + 1)

    def refactor(self, basic: np.ndarray) -> None:
        """Rebuild K^-1 and its index arrays for ``basic``: K is read from
        the stored entries of the basic structural columns and inverted,
        into the held array when it has room.

        Raises :class:`NumericalFailure` when the basic slacks do not leave
        exactly k kernel rows or the kernel is singular; the factor is then
        untouched.
        """
        m, n = self.m, self.n
        structural = basic < n
        struct_pos = np.flatnonzero(structural)
        in_kernel = np.ones(m, dtype=bool)
        in_kernel[basic[~structural] - n] = False
        kernel_rows = np.flatnonzero(in_kernel)
        k = struct_pos.size
        if kernel_rows.size != k:
            raise NumericalFailure("basis repeats a slack column")
        # Each stored entry of a basic structural column on a kernel row
        # goes to the slot of its row in R_k and of its column in S.
        prep = self.prep
        col_slot = np.full(n + m, -1)
        col_slot[basic[struct_pos]] = np.arange(k)
        row_slot = np.full(m, -1)
        row_slot[kernel_rows] = np.arange(k)
        cols, rows = col_slot[prep.col_of], row_slot[prep.col_rows]
        inside = (cols >= 0) & (rows >= 0)
        K = np.zeros((k, k))
        K[rows[inside], cols[inside]] = prep.col_vals[inside]
        try:
            K_inv = np.linalg.inv(K)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        self._reserve(k)
        self.K_inv[:k, :k] = K_inv
        self.k = k
        self.kernel_pos = np.empty(m, dtype=int)
        self.kernel_pos[:k] = struct_pos
        self.kernel_row = np.empty(m, dtype=int)
        self.kernel_row[:k] = kernel_rows
        self.kernel_of_col, self.kernel_of_row = col_slot, row_slot
        self.age = 0

    def _reserve(self, k: int) -> None:
        """Make room for a k x k kernel inverse, keeping the current one."""
        held = self.K_inv
        if held is not None and held.shape[0] > k:
            return
        size = min(self.m, max(2 * k, 32)) + 1
        grown = np.zeros((size, size))
        if held is not None:
            grown[:self.k, :self.k] = held[:self.k, :self.k]
        self.K_inv = grown

    def _complete(self, a: np.ndarray, y: np.ndarray, basic: np.ndarray) -> np.ndarray:
        """B^-1 a, given a by row and its kernel part y = K^-1 a[R_k]: the
        structural positions take y, and the basic slack of row r takes
        a[r] - (A[:, S] y)[r], through :meth:`PreparedLP.times`."""
        k = self.k
        self.y_ext[:k] = y
        w = a - self.prep.times(self.y_ext[self.kernel_of_col[:self.n]])
        # Structural positions read a clipped placeholder, then take y.
        d = w.take(basic - self.n, mode="clip")
        d[self.kernel_pos[:k]] = y
        return d

    def solve(self, v: np.ndarray, basic: np.ndarray) -> np.ndarray:
        """B^-1 v for a vector v by row."""
        k = self.k
        return self._complete(v, self.K_inv[:k, :k] @ v[self.kernel_row[:k]], basic)

    def ftran(self, j: int, basic: np.ndarray) -> np.ndarray:
        """B^-1 times column j (a slack's is the unit column of its row),
        read from the column's stored entries."""
        prep, k = self.prep, self.k
        a = np.zeros(self.m)
        if j >= self.n:
            a[j - self.n] = 1.0
            return self._complete(a, self.K_inv[:k, self.kernel_of_row[j - self.n]], basic)
        lo, hi = prep.col_start[j], prep.col_start[j + 1]
        rows, vals = prep.col_rows[lo:hi], prep.col_vals[lo:hi]
        a[rows] = vals
        return self._complete(a, self.K_inv[:k, self.kernel_of_row[rows]] @ vals, basic)

    def row(self, p: int, basic: np.ndarray) -> np.ndarray:
        """Row p of B^-1, by row: the row of K^-1 at a structural position,
        e_r - A[r, S] K^-1 at the basic slack of row r."""
        k = self.k
        rho = np.zeros(self.m)
        i = self.kernel_of_col[basic[p]]
        if i >= 0:
            rho[self.kernel_row[:k]] = self.K_inv[i, :k]
            return rho
        prep = self.prep
        r = basic[p] - self.n
        entries = prep.row_entry[prep.row_start[r]:prep.row_start[r + 1]]
        slots = self.kernel_of_col[prep.col_of[entries]]
        rho[self.kernel_row[:k]] = -(prep.col_vals[entries] @ self.K_inv[slots, :k])
        rho[r] = 1.0
        return rho

    def duals(self, c: np.ndarray, basic: np.ndarray) -> np.ndarray:
        """The duals c_B B^-1, by row: c_S K^-1 on the kernel rows and 0 on
        the others, because slack costs are 0."""
        k = self.k
        y = np.zeros(self.m)
        y[self.kernel_row[:k]] = c[basic[self.kernel_pos[:k]]] @ self.K_inv[:k, :k]
        return y

    def replace(self, p: int, enter: int, d: np.ndarray, rho: np.ndarray,
                basic: np.ndarray) -> None:
        """Update K^-1 and its index arrays in place for column ``enter``,
        whose FTRAN is d, in position p, whose row of B^-1 is rho: the
        product-form step restricted to the kernel block, then the case's
        one row or column (module docstring). Runs before ``basic`` records
        the pivot."""
        n, k = self.n, self.k
        leave_col = int(basic[p])
        K_inv = self.K_inv[:k, :k]
        d_S = d[self.kernel_pos[:k]]
        rho_k = rho[self.kernel_row[:k]] / d[p]
        # Rows where d_S is zero keep their entries exactly.
        moved = d_S.nonzero()[0]
        K_inv[moved] -= np.multiply.outer(d_S[moved], rho_k)
        i = self.kernel_of_col[leave_col]
        if i >= 0 and enter < n:  # structural for structural
            K_inv[i] = rho_k
            self.kernel_of_col[leave_col] = -1
            self.kernel_of_col[enter] = i
        elif i >= 0:  # a slack for a structural column
            self._shrink(i, self.kernel_of_row[enter - n], leave_col, basic)
        elif enter < n:  # a structural column for a slack
            self._border(p, leave_col - n, enter, -d_S / d[p], rho_k, 1.0 / d[p])
        else:  # slack for slack
            j = self.kernel_of_row[enter - n]
            K_inv[:, j] = -d_S / d[p]
            r = leave_col - n
            self.kernel_row[j] = r
            self.kernel_of_row[enter - n] = -1
            self.kernel_of_row[r] = j
        self.age += 1

    def _border(self, p: int, r: int, col: int, column: np.ndarray,
                row: np.ndarray, corner: float) -> None:
        """Grow K^-1 by one row, for position p holding structural ``col``,
        and one column, for row r: the given row, column and corner."""
        k = self.k
        self._reserve(k + 1)
        self.K_inv[k, :k] = row
        self.K_inv[:k, k] = column
        self.K_inv[k, k] = corner
        self.kernel_pos[k], self.kernel_row[k] = p, r
        self.kernel_of_col[col] = self.kernel_of_row[r] = k
        self.k = k + 1

    def _shrink(self, i: int, j: int, leave_col: int, basic: np.ndarray) -> None:
        """Delete row i and column j of K^-1 (the structural ``leave_col``
        and the kernel row whose slack enters), moving the last row and
        column into their places."""
        last = self.k - 1
        K_inv = self.K_inv
        K_inv[i, :last + 1] = K_inv[last, :last + 1]
        K_inv[:last + 1, j] = K_inv[:last + 1, last]
        moved_pos = self.kernel_pos[last]
        self.kernel_pos[i] = moved_pos
        self.kernel_of_col[basic[moved_pos]] = i
        self.kernel_of_col[leave_col] = -1
        r, moved_row = self.kernel_row[j], self.kernel_row[last]
        self.kernel_row[j] = moved_row
        self.kernel_of_row[moved_row] = j
        self.kernel_of_row[r] = -1
        self.k = last


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
