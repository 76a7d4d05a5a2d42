"""LP solver: textbook cases, the exact-arithmetic oracle, HiGHS, warm
starts, determinism."""

import copy
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fleetcharge.model import EQ, GE, LE, LinearModel
from fleetcharge.solver import (
    Basis,
    NumericalFailure,
    PreparedLP,
    SolveStatus,
    branch_and_bound,
    check_solution,
)
from fleetcharge.solver import simplex

from oracles import (
    INFEASIBLE,
    OPTIMAL,
    check_solution_by_rows,
    dense_matrix,
    lp_to_exact_inputs,
    random_lp,
    random_mixed_bounds_lp,
    refactor_by_dense_columns,
    scaled_matrix,
    solve_lp,
    solve_lp_exact,
)

INF = float("inf")


def simple_model(objective, bounds, rows):
    model = LinearModel()
    for i, (obj, (lo, hi)) in enumerate(zip(objective, bounds)):
        model.add_column(f"x{i}", lo, hi, objective=obj)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        model.add_row(f"r{i}", coeffs, sense, rhs)
    return model


class TestDualToleranceBand:
    """min 0 s.t. x >= 1 + eps, 0 <= x <= 1: a row violated by eps with no
    column left to move. Within the primal tolerance it is met; past the
    infeasibility tolerance it proves the LP infeasible; in between the dual
    simplex cannot tell and says so."""

    @staticmethod
    def model(eps, integer=False):
        model = simple_model([0.0], [(0.0, 1.0)], [([(0, 1.0)], GE, 1.0 + eps)])
        model.integer[0] = integer
        return model

    def test_within_the_primal_tolerance_is_optimal(self):
        sol = PreparedLP(self.model(5e-10)).solve()
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.values[0] == 1.0

    def test_past_the_infeasibility_tolerance_is_infeasible(self):
        assert PreparedLP(self.model(5e-7)).solve().status == SolveStatus.INFEASIBLE

    def test_between_the_tolerances_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="near-feasible row has no pivot"):
            PreparedLP(self.model(5e-8)).solve()

    def test_branch_and_bound_reports_it_not_infeasibility(self):
        with pytest.raises(NumericalFailure, match="near-feasible row has no pivot"):
            branch_and_bound(self.model(5e-8, integer=True))


class TestTextbookCases:
    def test_single_lower_bound(self):
        model = simple_model([1.0], [(0, 10)], [([(0, 1.0)], GE, 3.0)])
        sol = solve_lp(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)
        assert sol.values[0] == pytest.approx(3.0)

    def test_two_variable_maximization(self):
        model = simple_model(
            [-1.0, -1.0], [(0, 5), (0, 5)],
            [([(0, 1.0), (1, 1.0)], LE, 1.0)])
        sol = solve_lp(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0)

    def test_infeasible(self):
        model = simple_model(
            [1.0], [(0, 10)],
            [([(0, 1.0)], LE, 1.0), ([(0, 1.0)], GE, 2.0)])
        assert solve_lp(model).status == SolveStatus.INFEASIBLE

    def test_unbounded(self):
        # A negative cost with no upper bound is outside the input class.
        model = simple_model([1.0, -1.0], [(0, 4), (0, INF)],
                             [([(1, 1.0)], GE, 0.0)])
        with pytest.raises(ValueError, match="column x1 has cost -1 and no finite upper"):
            PreparedLP(model)

    def test_equality_with_negative_rhs(self):
        model = simple_model(
            [2.0, 3.0], [(0, 10), (0, 10)],
            [([(0, 1.0), (1, 1.0)], EQ, 4.0),
             ([(0, 1.0), (1, -1.0)], GE, -2.0)])
        sol = solve_lp(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0)  # all mass on the cheap column

    def test_upper_bounded_columns(self):
        model = simple_model(
            [-5.0, -4.0], [(0, 2), (0, 3)],
            [([(0, 1.0), (1, 1.0)], LE, 4.0)])
        sol = solve_lp(model)
        assert sol.objective == pytest.approx(-5 * 2 - 4 * 2)

    def test_free_variable(self):
        # A free column is outside the input class, with a cost or without.
        model = simple_model(
            [1.0], [(-INF, INF)], [([(0, 1.0)], GE, -7.0)])
        with pytest.raises(ValueError, match="column x0 has cost 1 and no finite lower"):
            PreparedLP(model)
        rows = [([(0, 1.0), (1, 1.0)], GE, 3.0), ([(0, 1.0)], LE, 2.0)]
        free = simple_model([0.0, 1.0], [(-INF, INF), (0, 10)], rows)
        with pytest.raises(ValueError, match="column x0 has no finite bound"):
            PreparedLP(free)
        # Costless with one finite bound, it enters the basis:
        # x0 + x1 >= 3 with x0 <= 2 needs x1 = 1.
        sol = solve_lp(simple_model([0.0, 1.0], [(-7, INF), (0, 10)], rows))
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert sol.values[0] == pytest.approx(2.0)

    def test_fixed_column(self):
        model = simple_model(
            [1.0, 1.0], [(2, 2), (0, 5)],
            [([(0, 1.0), (1, 1.0)], GE, 3.0)])
        sol = solve_lp(model)
        assert sol.values[0] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(3.0)

    def test_no_rows(self, monkeypatch):
        # Boxed, lower-only and upper-only columns, costs of both signs:
        # each ends at the bound its cost prefers. A free column is refused.
        costs = [1.0, -2.0, 0.5, -1.5, 0.0]
        bounds = [(1, 4), (0, 6), (-3, INF), (-INF, 7), (-INF, INF)]
        with pytest.raises(ValueError, match="column x4 has no finite bound"):
            PreparedLP(simple_model(costs, bounds, []))
        model = simple_model(costs[:4], bounds[:4], [])
        prep = PreparedLP(model)
        cold = prep.solve()
        assert cold.status == SolveStatus.OPTIMAL
        assert list(cold.values) == [1.0, 6.0, -3.0, 7.0]
        assert cold.objective == pytest.approx(1 * 1 - 2 * 6 + 0.5 * -3 - 1.5 * 7)

        def no_cold_start(state):
            raise AssertionError("warm solve fell back to the slack basis")

        monkeypatch.setattr(simplex._SimplexState, "_slack_start", no_cold_start)
        for factor in (cold.factor, None):  # handed over, then refactorized
            warm = prep.solve(basis=cold.basis, factor=factor)
            assert warm.status == SolveStatus.OPTIMAL
            assert list(warm.values) == list(cold.values)

    def test_solve_rejects_bounds_outside_the_input_class(self):
        # y's tiny positive cost favours its lower bound, which the per-solve
        # bounds remove: the LP is unbounded, so it must not come back OPTIMAL.
        model = simple_model([1.0, 1e-9], [(0, 5), (0, 5)],
                             [([(0, 1.0), (1, 1.0)], GE, 1.0)])
        prep = PreparedLP(model)
        with pytest.raises(ValueError, match="column x1 has cost 1e-09 and no finite lower"):
            prep.solve([0.0, -INF], [5.0, 5.0])
        with pytest.raises(ValueError, match="column x0 has cost 1 and no finite lower"):
            prep.solve([-INF, 0.0], [5.0, 5.0])

    def test_free_column_is_rejected_by_solve_and_branch_and_bound(self):
        # x1 costs nothing: loosening both its bounds leaves it free.
        rows = [([(0, 1.0), (1, 1.0)], GE, 1.0)]
        prep = PreparedLP(simple_model([1.0, 0.0], [(0, 5), (0, 5)], rows))
        with pytest.raises(ValueError, match="column x1 has no finite bound"):
            prep.solve(lower=[0.0, -INF], upper=[5.0, INF])
        free = simple_model([1.0, 0.0], [(0, 5), (-INF, INF)], rows)
        with pytest.raises(ValueError, match="column x1 has no finite bound"):
            branch_and_bound(free)


class TestExactOracle:
    """Random LPs against rational-arithmetic ground truth."""

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_matches_exact_solver(self, seed):
        model = random_lp(seed, size=8)
        mine = solve_lp(model)
        status, objective = solve_lp_exact(*lp_to_exact_inputs(model))
        if status == OPTIMAL:
            assert mine.status == SolveStatus.OPTIMAL
            assert mine.objective == pytest.approx(float(objective), abs=1e-7)
        else:
            assert status == INFEASIBLE  # random_lp is never unbounded
            assert mine.status == SolveStatus.INFEASIBLE

    def test_solution_passes_independent_check(self):
        for seed in (3, 5, 8):
            model = random_lp(seed)
            sol = solve_lp(model)
            if sol.status == SolveStatus.OPTIMAL:
                assert check_solution(model, sol.values) == []


class TestAgainstHiGHS:
    """Random LPs with upper-only, lower-only, boxed and fixed columns,
    against HiGHS. They reach what zero-lower-bound LPs do not: starts at
    an upper bound and at a fixed value."""

    SEEDS = range(40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_linprog(self, seed):
        pytest.importorskip("scipy")
        from highs_reference import highs_lp

        model = random_mixed_bounds_lp(seed)
        mine = solve_lp(model)
        status, objective, _ = highs_lp(model)
        assert mine.status.value == status
        if status == "optimal":
            assert mine.objective == pytest.approx(objective, rel=1e-9, abs=1e-7)
            assert check_solution(model, mine.values) == []

    def test_seeds_reach_every_start_case(self):
        fixed = at_upper = 0
        for seed in self.SEEDS:
            model = random_mixed_bounds_lp(seed)
            prep = PreparedLP(model)
            state = simplex._SimplexState(
                prep, np.array(model.lower), np.array(model.upper))
            fixed += np.any(state.direction[:prep.n] == 0.0)
            at_upper += np.any(state.direction < 0)
        assert min(fixed, at_upper) >= 10


def _no_cold_start(monkeypatch):
    """Make any fall back to the slack-basis start fail the test."""
    def slack_start(self):
        raise AssertionError("warm solve fell back to the cold start")
    monkeypatch.setattr(simplex._SimplexState, "_slack_start", slack_start)


class TestWarmStart:
    """Re-solves from a parent's basis after one bound change, as in
    branch-and-bound, against a cold solve and the exact oracle."""

    # random_lp seeds with an optimal parent; halving the bound makes
    # seeds 3 and 13 infeasible.
    SEEDS = [2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14]

    @staticmethod
    def child(seed, direction):
        """A random LP, its optimal parent solve, and child bounds that cut
        the parent's largest value: halved from above or raised past it."""
        model = random_lp(seed, size=8)
        prep = PreparedLP(model)
        parent = prep.solve()
        assert parent.status == SolveStatus.OPTIMAL and parent.basis is not None
        j = int(np.argmax(parent.values))
        lower, upper = list(model.lower), list(model.upper)
        if direction == "down":
            upper[j] = math.floor(parent.values[j] / 2)
        else:
            lower[j] = math.floor(parent.values[j]) + 1
        return model, prep, parent, lower, upper

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tightened_upper_bound_matches_cold_and_exact(self, seed, monkeypatch):
        model, prep, parent, lower, upper = self.child(seed, "down")
        cold = prep.solve(lower, upper)
        _no_cold_start(monkeypatch)
        warm = prep.solve(lower, upper, basis=parent.basis)

        status, objective = solve_lp_exact(
            *lp_to_exact_inputs(replace(model, upper=upper)))
        assert warm.status == cold.status
        if status == OPTIMAL:
            assert warm.status == SolveStatus.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.objective == pytest.approx(float(objective), abs=1e-7)
            assert check_solution(replace(model, upper=upper), warm.values) == []
        else:
            assert status == INFEASIBLE
            assert warm.status == SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raised_lower_bound_matches_cold(self, seed, monkeypatch):
        model, prep, parent, lower, upper = self.child(seed, "up")
        cold = prep.solve(lower, upper)
        _no_cold_start(monkeypatch)
        warm = prep.solve(lower, upper, basis=parent.basis)
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dual_simplex_keeps_dual_feasibility(self, seed, direction):
        # Dual pivots alone reach the optimum, so a ratio test that lets
        # reduced costs change sign would end at a basis that is not optimal.
        _, prep, parent, lower, upper = self.child(seed, direction)
        state = simplex._SimplexState(
            prep, np.array(lower, dtype=float), np.array(upper, dtype=float),
            parent.basis)
        if state.run_dual() == SolveStatus.INFEASIBLE:
            return  # proven infeasible; covered against the oracle above
        z = state._reduced_costs(prep.c_real)
        assert np.all(z[state.direction > 0] >= -1e-9)  # at the lower bound
        assert np.all(z[state.direction < 0] <= 1e-9)  # at the upper bound

    def test_infeasible_child(self, monkeypatch):
        # x0 + x1 >= 3 with x0 <= 2: cutting x1 to 0 leaves no solution.
        model = simple_model(
            [1.0, 2.0], [(0, 2), (0, 5)], [([(0, 1.0), (1, 1.0)], GE, 3.0)])
        prep = PreparedLP(model)
        parent = prep.solve()
        assert parent.objective == pytest.approx(4.0)
        _no_cold_start(monkeypatch)
        child = prep.solve([0, 0], [2, 0], basis=parent.basis)
        assert child.status == SolveStatus.INFEASIBLE

    def test_unusable_basis_falls_back_to_cold(self):
        # The second row is twice the first, so {x0, x1} is a singular basis.
        model = simple_model(
            [1.0, 1.0, 0.0], [(0, 4), (0, 4), (0, 4)],
            [([(0, 1.0), (1, 1.0), (2, 1.0)], GE, 1.0),
             ([(0, 2.0), (1, 2.0), (2, 1.0)], LE, 5.0)])
        prep = PreparedLP(model)
        cold = prep.solve()
        width = prep.n_real
        at_upper = np.zeros(width, dtype=bool)
        garbage = [
            Basis(np.array([0, 1]), at_upper),  # singular
            Basis(np.array([0, 0]), at_upper),  # repeated column
            Basis(np.array([0]), at_upper),  # wrong length
            Basis(np.array([0, 1]), at_upper[1:]),  # record of the wrong width
            Basis(np.array([0, width]), at_upper),  # out of range
            Basis(np.array([0.0, 1.0]), at_upper),  # not indices
        ]
        for basis in garbage:
            warm = prep.solve(basis=basis)
            assert warm.status == cold.status
            assert np.array_equal(warm.values, cold.values)
            assert warm.objective == cold.objective

    def test_dual_infeasible_basis_falls_back_to_cold(self, monkeypatch):
        """The optimal basis of min x0 + 2 x1 over x0 + x1 >= 1 is not dual
        feasible under the costs (2, 1): the warm dual loop refuses it, and
        the solve restarts from the slack basis."""
        bounds, rows = [(0, 1), (0, 1)], [([(0, 1.0), (1, 1.0)], GE, 1.0)]
        first = PreparedLP(simple_model([1.0, 2.0], bounds, rows)).solve()
        assert first.values.tolist() == [1.0, 0.0]
        refusals = []
        run_dual = simplex._SimplexState.run_dual

        def recorded(self):
            try:
                return run_dual(self)
            except simplex.NumericalFailure as exc:
                refusals.append(str(exc))
                raise
        monkeypatch.setattr(simplex._SimplexState, "run_dual", recorded)
        swapped = PreparedLP(simple_model([2.0, 1.0], bounds, rows))
        warm = swapped.solve(basis=first.basis)
        assert refusals == ["start basis is not dual feasible"]
        assert warm.status == SolveStatus.OPTIMAL
        assert warm.values.tolist() == [0.0, 1.0] and warm.objective == 1.0

    def test_ill_conditioned_basis_falls_back_to_cold(self, monkeypatch):
        """The 10 x 10 Hilbert rows, H x >= -1 over the unit box: the basis
        of all ten columns inverts (condition about 1e13), but x_B misses
        the residual check, so the warm start is refused and the solve
        returns the cold optimum."""
        k = 10
        hilbert = [[1.0 / (i + j + 1) for j in range(k)] for i in range(k)]
        assert np.linalg.cond(hilbert) > 1e12
        prep = PreparedLP(simple_model(
            [1.0] * k, [(0, 1)] * k,
            [(list(enumerate(row)), GE, -1.0) for row in hilbert]))
        cold = prep.solve()
        refusals = []
        load = simplex._SimplexState._load

        def recorded(self, *args):
            try:
                return load(self, *args)
            except simplex.NumericalFailure as exc:
                refusals.append(str(exc))
                raise
        monkeypatch.setattr(simplex._SimplexState, "_load", recorded)
        warm = prep.solve(basis=Basis(np.arange(k), np.zeros(prep.n_real, dtype=bool)))
        assert refusals == ["warm-start basis is ill-conditioned"]
        assert warm.status == cold.status == SolveStatus.OPTIMAL
        assert np.array_equal(warm.values, cold.values)
        assert warm.objective == cold.objective == 0.0

    def test_repeat_warm_solves_identical(self, depot_scenario):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        prep = PreparedLP(model)
        root = prep.solve()
        j = next(j for j in model.integer_cols
                 if abs(root.values[j] - round(root.values[j])) > 1e-6)
        upper = np.array(model.upper)
        upper[j] = math.floor(root.values[j])
        record = [a.copy() for a in (root.basis.basic, root.basis.at_upper)]
        a = prep.solve(model.lower, upper, basis=root.basis)
        b = prep.solve(model.lower, upper, basis=root.basis)
        assert a.status == b.status == SolveStatus.OPTIMAL
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.basis.basic, b.basis.basic)
        assert np.array_equal(a.basis.at_upper, b.basis.at_upper)
        # The parent's record is shared by both children and never written.
        for kept, now in zip(record, (root.basis.basic, root.basis.at_upper)):
            assert np.array_equal(kept, now)
        cold = prep.solve(model.lower, upper)
        assert a.objective == pytest.approx(cold.objective, rel=1e-9)


def depot_child(depot_scenario):
    """The depot model's prepared LP, its root solve and the bounds of the
    root's down-branch on its first fractional integer column."""
    import fleetcharge as fc

    model = fc.build_problem(depot_scenario).model
    prep = PreparedLP(model)
    root = prep.solve()
    j = next(j for j in model.integer_cols
             if abs(root.values[j] - round(root.values[j])) > 1e-6)
    upper = np.array(model.upper)
    upper[j] = math.floor(root.values[j])
    return prep, root, np.array(model.lower), upper


def record_calls(monkeypatch, *names):
    """Log each call of the named _SimplexState methods, in order."""
    calls = []
    for name in names:
        original = getattr(simplex._SimplexState, name)

        def logged(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(simplex._SimplexState, name, logged)
    return calls


class TestFactorHandOff:
    """A solve handed the final basis inverse of the solve that returned
    its basis skips the refactorization; a factor it cannot trust is
    rebuilt from the basis."""

    def test_inherited_factor_skips_refactorization(self, depot_scenario, monkeypatch):
        prep, root, lower, upper = depot_child(depot_scenario)
        factor = root.factor
        k = np.count_nonzero(root.basis.basic < prep.n)
        assert factor.basis is root.basis and factor.k == k
        assert k <= factor.K_inv.shape[0] < prep.m  # kernel-sized, not m x m
        rebuilt = prep.solve(lower, upper, root.basis)
        calls = record_calls(monkeypatch, "_refactor")
        factor = root.factor
        inherited = prep.solve(lower, upper, root.basis, factor)
        assert calls == [] and inherited.counts["factor_handoffs"] == 1
        # Taken over: updated in place and handed on with the child's basis.
        assert inherited.factor is factor and factor.basis is inherited.basis
        assert inherited.status == rebuilt.status == SolveStatus.OPTIMAL
        assert inherited.objective == pytest.approx(rebuilt.objective, rel=1e-9)

    @pytest.mark.parametrize("corruption", ["scaled", "nan"])
    def test_corrupted_factor_is_refactorized(self, depot_scenario, monkeypatch, corruption):
        prep, root, lower, upper = depot_child(depot_scenario)
        rebuilt = prep.solve(lower, upper, root.basis)
        if corruption == "scaled":
            root.factor.K_inv *= 1.01
        else:
            root.factor.K_inv[0, 0] = np.nan
        calls = record_calls(monkeypatch, "_refactor")
        warm = prep.solve(lower, upper, root.basis, root.factor)
        assert calls[:1] == ["_refactor"]
        assert warm.status == rebuilt.status
        assert warm.objective == rebuilt.objective
        assert np.array_equal(warm.values, rebuilt.values)

    def test_factor_of_another_basis_is_ignored(self, depot_scenario, monkeypatch):
        prep, root, lower, upper = depot_child(depot_scenario)
        rebuilt = prep.solve(lower, upper, root.basis)
        foreign = copy.copy(root.factor)
        foreign.basis = Basis(root.basis.basic.copy(), root.basis.at_upper)
        calls = record_calls(monkeypatch, "_refactor")
        warm = prep.solve(lower, upper, root.basis, foreign)
        assert calls[:1] == ["_refactor"]
        assert warm.counts["factor_handoffs"] == 0  # not taken over
        assert warm.factor is not foreign
        assert np.array_equal(warm.values, rebuilt.values)

    def test_factor_of_another_lp_is_ignored(self, depot_scenario):
        import fleetcharge as fc

        prep, root, lower, upper = depot_child(depot_scenario)
        twin = PreparedLP(fc.build_problem(depot_scenario).model)
        warm = twin.solve(lower, upper, root.basis, root.factor)
        assert warm.counts["factor_handoffs"] == 0 and root.factor.basis is root.basis
        assert np.array_equal(warm.values, prep.solve(lower, upper, root.basis).values)

    def test_one_factor_serves_one_solve(self, depot_scenario, monkeypatch):
        """Handed the root's factor twice from root.basis, the first warm
        solve takes it over; the second ignores it, refactorizes once and
        equals a solve handed no factor, bit for bit. The factor, now of
        the first solve's basis, is left as that solve returned it."""
        prep, root, lower, upper = depot_child(depot_scenario)
        factor = root.factor
        first = prep.solve(lower, upper, root.basis, factor)
        assert first.counts["factor_handoffs"] == 1 and first.factor is factor
        held = (factor.basis, factor.K_inv, factor.K_inv.copy(), factor.k, factor.age)
        calls = record_calls(monkeypatch, "_refactor")
        second = prep.solve(lower, upper, root.basis, factor)
        assert second.counts["factor_handoffs"] == 0 and calls == ["_refactor"]
        assert second.counts["refactorizations"] == 1 and second.factor is not factor
        plain = prep.solve(lower, upper, root.basis)
        assert plain.counts["factor_handoffs"] == 0
        for key in ("status", "objective"):
            assert getattr(second, key) == getattr(plain, key)
        for key in ("pivots", "refactorizations"):
            assert second.counts[key] == plain.counts[key]
        assert np.array_equal(second.values, plain.values)
        assert np.array_equal(second.basis.basic, plain.basis.basic)
        assert np.array_equal(second.basis.at_upper, plain.basis.at_upper)
        basis, K_inv, entries, k, age = held
        assert factor.basis is basis is first.basis and factor.K_inv is K_inv
        assert np.array_equal(factor.K_inv, entries, equal_nan=True)
        assert (factor.k, factor.age) == (k, age)

    def test_crossed_bounds_still_count_the_hand_off(self, depot_scenario):
        """A solve whose bounds cross returns INFEASIBLE before any pivot,
        but still reports the hand-off it was given, as the search counts it."""
        prep, root, lower, upper = depot_child(depot_scenario)
        upper[0] = lower[0] - 1.0
        crossed = prep.solve(lower, upper, root.basis, root.factor)
        assert crossed.status == SolveStatus.INFEASIBLE
        assert (crossed.counts["factor_handoffs"], crossed.counts["pivots"]) == (1, 0)
        assert prep.solve(lower, upper, root.basis).counts["factor_handoffs"] == 0

    def test_age_carries_across_the_hand_off(self, depot_scenario, monkeypatch):
        prep, root, lower, upper = depot_child(depot_scenario)
        rebuilt = prep.solve(lower, upper, root.basis)
        root.factor.age = simplex.REFACTOR_EVERY - 1
        calls = record_calls(monkeypatch, "_refactor", "_pivot")
        warm = prep.solve(lower, upper, root.basis, root.factor)
        # The first pivot makes the inherited inverse REFACTOR_EVERY updates
        # old, so it is rebuilt before the next step, and only then.
        assert calls[:2] == ["_pivot", "_refactor"]
        assert calls.count("_refactor") == 1
        assert warm.factor.age == calls.count("_pivot") - 1
        assert warm.status == rebuilt.status
        assert warm.objective == pytest.approx(rebuilt.objective, rel=1e-9)


def assert_kept_state(state):
    """The direction vector and basic bounds the dual loop keeps agree with
    the basis and the bounds: 0 on basic and fixed columns, +1 or -1 on the
    others, naming a finite bound."""
    basic = np.zeros(state.n_real, dtype=bool)
    basic[state.basis] = True
    movable = state.upper - state.lower > 1e-15
    direction = state.direction
    assert np.all(direction[basic | ~movable] == 0.0)
    assert np.all(np.abs(direction[~basic & movable]) == 1.0)
    assert np.all(np.isfinite(state.lower[direction > 0]))
    assert np.all(np.isfinite(state.upper[direction < 0]))
    assert np.array_equal(state.basic_lower, state.lower[state.basis])
    assert np.array_equal(state.basic_upper, state.upper[state.basis])


def check_every_pivot(monkeypatch):
    """Run assert_kept_state after each _pivot; returns the pivoted states."""
    states = []
    original = simplex._SimplexState._pivot

    def pivot(self, *args, **kwargs):
        original(self, *args, **kwargs)
        assert_kept_state(self)
        states.append(self)
    monkeypatch.setattr(simplex._SimplexState, "_pivot", pivot)
    return states


def objective_by_loop(model, values):
    """The objective as a loop over the priced columns, left to right."""
    total = 0.0
    for c, x in zip(model.objective, values):
        if c != 0.0:
            total += c * x
    return total


class TestLoopState:
    """The per-column vectors the dual loop keeps in step with the basis,
    and the objective sum, against the loops they stand for."""

    def test_depot_root_lp(self, depot_scenario, monkeypatch):
        import fleetcharge as fc

        scenario = fc.validate_scenario(replace(depot_scenario, slack_blocks=0))
        prep = PreparedLP(fc.build_problem(scenario).model)
        states = check_every_pivot(monkeypatch)
        assert prep.solve().status == SolveStatus.OPTIMAL
        assert len(states) > 100

    def test_warm_node_lp_with_inherited_factor(self, depot_scenario, monkeypatch):
        prep, root, lower, upper = depot_child(depot_scenario)
        calls = record_calls(monkeypatch, "_refactor")
        states = check_every_pivot(monkeypatch)
        factor = root.factor
        child = prep.solve(lower, upper, root.basis, factor)
        assert child.status == SolveStatus.OPTIMAL
        assert child.factor is factor and "_refactor" not in calls  # taken over
        assert states and all(state is states[0] for state in states)

    def test_reported_objective_equals_loop(self, depot_scenario, two_truck_scenario,
                                            remote_scenario):
        import fleetcharge as fc

        for scenario in (depot_scenario, two_truck_scenario, remote_scenario):
            model = fc.build_problem(scenario).model
            for solution in (PreparedLP(model).solve(), branch_and_bound(model)):
                assert solution.objective == objective_by_loop(model, solution.values)

    def test_reported_objective_with_zero_costs(self):
        model = simple_model([0.0, 0.1, 0.0, -0.7, 1e16], [(0, 1)] * 5, [])
        prep = PreparedLP(model)
        point = np.array([0.5, 0.2, 1.0, 1.0, 1.0])
        solution = prep.solve(point, point)
        assert solution.objective == objective_by_loop(model, point)
        assert prep.solve(np.zeros(5), np.zeros(5)).objective == 0.0


class TestSnapshot:
    """A prepared LP reads its model once: a later change to the model
    changes no solve, and the instance keeps no reference to it."""

    @pytest.mark.parametrize("change", ["append-column", "edit-cost"])
    def test_later_model_changes_leave_solves_alone(self, depot_scenario, change):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        prep = PreparedLP(model)
        before = prep.solve()
        if change == "append-column":
            model.add_column("late", 0.0, 1.0, objective=5.0)
        else:
            model.objective[:] = [2.0 * c for c in model.objective]
        after = prep.solve()
        assert after.status == before.status == SolveStatus.OPTIMAL
        assert after.objective == before.objective
        assert np.array_equal(after.values, before.values)
        assert not any(isinstance(value, LinearModel) for value in vars(prep).values())

    def test_held_arrays_are_read_only(self, depot_scenario):
        import fleetcharge as fc

        prep = PreparedLP(fc.build_problem(depot_scenario).model)
        for array in (prep.lower, prep.upper, prep.cost, prep.priced):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestSetUp:
    """The vectorized per-solve set-up against the column loops it replaced."""

    def test_basis_matrix_matches_column_loop(self, depot_scenario):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        prep = PreparedLP(model)
        state = simplex._SimplexState(
            prep, np.array(model.lower), np.array(model.upper))
        # The cold start is the slack basis: B = I.
        assert np.array_equal(state.basis, np.arange(prep.n, prep.n_real))
        assert state.factor.k == 0  # an empty kernel
        assert state.run_dual() == SolveStatus.OPTIMAL
        assert np.any(state.basis < prep.n)  # structural columns entered
        full = np.hstack([scaled_matrix(model), np.eye(prep.m)])  # [A | I], slacks explicit
        reference = np.zeros((prep.m, prep.m))
        for k, j in enumerate(state.basis):
            reference[:, k] = full[:, j]
        v = np.random.default_rng(0).standard_normal(prep.m)
        x = np.zeros(prep.n_real)
        x[state.basis] = v  # B v is [A | I] x, read through the residual
        assert np.allclose(prep.b - state._residual(x), reference @ v, rtol=0, atol=1e-12)
        state._refactor()
        assert np.allclose(state.factor.solve(reference @ v, state.basis), v,
                           rtol=0, atol=1e-9)

    def test_scaled_matrix_matches_coefficient_loop(self, depot_scenario):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        # A repeated column in one row adds up, as in the builder's sums,
        # and a column whose entries cancel has no entry in that row.
        model.add_row("twice", [(0, 1.5), (3, -2.0), (0, 0.25)], LE, 4.0)
        model.add_row("cancel", [(1, 2.0), (2, 1.0), (1, -2.0)], GE, 0.0)
        model.add_row("empty", [], LE, 3.0)
        empty_col = model.add_column("unused", 0.0, 1.0)
        prep = PreparedLP(model)
        A = dense_matrix(model)
        scale = np.abs(A).max(axis=1)
        scale[scale == 0] = 1.0
        reference = scaled_matrix(model)
        assert np.array_equal(reference, A / scale[:, None])
        assert np.array_equal(prep.b, model.rhs / scale)
        assert prep.col_start[0] == 0 and prep.col_start[-1] == prep.col_rows.size
        assert prep.col_vals.size == prep.col_of.size == prep.col_rows.size
        stored = np.zeros_like(reference)
        for j in range(model.num_cols):
            entries = slice(prep.col_start[j], prep.col_start[j + 1])
            rows = prep.col_rows[entries]
            assert np.all(np.diff(rows) > 0)  # ascending, each row once
            assert np.array_equal(rows, np.flatnonzero(reference[:, j]))
            assert np.array_equal(prep.col_vals[entries], reference[rows, j])
            assert np.all(prep.col_of[entries] == j)
            stored[rows, j] = prep.col_vals[entries]
        assert np.array_equal(stored, reference)
        twice, cancel, empty_row = model.num_rows - 3, model.num_rows - 2, model.num_rows - 1
        assert stored[twice, 0] == 1.75 / 2.0  # 1.5 + 0.25, scaled by |-2|
        assert cancel not in prep.col_rows[prep.col_start[1]:prep.col_start[2]]
        assert empty_row not in prep.col_rows and prep.b[empty_row] == 3.0
        assert prep.col_start[empty_col] == prep.col_start[empty_col + 1]

    def test_initial_directions_match_column_loop(self):
        model = simple_model(
            [0.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0],
            [(-INF, 2), (-INF, 5), (0, INF), (2, 3), (0, 4), (0, INF), (4, 4)],
            [([(j, 1.0) for j in range(7)], GE, 1.0)])
        prep = PreparedLP(model)
        state = simplex._SimplexState(
            prep, np.array(model.lower), np.array(model.upper))
        expected = []
        for j in range(prep.n_real):
            lo, hi, c = state.lower[j], state.upper[j], prep.c_real[j]
            if j in state.basis or hi - lo <= 1e-15:
                expected.append(0.0)  # basic or fixed
            elif np.isfinite(hi) and (c < 0 or not np.isfinite(lo)):
                expected.append(-1.0)  # at the upper bound
            else:
                expected.append(1.0)  # at the lower bound
        assert state.direction.tolist() == expected
        assert expected[:7] == [-1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 0.0]


def dense_random_model(seed, m=6, n=9):
    """Every coefficient nonzero, so any kernel of distinct columns is
    nonsingular with probability one."""
    rng = np.random.default_rng(seed)
    model = LinearModel()
    for j in range(n):
        model.add_column(f"x{j}", 0.0, 10.0, objective=float(rng.uniform(-1, 1)))
    senses = [LE, GE, EQ]
    for i in range(m):
        coeffs = [(j, float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])))
                  for j in range(n)]
        model.add_row(f"r{i}", coeffs, senses[i % 3], float(rng.uniform(1, 5)))
    return model


def basis_record(prep, basic):
    return Basis(np.asarray(basic), np.zeros(prep.n_real, dtype=bool))


def full_matrix(model):
    """[A | I]: the scaled structural matrix with the slack columns explicit."""
    A = scaled_matrix(model)
    return np.hstack([A, np.eye(A.shape[0])])


def assert_kernel_form_matches_dense(state, full, atol=1e-9):
    """The kernel index maps, then FTRAN of every column, every pivot row
    and the reduced costs of the state's kernel form against
    np.linalg.inv of its dense basis."""
    factor, basis = state.factor, state.basis
    k = factor.k
    for i in range(k):
        assert factor.kernel_of_col[basis[factor.kernel_pos[i]]] == i
        assert factor.kernel_of_row[factor.kernel_row[i]] == i
    assert np.count_nonzero(factor.kernel_of_col >= 0) == k
    assert np.count_nonzero(factor.kernel_of_row >= 0) == k
    assert np.all(factor.kernel_of_col[state.n:] == -1)  # no slack is in the kernel
    B_inv = np.linalg.inv(full[:, basis])
    for j in range(full.shape[1]):
        assert np.allclose(factor.ftran(j, basis), B_inv @ full[:, j], rtol=0, atol=atol)
    for p in range(full.shape[0]):
        rho = factor.row(p, basis)
        assert np.allclose(rho, B_inv[p], rtol=0, atol=atol)
        assert np.allclose(state.prep.row_times(rho), B_inv[p] @ full, rtol=0, atol=atol)
    c = state.prep.c_real
    assert np.allclose(state._reduced_costs(c), c - (c[state.basis] @ B_inv) @ full,
                       rtol=0, atol=atol)


def pivot_case(state, leave_col, enter):
    """The kernel update a pivot takes: which kind of column leaves, which enters."""
    kind = ("slack", "structural")
    return (kind[bool(leave_col < state.n)], kind[bool(enter < state.n)])


class TestKernelFactorization:
    """The kernel form of B^-1, after a refactorization and after each kind
    of in-place update, against dense linear algebra on the full basis."""

    @pytest.mark.parametrize("k", [0, 3, 6])  # all slacks, mixed, m structural
    @pytest.mark.parametrize("seed", range(4))
    def test_assembled_inverse_matches_dense_inverse(self, seed, k):
        model = dense_random_model(seed)
        prep = PreparedLP(model)
        rng = np.random.default_rng(100 + seed)
        structural = rng.choice(prep.n, size=k, replace=False)
        slack_rows = rng.choice(prep.m, size=prep.m - k, replace=False)
        basic = rng.permutation(np.concatenate([structural, prep.n + slack_rows]))
        state = simplex._SimplexState(
            prep, np.array(model.lower), np.array(model.upper),
            basis_record(prep, basic))
        full = full_matrix(model)
        assert state.factor.k == k
        assert_kernel_form_matches_dense(state, full, atol=1e-10)
        B = full[:, basic]
        assert np.allclose(B @ state.x_B, state._residual(), rtol=0, atol=1e-10)

    def test_every_update_case_matches_dense_inverse(self, monkeypatch):
        """Cold solves and tightened re-solves of random LPs: after each
        pivot and each refactorization the kernel form matches the dense
        inverse, and all four update cases run."""
        pivot, refactor = simplex._SimplexState._pivot, simplex._SimplexState._refactor
        cases = Counter()
        full = None

        def checked_pivot(self, leave_pos, leave_col, to_lower, enter, *args, **kwargs):
            assert leave_col == self.basis[leave_pos]
            # The ratio test's side is the bound the leaving value now sits nearer.
            value, lo, hi = self.x_B[leave_pos], self.lower[leave_col], self.upper[leave_col]
            assert hi - lo <= 1e-15 or to_lower == (abs(value - lo) <= abs(value - hi))
            cases[pivot_case(self, leave_col, enter)] += 1
            pivot(self, leave_pos, leave_col, to_lower, enter, *args, **kwargs)
            assert_kernel_form_matches_dense(self, full)

        def checked_refactor(self):
            refactor(self)
            assert_kernel_form_matches_dense(self, full)

        monkeypatch.setattr(simplex._SimplexState, "_pivot", checked_pivot)
        monkeypatch.setattr(simplex._SimplexState, "_refactor", checked_refactor)
        for make, seed in itertools.product((random_lp, random_mixed_bounds_lp), range(6)):
            model = make(seed)
            full = full_matrix(model)
            prep = PreparedLP(model)
            parent = prep.solve()
            if parent.status != SolveStatus.OPTIMAL:
                continue
            lower, upper = np.array(model.lower), np.array(model.upper)
            for j in range(prep.n):
                if upper[j] > lower[j]:
                    cut = upper.copy()
                    cut[j] = max(lower[j], math.floor(parent.values[j] / 2))
                    prep.solve(lower, cut, parent.basis, None)
        assert set(cases) == set(itertools.product(("slack", "structural"), repeat=2))

    def test_singular_kernel_raises_and_warm_start_falls_back(self, monkeypatch):
        # Rows 0 and 1 scale to the same x0, x1 coefficients, so with the
        # slack of row 2 basic the kernel {rows 0, 1} x {x0, x1} is singular.
        model = simple_model(
            [1.0, 1.0, 0.0], [(0, 4), (0, 4), (0, 4)],
            [([(0, 1.0), (1, 1.0), (2, 1.0)], GE, 1.0),
             ([(0, 2.0), (1, 2.0), (2, 1.0)], LE, 5.0),
             ([(0, 1.0), (2, 1.0)], LE, 6.0)])
        prep = PreparedLP(model)
        singular = basis_record(prep, [0, prep.n + 2, 1])
        with pytest.raises(simplex.NumericalFailure, match="singular"):
            simplex._SimplexState(prep, np.array(model.lower),
                                  np.array(model.upper), singular)
        cold = prep.solve()
        starts = []
        slack_start = simplex._SimplexState._slack_start
        monkeypatch.setattr(simplex._SimplexState, "_slack_start",
                            lambda self: starts.append(1) or slack_start(self))
        warm = prep.solve(basis=singular)
        assert starts == [1]  # fell back cold exactly once
        assert warm.status == cold.status
        assert np.array_equal(warm.values, cold.values)

    def test_repeated_slack_is_a_count_mismatch(self):
        model = dense_random_model(0, m=3, n=4)
        prep = PreparedLP(model)
        lo, hi = np.array(model.lower), np.array(model.upper)
        repeated = basis_record(prep, [0, prep.n, prep.n])
        # A record that repeats a column does not fit; a basis that comes
        # to repeat a slack fails the kernel's row count.
        with pytest.raises(simplex.NumericalFailure, match="does not fit"):
            simplex._SimplexState(prep, lo, hi, repeated)
        state = simplex._SimplexState(prep, lo, hi)
        state.basis = repeated.basic
        with pytest.raises(simplex.NumericalFailure, match="repeats a slack"):
            state._refactor()

    def test_sparse_pivot_row_and_costs_match_dense(self, depot_scenario):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        prep = PreparedLP(model)
        root = prep.solve()
        state = simplex._SimplexState(
            prep, np.array(model.lower), np.array(model.upper), root.basis, root.factor)
        assert 0 < state.factor.k < prep.m
        assert_kernel_form_matches_dense(state, full_matrix(model))

    def test_no_full_basis_inversion(self, depot_scenario, monkeypatch):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        shapes = []
        inv = np.linalg.inv

        def recording_inv(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        assert branch_and_bound(model).status == SolveStatus.OPTIMAL
        assert shapes  # the guard saw the refactorizations
        assert max(shape[0] for shape in shapes) < model.num_rows


@pytest.fixture(scope="module", params=["depot", "five_trucks"])
def refactor_model(request, depot_scenario):
    """The depot fixture's model and the 5-truck synthetic one."""
    import fleetcharge as fc

    scenario = depot_scenario if request.param == "depot" \
        else fc.generate_synthetic(1, n_trucks=5)
    return fc.build_problem(scenario).model


def traced_peak(call) -> int:
    """The peak of the bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRefactorInPlace:
    """A refactorization inverts the kernel that the dense m x k assembly
    gives, writes it into the array the state holds when that has room,
    and allocates only kernel-sized temporaries."""

    def test_matches_dense_column_assembly(self, refactor_model, monkeypatch):
        prep = PreparedLP(refactor_model)
        pivots, refactors = [], []
        pivot, refactor = simplex._SimplexState._pivot, simplex._SimplexState._refactor

        def counted_pivot(self, *args, **kwargs):
            pivots.append(1)
            return pivot(self, *args, **kwargs)

        def checked_refactor(self):
            K_inv, x_B = refactor_by_dense_columns(self)
            held = self.factor.K_inv
            refactor(self)
            k = self.factor.k
            assert (self.factor.K_inv is held) == (held.shape[0] > k)  # room and a zero row
            assert np.array_equal(self.factor.K_inv[:k, :k], K_inv)
            assert np.allclose(self.x_B, x_B, rtol=0, atol=1e-9)
            refactors.append(len(pivots))

        monkeypatch.setattr(simplex._SimplexState, "_pivot", counted_pivot)
        monkeypatch.setattr(simplex._SimplexState, "_refactor", checked_refactor)
        assert prep.solve().status == SolveStatus.OPTIMAL
        # The cold start's identity counts one update, so rebuilds fall
        # after pivots 95, 191, ...
        assert refactors == list(range(95, len(pivots), 96)) and refactors

    @staticmethod
    def warm_state(model):
        """A state on the root LP's final basis that holds its kernel inverse."""
        prep = PreparedLP(model)
        root = prep.solve()
        state = simplex._SimplexState(prep, np.array(model.lower),
                                      np.array(model.upper), root.basis, root.factor)
        assert root.factor.basis is None  # taken over
        return state

    def test_overwrites_whatever_the_array_holds(self, refactor_model):
        state = self.warm_state(refactor_model)
        K_inv, x_B = refactor_by_dense_columns(state)
        held = state.factor.K_inv
        held[...] = np.random.default_rng(0).standard_normal(held.shape)
        state._refactor()
        k = state.factor.k
        assert state.factor.K_inv is held
        assert np.array_equal(held[:k, :k], K_inv)
        assert np.allclose(state.x_B, x_B, rtol=0, atol=1e-9)

    def test_refactor_allocates_less_than_one_inverse(self, refactor_model):
        state = self.warm_state(refactor_model)
        assert traced_peak(state._refactor) < 8 * state.m ** 2

    def test_branch_and_bound_holds_less_than_two_inverses(self, refactor_model):
        peak = traced_peak(lambda: branch_and_bound(refactor_model))
        assert peak < 2 * 8 * refactor_model.num_rows ** 2


class TestKernelFootprint:
    """The kernel form is what keeps a solve small: an 8-truck root LP,
    m = 1039, solves to HiGHS's optimum within a quarter of the memory of
    one dense m x m inverse."""

    def test_eight_truck_root_lp_matches_highs(self):
        pytest.importorskip("scipy")
        import fleetcharge as fc
        from highs_reference import highs_lp

        model = fc.build_problem(fc.generate_synthetic(1, n_trucks=8)).model
        prep = PreparedLP(model)
        solved = []
        peak = traced_peak(lambda: solved.append(prep.solve()))
        status, objective, _ = highs_lp(model)
        assert status == "optimal" and solved[0].status == SolveStatus.OPTIMAL
        assert solved[0].objective == pytest.approx(objective, rel=1e-9)
        assert peak < 8 * prep.m ** 2 / 4


class TestDeterminism:
    def test_identical_runs(self, depot_scenario):
        import fleetcharge as fc

        model = fc.build_problem(depot_scenario).model
        a = solve_lp(model)
        b = solve_lp(model)
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)


class TestCheckSolution:
    def test_flags_violations(self):
        model = simple_model([1.0], [(0, 10)], [([(0, 1.0)], GE, 3.0)])
        assert check_solution(model, [1.0])  # below the row
        assert check_solution(model, [11.0])  # above the bound
        assert check_solution(model, [5.0]) == []

    def test_flags_fractional_integers(self):
        model = LinearModel()
        model.add_column("y", 0, 1, integer=True)
        assert check_solution(model, [0.4])
        assert check_solution(model, [1.0]) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_vectorized_columns_match_column_loop(self, seed):
        """The same bound and integrality messages as a column-by-column
        loop: by column, a bound message before an integrality one, with
        several columns broken at once and infinite bounds."""
        rng = np.random.default_rng(seed)
        bounds = [(0.0, 1.0), (-math.inf, 5.0), (2.0, math.inf), (-3.0, 3.0),
                  (0.0, 0.0), (-math.inf, math.inf)]
        model = LinearModel()
        for j in range(24):
            lo, hi = bounds[j % len(bounds)]
            model.add_column(f"c{j}", lo, hi, integer=j % 4 != 1)
        found = []
        for scale in (0.0, 1e-7, 1e-5, 0.3, 10.0):
            x = np.round(rng.uniform(-5.0, 7.0, model.num_cols)) \
                + scale * rng.normal(size=model.num_cols)
            vectorized = check_solution(model, x)
            assert vectorized == check_solution_by_rows(model, x)
            found.append(vectorized)
        assert max(map(len, found)) >= 6
        assert any(a.startswith(b.split(" outside")[0]) and a.endswith("not integral")
                   for messages in found for b, a in zip(messages, messages[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_vectorized_rows_match_row_loop(self, seed):
        """The same messages as a row-by-row loop: every sense, a repeated
        column, empty rows, and points on both sides of each tolerance."""
        rng = np.random.default_rng(seed)
        n = 5
        model = LinearModel()
        for j in range(n):
            model.add_column(f"x{j}", -10.0, 10.0, integer=j == 0)
        x0 = rng.uniform(-4.0, 4.0, n)
        for i in range(12):
            cols = rng.choice(n, size=3, replace=False).tolist()
            if i % 4 == 3:
                cols.append(cols[0])  # a repeated column adds up
            vals = (rng.uniform(-1.0, 1.0, len(cols)) * 10.0 ** rng.integers(-1, 3)).tolist()
            lhs = sum(a * x0[j] for j, a in zip(cols, vals))
            tol = simplex.TOL_CHECK * max(1.0, *map(abs, vals))
            offset = tol * rng.choice([-3.0, -0.5, 0.0, 0.5, 3.0])
            model.add_row(f"r{i}", list(zip(cols, vals)), (LE, GE, EQ)[i % 3],
                          float(lhs + offset))
        model.add_row("empty_ok", [], GE, -1.0)
        model.add_row("empty_bad", [], LE, -1.0)

        found = []
        for scale in (0.0, 1e-8, 1e-7, 1e-6, 1e-4, 1.0, 30.0):
            x = x0 + scale * rng.normal(size=n)
            vectorized = check_solution(model, x)
            assert vectorized == check_solution_by_rows(model, x)
            found += vectorized
        assert "row empty_bad: 0 > -1.0" in found
        for relation in (" > ", " < ", " != ", "outside", "not integral"):
            assert any(relation in message for message in found), relation
