"""Branch-and-bound and the brute-force enumeration oracle."""

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fleetcharge.model import GE, LE, LinearModel
from fleetcharge.solver import (
    INTEGRALITY_TOL,
    NumericalFailure,
    PreparedLP,
    Solution,
    SolveStatus,
    branch_and_bound,
)
from fleetcharge.solver import branch_bound as bb
from fleetcharge.solver import simplex

from oracles import (
    TooLarge,
    brute_force_enumerate,
    knapsack_best_value,
    random_binary_milp,
    run_fresh,
    scaled_matrix,
    solve_lp,
)

INF = float("inf")
FIXTURES = Path(__file__).parent / "fixtures"


def binary_cover_model():
    model = LinearModel()
    y1 = model.add_column("y1", 0, 1, objective=1.0, integer=True)
    y2 = model.add_column("y2", 0, 1, objective=2.0, integer=True)
    model.add_row("cover", [(y1, 1.0), (y2, 1.0)], GE, 1.0)
    return model


class TestBranchAndBound:
    def test_pure_lp_matches_solve_lp(self):
        model = LinearModel()
        x = model.add_column("x", 0, 10, objective=1.0)
        model.add_row("r", [(x, 1.0)], GE, 3.0)
        bnb = branch_and_bound(model, rel_gap_target=0.0)
        lp = solve_lp(model)
        assert bnb.status == SolveStatus.OPTIMAL
        assert bnb.objective == pytest.approx(lp.objective)

    def test_binary_cover(self):
        sol = branch_and_bound(binary_cover_model(), rel_gap_target=0.0)
        assert sol.objective == pytest.approx(1.0)
        assert list(sol.values) == [1.0, 0.0]

    def test_knapsack_against_dp(self):
        values = [12, 7, 11, 8, 9, 6, 5, 14, 4, 10]
        weights = [4, 3, 5, 2, 3, 2, 1, 6, 1, 4]
        capacity = 15
        model = LinearModel()
        cols = [
            model.add_column(f"y{i}", 0, 1, objective=-v, integer=True)
            for i, v in enumerate(values)
        ]
        model.add_row("cap", [(c, float(w)) for c, w in zip(cols, weights)],
                      LE, float(capacity))
        sol = branch_and_bound(model, rel_gap_target=0.0)
        assert -sol.objective == pytest.approx(
            knapsack_best_value(values, weights, capacity))

    def test_infeasible_integrality(self):
        model = LinearModel()
        y = model.add_column("y", 0, 1, objective=1.0, integer=True)
        model.add_row("r", [(y, 1.0)], GE, 2.0)
        assert branch_and_bound(model).status == SolveStatus.INFEASIBLE

    def test_unbounded(self):
        # A negative cost with no upper bound is outside the solver's input
        # class, so the search refuses the model instead of answering.
        model = LinearModel()
        model.add_column("x", 0, INF, objective=-1.0)
        y = model.add_column("y", 0, 1, integer=True)
        model.add_row("r", [(y, 1.0)], LE, 1.0)
        with pytest.raises(ValueError, match="column x has cost -1 and no finite upper"):
            branch_and_bound(model)

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_matches_enumeration(self, seed):
        model = random_binary_milp(seed)
        exact = branch_and_bound(model, rel_gap_target=0.0)
        brute = brute_force_enumerate(model)
        assert exact.status == brute.status
        if brute.status == SolveStatus.OPTIMAL:
            assert exact.objective == pytest.approx(brute.objective, abs=1e-6)

    def test_gap_and_status_semantics(self):
        sol = branch_and_bound(binary_cover_model(), rel_gap_target=0.0)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.gap <= 1e-9
        assert sol.best_bound <= sol.objective + 1e-9

    def test_node_limit_reports_feasible(self, depot_scenario):
        import fleetcharge as fc

        # At slack 0 the search meets nodes that end without branching
        # (infeasible, fathomed or integral); the limit must hold there too.
        # The plain formulation keeps a tree deeper than every limit; the
        # strengthened one reaches OPTIMAL within 7 nodes.
        scenario = fc.validate_scenario(replace(depot_scenario, slack_blocks=0))
        model = fc.build_problem(scenario, strengthen=False).model
        for limit in (3, 7, 25):
            sol = branch_and_bound(model, rel_gap_target=0.0, node_limit=limit)
            assert sol.status == SolveStatus.FEASIBLE
            assert sol.node_count <= limit
            assert sol.gap is None or sol.gap >= 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1])
    @pytest.mark.parametrize("limit, name", [
        ("rel_gap", "rel_gap_target"), ("time_limit", "time_limit"),
        ("node_limit", "node_limit")])
    def test_invalid_limit_raises(self, two_truck_scenario, limit, name, value):
        import fleetcharge as fc

        with pytest.raises(ValueError, match=name):
            fc.solve_scenario(two_truck_scenario, **{limit: value})

    def test_five_truck_fleet_at_slack0_is_optimal(self):
        import fleetcharge as fc

        # Without the fast-charger cover rows the search finds no incumbent
        # here in thousands of nodes; HiGHS gives this optimum at its root.
        scenario = fc.validate_scenario(replace(
            fc.generate_synthetic(1, n_trucks=5), slack_blocks=0))
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6, node_limit=100)
        assert outcome.solution.status == SolveStatus.OPTIMAL
        assert outcome.solution.objective == pytest.approx(54559.5102040816, rel=1e-9)
        assert outcome.plan is not None

    def test_failed_polish_is_no_incumbent(self, monkeypatch):
        # The cover model's root LP is integral, so the search polishes it
        # at once; when that LP fails, no rounded point may stand in for it,
        # and no INFEASIBLE may be claimed either: the search raises.
        solve = PreparedLP.solve

        def failing_polish(self, lower=None, upper=None, basis=None, factor=None):
            if lower is not None and np.array_equal(lower, upper):  # all fixed
                return Solution(status=SolveStatus.INFEASIBLE)
            return solve(self, lower, upper, basis, factor)

        monkeypatch.setattr(PreparedLP, "solve", failing_polish)
        with pytest.raises(NumericalFailure, match="integral node 0 ended infeasible"):
            branch_and_bound(binary_cover_model(), rel_gap_target=0.0)

    @pytest.mark.parametrize("cell, ceiling", [
        ("depot-codesign-s0", 5), ("depot-peak-cover-s4", 6), ("five-trucks-s0", 8),
    ])
    def test_plunge_dives_up(self, cell, ceiling, depot_scenario):
        """The plunge to the first incumbent takes the up child first; diving
        by the rounding direction took 7, 30 and 14 nodes on these cells."""
        import fleetcharge as fc
        from fleetcharge.baseline import parse_policy, rule_based_design

        if cell == "depot-codesign-s0":
            scenario = replace(depot_scenario, slack_blocks=0)
        elif cell == "depot-peak-cover-s4":
            scenario = replace(
                depot_scenario, slack_blocks=4, design_mode=fc.FIXED_INFRASTRUCTURE,
                fixed_counts=rule_based_design(depot_scenario, parse_policy("peak-cover:2")))
        else:
            scenario = replace(fc.generate_synthetic(1, n_trucks=5), slack_blocks=0)
        model = fc.build_problem(fc.validate_scenario(scenario)).model
        sol = branch_and_bound(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.node_count <= ceiling

    def test_trace_and_determinism(self):
        model = random_binary_milp(42)
        t1: list = []
        t2: list = []
        a = branch_and_bound(model, rel_gap_target=0.0, trace=t1)
        b = branch_and_bound(model, rel_gap_target=0.0, trace=t2)
        assert t1 == t2
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)

    def test_incumbent_monotone_in_trace(self):
        model = random_binary_milp(7)
        trace: list = []
        branch_and_bound(model, rel_gap_target=0.0, trace=trace)
        incumbents = []
        for line in trace:
            tail = line.rsplit("incumbent ", 1)[1]
            if tail != "-":
                incumbents.append(float(tail))
        assert incumbents == sorted(incumbents, reverse=True)


def dive_model(name, depot_scenario):
    import fleetcharge as fc

    if name == "depot":
        return fc.build_problem(depot_scenario).model
    return fc.build_problem(fc.generate_synthetic(1, n_trucks=5)).model


class TestFactorHandOff:
    """Node LPs and polishes that start from the basis the solve just
    before them returned take over its basis inverse."""

    @pytest.mark.parametrize("name", ["depot", "five_trucks"])
    def test_inherited_factor_matches_refactorized_solve(self, name, depot_scenario,
                                                         monkeypatch):
        model = dive_model(name, depot_scenario)
        solve = PreparedLP.solve
        calls, checked = [], []

        def solve_both(self, lower=None, upper=None, basis=None, factor=None):
            handed = factor is not None and factor.basis is basis
            calls.append(handed)
            if not handed:
                return solve(self, lower, upper, basis, factor)
            rebuilt = solve(self, lower, upper, basis)  # leaves the factor whole
            inherited = solve(self, lower, upper, basis, factor)
            assert inherited.status == rebuilt.status
            if rebuilt.status == SolveStatus.OPTIMAL:
                assert inherited.objective == pytest.approx(rebuilt.objective, rel=1e-9)
            checked.append(rebuilt.status)
            return inherited

        monkeypatch.setattr(PreparedLP, "solve", solve_both)
        sol = branch_and_bound(model)
        assert sol.status == SolveStatus.OPTIMAL
        # Every node LP after the root and every polish dives from the last solve.
        assert calls[0] is False and len(checked) == len(calls) - 1 >= sol.node_count

    def test_depot_node_lps_never_refactorize(self, depot_scenario, monkeypatch):
        model = dive_model("depot", depot_scenario)
        solve, refactor = PreparedLP.solve, simplex._SimplexState._refactor
        refactors = []  # per LP solve, root first

        def counting_solve(self, *args, **kwargs):
            refactors.append(0)
            return solve(self, *args, **kwargs)

        def counting_refactor(self):
            refactors[-1] += 1
            return refactor(self)

        monkeypatch.setattr(PreparedLP, "solve", counting_solve)
        monkeypatch.setattr(simplex._SimplexState, "_refactor", counting_refactor)
        sol = branch_and_bound(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert len(refactors) > 2 and refactors[0] >= 1  # the root pivots past REFACTOR_EVERY
        assert refactors[1:] == [0] * (len(refactors) - 1)
        assert sol.basis is None and sol.factor is None


class TestSolveCounts:
    """The work a solution reports against wrappers at the methods that do
    it, and the reason the search gives for stopping."""

    def test_depot_counts_match_recorded_calls(self, depot_scenario, monkeypatch):
        model = dive_model("depot", depot_scenario)
        calls = Counter()
        for name, key in (("_pivot", "pivots"), ("_refactor", "refactorizations")):
            original = getattr(simplex._SimplexState, name)

            def counted(self, *args, _original=original, _key=key, **kwargs):
                calls[_key] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(simplex._SimplexState, name, counted)
        solve = PreparedLP.solve

        def counted_solve(self, lower=None, upper=None, basis=None, factor=None):
            before = calls.copy()
            calls["lp_solves"] += 1
            calls["factor_handoffs"] += factor is not None and factor.basis is basis
            result = solve(self, lower, upper, basis, factor)
            # Each LP reports its own pivots and refactorizations.
            assert result.counts["pivots"] == calls["pivots"] - before["pivots"]
            assert result.counts["refactorizations"] == \
                calls["refactorizations"] - before["refactorizations"]
            return result

        monkeypatch.setattr(PreparedLP, "solve", counted_solve)
        sol = branch_and_bound(model)
        assert sol.status == SolveStatus.OPTIMAL and sol.stop_reason == "gap"
        assert {key: sol.counts[key] for key in calls} == dict(calls)
        # Every node LP after the root, and the polish, dives from the last solve.
        assert calls["factor_handoffs"] == calls["lp_solves"] - 1 > sol.node_count - 1
        assert calls["pivots"] > calls["refactorizations"] >= 1

    def test_lone_lp_counts_itself(self):
        """A lone LP solve reports every key, and one LP solve, whether it
        ends OPTIMAL or its bounds cross, as each LP of a search counts."""
        model = binary_cover_model()
        prep = PreparedLP(model)
        crossed = np.array(model.upper, dtype=float)
        crossed[0] = model.lower[0] - 1.0
        for sol in (prep.solve(), prep.solve(model.lower, crossed)):
            assert set(sol.counts) == {"lp_solves", "pivots", "refactorizations",
                                       "factor_handoffs"}
            assert sol.counts["lp_solves"] == 1

    def test_pinned_solver_work(self):
        """(nodes, lp_solves, pivots, refactorizations, factor_handoffs) of
        the search at rel_gap_target=1e-2 on three rungs, and (pivots,
        refactorizations) of the 8-truck root LP, as recorded before the
        kernel inverse moved into one factor object. They depend on the
        BLAS thread count (its summation order moves simplex ties), so a
        fresh interpreter runs them on one BLAS thread, as the benchmark
        does. They were recorded with numpy 2.4 on its bundled OpenBLAS
        0.3.31; another BLAS build may order its sums differently.
        A change that moves these numbers on purpose (dual steepest edge,
        block-LU updates, a new branching rule) re-records them and
        reports the difference per rung in CHANGES.md."""
        code = (
            "import json\n"
            "from dataclasses import replace\n"
            "import fleetcharge as fc\n"
            "from fleetcharge.solver import PreparedLP, branch_and_bound\n"
            f"depot = fc.load_scenario({str(FIXTURES / 'depot_fixture.json')!r})\n"
            "rungs = {'depot': depot,\n"
            "         'depot_slack_0': fc.validate_scenario(replace(depot, slack_blocks=0)),\n"
            "         'five_trucks': fc.generate_synthetic(1, n_trucks=5)}\n"
            "work = {}\n"
            "for name, scenario in rungs.items():\n"
            "    s = branch_and_bound(fc.build_problem(scenario).model, rel_gap_target=1e-2)\n"
            "    work[name] = [s.node_count, *(s.counts[key] for key in\n"
            "        ('lp_solves', 'pivots', 'refactorizations', 'factor_handoffs'))]\n"
            "model = fc.build_problem(fc.generate_synthetic(1, n_trucks=8)).model\n"
            "root = PreparedLP(model).solve()\n"
            "work['eight_trucks_root'] = [root.counts['pivots'],\n"
            "                             root.counts['refactorizations']]\n"
            "print(json.dumps(work))\n")
        result = run_fresh(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                           MKL_NUM_THREADS="1")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "depot": [7, 8, 143, 1, 7],
            "depot_slack_0": [4, 5, 151, 1, 4],
            "five_trucks": [11, 12, 281, 2, 11],
            "eight_trucks_root": [521, 5],
        }

    def test_suite_runs_on_one_blas_thread(self):
        """conftest.py pins one BLAS thread before numpy loads, so in this
        process too the 8-truck root LP does the work pinned above. With
        two threads, on a 2-core machine, it takes 525 pivots."""
        import fleetcharge as fc

        model = fc.build_problem(fc.generate_synthetic(1, n_trucks=8)).model
        root = PreparedLP(model).solve()
        assert [root.counts["pivots"], root.counts["refactorizations"]] == [521, 5]

    def test_plan_reports_the_counts(self, depot_base_outcome):
        solution, info = depot_base_outcome.solution, depot_base_outcome.plan.solver_info
        for key in ("lp_solves", "pivots", "refactorizations", "factor_handoffs"):
            assert info[key] == solution.counts[key]
        assert info["stop_reason"] == solution.stop_reason
        assert info["lp_solves"] > info["nodes"] and info["pivots"] > 0

    @pytest.mark.parametrize("limits, status, reason", [
        ({}, SolveStatus.OPTIMAL, "exhausted"),
        ({"node_limit": 0}, SolveStatus.FEASIBLE, "node_limit"),
        ({"time_limit": 0.0}, SolveStatus.FEASIBLE, "time_limit"),
    ])
    def test_stop_reason(self, limits, status, reason):
        trace = []
        sol = branch_and_bound(binary_cover_model(), rel_gap_target=0.0, trace=trace,
                               **limits)
        assert (sol.status, sol.stop_reason) == (status, reason)
        assert trace[-1].startswith(f"stop {reason} nodes {sol.node_count} incumbent ")

    def test_stop_reason_gap_and_infeasible(self, depot_scenario):
        assert branch_and_bound(dive_model("depot", depot_scenario)).stop_reason == "gap"
        # 0.4 <= y <= 0.6 holds no integer.
        model = LinearModel()
        y = model.add_column("y", 0, 1, objective=1.0, integer=True)
        model.add_row("low", [(y, 1.0)], GE, 0.4)
        model.add_row("high", [(y, 1.0)], LE, 0.6)
        trace = []
        sol = branch_and_bound(model, trace=trace)
        assert (sol.status, sol.stop_reason) == (SolveStatus.INFEASIBLE, "infeasible")
        assert trace[-1] == f"stop infeasible nodes {sol.node_count} incumbent -"
        assert sol.counts["lp_solves"] == sol.node_count == 3


class TestDualOptimality:
    """Every LP is one dual simplex, with no primal pass after it to
    repair a basis the dual left dual infeasible."""

    @pytest.mark.parametrize("name", ["depot", "five_trucks"])
    def test_every_lp_ends_dual_feasible(self, name, depot_scenario, monkeypatch):
        """Dual pivots alone must end at an optimal basis: reduced costs
        recomputed from each returned basis by a dense solve, not the
        loop's running ones, have the sign of their column's bound within
        1e-9 (scaled costs)."""
        model = dive_model(name, depot_scenario)
        solve = PreparedLP.solve
        checked = []
        A = scaled_matrix(model)  # dense reference for the solver's stored A
        full = np.hstack([A, np.eye(A.shape[0])])

        def checking_solve(self, lower=None, upper=None, basis=None, factor=None):
            result = solve(self, lower, upper, basis, factor)
            if result.status != SolveStatus.OPTIMAL:
                return result
            basic, at_upper = result.basis.basic, result.basis.at_upper
            y = np.linalg.solve(full[:, basic].T, self.c_real[basic])
            z = self.c_real - np.concatenate([y @ A, y])
            lo = np.concatenate([lower, self.slack_lower])
            hi = np.concatenate([upper, self.slack_upper])
            nonbasic = hi > lo  # movable, then not basic
            nonbasic[basic] = False
            assert np.all(z[nonbasic & ~at_upper] >= -1e-9)
            assert np.all(z[nonbasic & at_upper] <= 1e-9)
            assert np.all(np.abs(z[basic]) <= 1e-9)
            checked.append(result.objective)
            return result

        monkeypatch.setattr(PreparedLP, "solve", checking_solve)
        sol = branch_and_bound(model)
        assert sol.status == SolveStatus.OPTIMAL
        assert len(checked) >= sol.node_count  # every node LP and the polish


def most_fractional_loop(values, int_cols, priorities):
    """The per-column loop the vectorized branching rule replaced."""
    best_col, best_key = None, None
    for j in int_cols:
        frac = abs(values[j] - round(values[j]))
        if frac <= INTEGRALITY_TOL:
            continue
        key = (priorities[j], frac)
        if best_key is None or key > best_key:
            best_key, best_col = key, j
    return best_col


class TestVectorizedRounding:
    """The numpy branching rule and polish rounding against the loops
    they replaced: same column, bit-identical bounds."""

    @pytest.mark.parametrize("seed", range(30))
    def test_most_fractional_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        # Halves, near-integers and exact ties across priority classes.
        values = rng.choice([0.5, 1.5, -0.5, 2.0, 3.0000001, 0.25, -1.75], n)
        noisy = rng.random(n) < 0.3
        values[noisy] = rng.uniform(-5, 5, np.count_nonzero(noisy))
        int_cols = np.sort(rng.choice(n, size=25, replace=False))
        priorities = rng.integers(0, 3, n)
        assert bb._most_fractional(values, int_cols, priorities) == \
            most_fractional_loop(values, int_cols.tolist(), priorities.tolist())

    def test_integral_values_do_not_branch(self):
        values = np.array([1.0, -2.0, 0.0000001, 3.5])
        priorities = np.zeros(4, dtype=int)
        assert bb._most_fractional(values, np.array([0, 1, 2]), priorities) is None
        assert bb._most_fractional(values, np.array([], dtype=int), priorities) is None

    def test_polish_rounding_matches_loop(self):
        values = np.array([-0.3, -0.5, 0.5, 1.5, 2.4999, -1.5000001, 7.25, 0.7])
        int_cols = np.array([0, 1, 2, 3, 4, 5, 7])
        seen = []

        class FailingLP:  # records the fixed bounds, then fails the polish LP
            def solve(self, lo, hi, basis, factor):
                seen.append((lo, hi))
                return Solution(status=SolveStatus.INFEASIBLE)

        lo, hi = np.full(8, -10.0), np.full(8, 10.0)
        with pytest.raises(NumericalFailure, match="integral node 7 "):
            bb._polish(FailingLP(), int_cols, lo, hi,
                       Solution(SolveStatus.OPTIMAL, values=values), None, 7)
        expected_lo, expected_hi = lo.copy(), hi.copy()
        for j in int_cols:  # the loop _polish replaced
            expected_lo[j] = expected_hi[j] = float(round(values[j]))
        for got, want in zip(seen[0], (expected_lo, expected_hi)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # no -0.0


class TestBruteForce:
    def test_no_integers_is_single_lp(self):
        model = LinearModel()
        x = model.add_column("x", 0, 4, objective=-1.0)
        model.add_row("r", [(x, 1.0)], LE, 3.0)
        sol = brute_force_enumerate(model)
        assert sol.objective == pytest.approx(-3.0)

    def test_two_binary_example(self):
        sol = brute_force_enumerate(binary_cover_model())
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert list(sol.values) == [1.0, 0.0]

    def test_too_many_columns(self):
        model = LinearModel()
        for i in range(21):
            model.add_column(f"y{i}", 0, 1, integer=True)
        with pytest.raises(TooLarge):
            brute_force_enumerate(model, max_binaries=20)

    def test_unbounded_integer_range(self):
        model = LinearModel()
        model.add_column("n", 0, INF, objective=1.0, integer=True)
        with pytest.raises(TooLarge):
            brute_force_enumerate(model)

    def test_assignment_cap(self):
        model = LinearModel()
        for i in range(4):
            model.add_column(f"n{i}", 0, 100, objective=1.0, integer=True)
        with pytest.raises(TooLarge):
            brute_force_enumerate(model, max_assignments=1000)

    def test_mixed_integer_continuous(self):
        model = LinearModel()
        x = model.add_column("x", 0, 3.7, objective=-1.0)
        n = model.add_column("n", 0, 5, objective=-10.0, integer=True)
        model.add_row("r", [(x, 1.0), (n, 1.0)], LE, 6.0)
        sol = brute_force_enumerate(model)
        assert sol.objective == pytest.approx(-51.0)

    def test_two_truck_fixture_oracle_run(self, two_truck_scenario, two_truck_outcome):
        """The enumeration oracle certifies the fixture's incumbent."""
        import fleetcharge as fc

        plain = fc.build_problem(two_truck_scenario, strengthen=False)
        brute = brute_force_enumerate(plain.model)
        assert brute.status == SolveStatus.OPTIMAL
        assert two_truck_outcome.solution.objective == pytest.approx(
            brute.objective, abs=1e-6)
