"""Branch-and-bound and the brute-force enumeration oracle."""

from dataclasses import replace

import numpy as np
import pytest

from fleetcharge.model import GE, LE, LinearModel
from fleetcharge.solver import SolveStatus, branch_and_bound, solve_lp

from oracles import (
    TooLarge,
    brute_force_enumerate,
    knapsack_best_value,
    random_binary_milp,
)

INF = float("inf")


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
        model = LinearModel()
        model.add_column("x", 0, INF, objective=-1.0)
        y = model.add_column("y", 0, 1, integer=True)
        model.add_row("r", [(y, 1.0)], LE, 1.0)
        assert branch_and_bound(model).status == SolveStatus.UNBOUNDED

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
        scenario = fc.validate_scenario(replace(depot_scenario, slack_blocks=0))
        model = fc.build_problem(scenario).model
        for limit in (3, 7, 25):
            sol = branch_and_bound(model, rel_gap_target=0.0, node_limit=limit)
            assert sol.status == SolveStatus.FEASIBLE
            assert sol.node_count <= limit
            assert sol.gap is None or sol.gap >= 0

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
