"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Tolerances are pinned here, not configured elsewhere. Headline magnitudes
from published case studies depend on confidential data and are out of
scope; these criteria check solver exactness, end-to-end fidelity, and
qualitative trends on the bundled synthetic fixtures.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import fleetcharge as fc
from fleetcharge.baseline import MainDepotOnly, compare_designs, rule_based_design
from fleetcharge.scenario_io import (
    scenario_from_dict,
    scenario_to_dict,
    validate_against_schema,
)
from fleetcharge.solver import SolveStatus, branch_and_bound
from fleetcharge.sweep import SweepSpec, run_sweep

from oracles import brute_force_enumerate, random_binary_milp

FIXTURES = Path(__file__).parent / "fixtures"


def ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE PASS [{criterion}]: {detail}")


def abs_slack(outcome) -> float:
    gap = outcome.solution.gap or 0.0
    return gap * abs(outcome.solution.objective)


def test_criterion_1_solver_exactness():
    """Branch-and-bound equals brute-force enumeration on 50 random MILPs."""
    start = time.perf_counter()
    checked = 0
    for seed in range(100, 150):
        model = random_binary_milp(seed)
        assert len(model.integer_cols) <= 12
        assert model.num_rows <= 10
        exact = branch_and_bound(model, rel_gap_target=0.0)
        brute = brute_force_enumerate(model)
        assert exact.status == brute.status, f"seed {seed}"
        if brute.status == SolveStatus.OPTIMAL:
            assert abs(exact.objective - brute.objective) <= 1e-6, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok("1 solver exactness",
       f"50 random MILPs matched enumeration within 1e-6 in {elapsed:.2f}s")


def test_criterion_2_end_to_end_fidelity(depot_scenario):
    """Fresh 1%-gap solve of the bundled fixture: clean replay, cost match."""
    start = time.perf_counter()
    outcome = fc.solve_scenario(depot_scenario, rel_gap=0.01)
    elapsed = time.perf_counter() - start
    assert outcome.solution.status == SolveStatus.OPTIMAL
    assert outcome.solution.gap <= 0.01
    assert elapsed < 60.0, f"took {elapsed:.1f}s"

    verdict = fc.replay(depot_scenario, outcome.plan)
    assert not verdict, [str(v) for v in verdict]
    recomputed = fc.recompute_costs(depot_scenario, outcome.plan)
    assert abs(recomputed.total - outcome.solution.objective) <= 1e-6
    ok("2 end-to-end fidelity",
       f"optimal in {elapsed:.1f}s, replay clean, validator total within 1e-6")


def test_criterion_5_slack_monotonicity(depot_lab):
    """Optimal objective nonincreasing over slack blocks {0, 1, 2, 4}."""
    outcomes = [depot_lab.solve(slack_blocks=beta) for beta in (0, 1, 2, 4)]
    for o in outcomes:
        assert o.solution.status == SolveStatus.OPTIMAL
    objectives = [o.solution.objective for o in outcomes]
    for before, after in zip(outcomes, outcomes[1:]):
        slack = abs_slack(before) + abs_slack(after)
        assert after.solution.objective <= before.solution.objective + slack + 1e-6
    ok("5 slack monotonicity",
       "objectives " + " >= ".join(f"{v:.2f}" for v in objectives))


def test_criterion_4_restriction_dominance(depot_scenario, depot_lab):
    """Co-design never loses to a feasible fixed design, cell by cell."""
    fixed_counts = rule_based_design(depot_scenario, MainDepotOnly(2, 2))
    cells = []
    for alpha in (1.0, 2.0):
        for beta in (0, 1):
            codesign = depot_lab.solve(alpha=alpha, slack_blocks=beta)
            fixed = depot_lab.solve(alpha=alpha, slack_blocks=beta,
                                    design=fc.FIXED_INFRASTRUCTURE,
                                    fixed_counts=fixed_counts)
            assert fixed.feasible, f"fixed design infeasible at {alpha}, {beta}"
            slack = abs_slack(codesign) + abs_slack(fixed)
            assert codesign.solution.objective <= \
                fixed.solution.objective + slack + 1e-6, (alpha, beta)
            cells.append((alpha, beta, codesign.solution.objective,
                          fixed.solution.objective))
    ok("4 restriction dominance",
       "; ".join(f"a={a} b={b}: {c:.0f} <= {f:.0f}" for a, b, c, f in cells))


def test_criterion_6_alpha_trends(depot_lab):
    """Rising peak weight: peak level never rises, total never falls."""
    alphas = (0.5, 1.0, 2.0, 4.0)
    outcomes = [depot_lab.solve(alpha=a) for a in alphas]
    for o in outcomes:
        assert o.solution.status == SolveStatus.OPTIMAL

    peak_levels = [o.plan.costs.peak / a for o, a in zip(outcomes, alphas)]
    totals = [o.solution.objective for o in outcomes]
    installed = []
    for o in outcomes:
        scenario = depot_lab.scenario
        installed.append(sum(
            scenario.charger(tid).rated_power_kw * n
            for per in o.plan.charger_counts.values()
            for tid, n in per.items()))

    for i in range(len(alphas) - 1):
        eps = abs_slack(outcomes[i]) + abs_slack(outcomes[i + 1])
        d_alpha = alphas[i + 1] - alphas[i]
        assert peak_levels[i + 1] <= peak_levels[i] + eps / d_alpha + 1e-6
        assert totals[i + 1] >= totals[i] - eps - 1e-6
        assert installed[i + 1] <= installed[i] + 1e-9
    ok("6 alpha trends",
       f"peak levels {peak_levels}, totals {[round(t, 1) for t in totals]}, "
       f"installed kW {installed}")


def test_criterion_3_epigraph_tightness(depot_lab):
    """Peak epigraph equals the literal max-over-blocks at every optimum."""
    checked = 0
    for outcome in list(depot_lab.cache.values()):
        if outcome.plan is None or outcome.solution.status != SolveStatus.OPTIMAL:
            continue
        scenario_alpha = outcome.plan.alpha
        if scenario_alpha <= 0:
            continue
        if outcome.plan.design_mode != fc.CODESIGN:
            continue  # epigraph columns exist in both; codesign cells suffice
        variant = depot_lab.variant(
            alpha=outcome.plan.alpha, slack_blocks=outcome.plan.slack_blocks,
            design=fc.CODESIGN)
        peaks = fc.location_peaks_kw(variant, outcome.plan)
        values = outcome.solution.values
        price = variant.price_schedule.peak_price_per_kw
        for location, col in outcome.build.catalog.c_peak.items():
            expected = price * peaks[location]
            floor = outcome.build.catalog.peak_floor.get(location, 0.0)
            assert values[col] == pytest.approx(max(expected, floor), abs=1e-6), \
                (location, outcome.plan.alpha)
            assert values[col] >= expected - 1e-6
        checked += 1
    assert checked >= 5
    ok("3 epigraph tightness",
       f"{checked} optimal solves: C_peak equals price x literal max power")


def test_criterion_7_infeasibility_finding(remote_scenario):
    """Depot-only plans fail at the smallest slack; co-design does not."""
    fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
    at_one = compare_designs(
        fc.validate_scenario(replace(remote_scenario, slack_blocks=1)),
        fixed, rel_gap=1e-3)
    at_two = compare_designs(
        fc.validate_scenario(replace(remote_scenario, slack_blocks=2)),
        fixed, rel_gap=1e-3)
    assert not at_one["fixed_feasible"]
    assert at_one["codesign_feasible"]
    assert "infeasible" in at_one["finding"]
    assert at_two["fixed_feasible"] and at_two["codesign_feasible"]
    remote_counts = at_one["codesign"]["charger_counts"]
    assert any(loc != "DC" for loc in remote_counts), \
        "co-design should place chargers beyond the depot"
    ok("7 infeasibility finding",
       f"fixed infeasible at 1 slack block, feasible at 2; "
       f"co-design feasible at 1 using {remote_counts}")


def test_criterion_8_sweep_determinism(two_truck_scenario, tmp_path):
    """Two sweeps produce byte-identical CSV outputs."""
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        spec = SweepSpec(
            alphas=[0.5, 1.0], slack_minutes=[0, 15], designs=[fc.CODESIGN],
            rel_gap=1e-3, out_dir=out)
        run_sweep(two_truck_scenario, spec)
        digests.append(tuple(
            (name, (out / name).read_bytes())
            for name in ("infrastructure.csv", "costs.csv", "power_curves.csv")))
    assert digests[0] == digests[1]
    ok("8 determinism", "two sweep runs produced byte-identical CSVs")


def test_criterion_9_format_round_trip():
    """Scenario files reload identically and all fixtures satisfy schemas."""
    for name in ("depot_fixture.json", "two_truck.json", "remote_variant.json"):
        with open(FIXTURES / name) as fh:
            doc = json.load(fh)
        validate_against_schema(doc, "scenario")
        scenario = scenario_from_dict(doc)
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario, name
    ok("9 format round-trip",
       "3 fixtures validate against the schema and reload identically")
