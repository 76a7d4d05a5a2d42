"""Rule-based designs and the co-design comparison."""

import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcharge as fc
from fleetcharge.baseline import (
    ExplicitDesign,
    MainDepotOnly,
    PeakDemandCover,
    compare_designs,
    parse_policy,
    rule_based_design,
)
from fleetcharge.domain import scenario_variant


class TestPolicies:
    def test_main_depot_only(self, depot_scenario):
        counts = rule_based_design(depot_scenario, MainDepotOnly(4, 2))
        assert counts == {"DEPOT": {2: 4}}

    def test_main_depot_tie_breaks_lexicographically(self, remote_scenario):
        # DC and R_FAR both see two departures; DC sorts first.
        counts = rule_based_design(remote_scenario, MainDepotOnly(1, 1))
        assert counts == {"DC": {1: 1}}

    def test_negative_count_rejected(self, depot_scenario):
        with pytest.raises(ValueError):
            rule_based_design(depot_scenario, MainDepotOnly(-1, 2))

    @pytest.mark.parametrize("policy", [PeakDemandCover(2), MainDepotOnly(1, 9)])
    def test_charger_type_outside_catalog_rejected(self, two_truck_scenario, policy):
        with pytest.raises(ValueError, match=rf"charger type {policy.charger_type_id} "
                                             r"is not in .* \(types \[1\]\)"):
            rule_based_design(two_truck_scenario, policy)

    def test_explicit_negative_rejected(self, depot_scenario, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"DEPOT": {"1": -2}}))
        with pytest.raises(fc.SchemaError, match=rf"^{re.escape(str(path))}: schema "
                                                 r"violation at DEPOT/1: -2 is less than"):
            rule_based_design(depot_scenario, ExplicitDesign(str(path)))

    def test_explicit_from_file(self, depot_scenario, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"DEPOT": {"2": 3}}))
        counts = rule_based_design(depot_scenario, ExplicitDesign(path=str(path)))
        assert counts == {"DEPOT": {2: 3}}

    def test_parse_policy_forms(self):
        assert parse_policy("main-depot-only:4:2") == MainDepotOnly(4, 2)
        assert parse_policy("peak-cover:1") == PeakDemandCover(1)
        assert parse_policy("explicit:designs/x.json").path == "designs/x.json"
        with pytest.raises(ValueError):
            parse_policy("mystery:3")

    def test_peak_cover_matches_direct_scan(self, depot_scenario):
        """Independent re-simulation of charge-on-arrival sizing."""
        type_id = 2
        counts = rule_based_design(depot_scenario, PeakDemandCover(type_id))

        charger = depot_scenario.charger(type_id)
        tau = depot_scenario.time_grid.block_duration_hours
        per_block = tau * charger.rated_power_kw
        windows = fc.charging_windows(depot_scenario)
        occupancy: dict = {}
        for (truck_id, day), legs in fc.tours(depot_scenario).items():
            truck = depot_scenario.truck(truck_id)
            soe = truck.initial_soe_kwh
            for leg in legs:
                window = windows[(truck_id, day, leg.leg_index)]
                missing = truck.battery_capacity_kwh - soe
                want = 0 if missing <= 1e-9 else math.ceil(
                    missing / per_block - 1e-9)
                used = min(want, len(window))
                for block in list(window)[:used]:
                    occupancy[(leg.origin_id, block)] = \
                        occupancy.get((leg.origin_id, block), 0) + 1
                soe = min(soe + used * per_block, truck.battery_capacity_kwh)
                tons = max(leg.payload_tons, truck.tare_tons)
                soe -= leg.distance_km * tons * truck.consumption_kwh_per_km_ton
        expected: dict = {}
        for (loc, _), n in occupancy.items():
            expected[loc] = max(expected.get(loc, 0), n)
        assert {loc: per[type_id] for loc, per in counts.items()} == expected


class TestCompareDesigns:
    def test_identical_design_zero_deltas(self, two_truck_scenario, two_truck_outcome):
        counts = two_truck_outcome.plan.charger_counts
        doc = compare_designs(two_truck_scenario, counts, rel_gap=1e-6)
        assert doc["codesign_feasible"] and doc["fixed_feasible"]
        for key, delta_pct in doc["deltas_pct"].items():
            if delta_pct is not None:
                assert abs(delta_pct / 100.0) < 1e-5, key

    def test_zero_chargers_infeasible_fixed(self, two_truck_scenario):
        doc = compare_designs(two_truck_scenario, {}, rel_gap=1e-3)
        assert doc["codesign_feasible"]
        assert not doc["fixed_feasible"]
        assert doc["deltas_pct"] is None
        assert "infeasible" in doc["finding"]

    @pytest.mark.parametrize("rel_gap", [math.nan, math.inf, -1.0])
    def test_invalid_gap_raises(self, two_truck_scenario, rel_gap):
        with pytest.raises(ValueError, match="rel_gap_target"):
            compare_designs(two_truck_scenario, {"DC": {1: 2}}, rel_gap=rel_gap)

    def test_remote_slack_boundary(self, remote_scenario):
        """Depot-only design fails at one slack block, works at two."""
        fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
        at_one = compare_designs(
            fc.validate_scenario(replace(remote_scenario, slack_blocks=1)),
            fixed, rel_gap=1e-3)
        at_two = compare_designs(
            fc.validate_scenario(replace(remote_scenario, slack_blocks=2)),
            fixed, rel_gap=1e-3)
        assert at_one["codesign_feasible"] and not at_one["fixed_feasible"]
        assert at_two["codesign_feasible"] and at_two["fixed_feasible"]

    def test_restriction_dominance(self, remote_scenario):
        fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
        scenario = fc.validate_scenario(replace(remote_scenario, slack_blocks=2))
        doc = compare_designs(scenario, fixed, rel_gap=1e-3)
        co = doc["codesign"]
        fx = doc["fixed"]
        slack = (co["gap"] or 0) * abs(co["objective"]) \
            + (fx["gap"] or 0) * abs(fx["objective"])
        assert co["objective"] <= fx["objective"] + slack + 1e-6
        assert doc["deltas_pct"]["total"] / 100.0 >= -(co["gap"] + fx["gap"]) - 1e-9

    def test_fixed_feasibility_monotone_in_slack(self, remote_scenario):
        fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
        for beta in (2, 3):
            scenario = fc.validate_scenario(replace(remote_scenario, slack_blocks=beta))
            doc = compare_designs(scenario, fixed, rel_gap=1e-3)
            assert doc["fixed_feasible"], f"slack {beta}"

    def test_comparison_document(self, remote_scenario):
        fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
        scenario = fc.validate_scenario(replace(remote_scenario, slack_blocks=2))
        doc = compare_designs(scenario, fixed, rel_gap=1e-3)
        assert doc["fixed"]["charger_counts"] == {"DC": {"2": 2}}
        assert doc["codesign"]["status"] == "optimal"
        assert set(doc["deltas_pct"]) == {"total", "energy", "infrastructure", "peak"}

    @pytest.mark.parametrize("slack_minutes, fixed_feasible", [(15, False), (30, True)])
    def test_matches_one_cell_sweep(self, remote_scenario, slack_minutes, fixed_feasible,
                                    tmp_path):
        """compare and sweep solve one (alpha, slack) cell pair alike."""
        fixed = rule_based_design(remote_scenario, MainDepotOnly(2, 2))
        scenario = fc.validate_scenario(scenario_variant(
            remote_scenario, fc.CODESIGN, slack_minutes=slack_minutes))
        doc = compare_designs(scenario, fixed, rel_gap=1e-3)
        spec = fc.SweepSpec(alphas=[remote_scenario.alpha], slack_minutes=[slack_minutes],
                            designs=[fc.CODESIGN, fc.FIXED_INFRASTRUCTURE],
                            fixed_counts=fixed, rel_gap=1e-3, out_dir=tmp_path)
        summary = fc.run_sweep(remote_scenario, spec)
        assert doc["codesign_feasible"] and doc["fixed_feasible"] is fixed_feasible
        assert [(cell["status"], cell["objective"]) for cell in summary["cells"]] == \
            [(doc[design]["status"], doc[design]["objective"])
             for design in ("codesign", "fixed")]


def gap_room(outcome) -> float:
    """How far the incumbent may sit above the optimum: gap x |objective|."""
    return outcome.solution.gap * abs(outcome.solution.objective)


class TestGeneratedScenarios:
    """Over small generated scenarios (two trucks, three locations, one
    day), every returned plan replays clean, more departure slack never
    costs more, and a fixed design never beats co-design, each within both
    solves' gaps."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_plans_replay_and_costs_are_monotone(self, seed):
        scenario = fc.generate_synthetic(seed, n_trucks=2, n_locations=3, n_days=1)
        fixed_counts = rule_based_design(scenario, MainDepotOnly(2, 2))

        def solve(design, counts, slack):
            variant = fc.validate_scenario(
                scenario_variant(scenario, design, counts, slack_minutes=slack))
            outcome = fc.solve_scenario(variant)
            if outcome.feasible:
                verdict = fc.replay(variant, outcome.plan)
                assert not verdict, [str(v) for v in verdict]
            return outcome

        codesign = {slack: solve(fc.CODESIGN, None, slack) for slack in (0, 30)}
        if codesign[0].feasible:
            tight, loose = codesign[0], codesign[30]
            assert loose.feasible
            assert loose.solution.objective <= tight.solution.objective \
                + gap_room(tight) + gap_room(loose) + 1e-6
        for slack, co in codesign.items():
            fixed = solve(fc.FIXED_INFRASTRUCTURE, fixed_counts, slack)
            if fixed.feasible:
                assert co.feasible
                assert fixed.solution.objective >= co.solution.objective \
                    - gap_room(co) - gap_room(fixed) - 1e-6
