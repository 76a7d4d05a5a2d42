"""Independent replay and cost recomputation."""

import csv
import json
from dataclasses import replace

import pytest

import fleetcharge as fc
from fleetcharge.scenario_io import validate_against_schema
from fleetcharge.validator import (
    ChargeEvent,
    CostBreakdown,
    PlanReport,
    decode_plan,
    plan_to_dict,
    recompute_costs,
    replay,
    write_plan_json,
    write_power_curves_csv,
)

from oracles import objective_breakdown
from test_domain import make_leg, minimal_scenario


class TestReplay:
    def test_solver_plan_replays_clean(self, two_truck_scenario, two_truck_outcome):
        verdict = replay(two_truck_scenario, two_truck_outcome.plan)
        assert not verdict, [str(v) for v in verdict]

    def test_depot_plan_replays_clean(self, depot_scenario, depot_base_outcome):
        verdict = replay(depot_scenario, depot_base_outcome.plan)
        assert not verdict

    def test_moved_event_is_exactly_one_window_violation(
            self, two_truck_scenario, two_truck_outcome):
        plan = two_truck_outcome.plan
        windows = fc.charging_windows(two_truck_scenario)
        events = list(plan.events)
        victim = events[0]
        key = (victim.truck_id, victim.day, victim.leg_index)
        bad_block = windows[key].start - 1
        assert bad_block < windows[key].start
        events[0] = replace(victim, block=bad_block)
        tampered = replace(plan, events=tuple(events))
        verdict = replay(two_truck_scenario, tampered)
        windowish = [v for v in verdict if v.code == "WindowViolation"]
        assert len(windowish) == 1
        assert victim.truck_id in windowish[0].message

    def test_dropped_event_is_energy_violation(
            self, two_truck_scenario, two_truck_outcome):
        plan = two_truck_outcome.plan
        events = list(plan.events)
        victim = events.pop(0)
        tampered = replace(plan, events=tuple(events))
        verdict = replay(two_truck_scenario, tampered)
        energy = [v for v in verdict if v.code == "EnergyViolation"]
        assert energy
        assert victim.truck_id in energy[0].message
        assert f"leg {victim.leg_index}" in energy[0].message

    def test_overfull_battery_flagged(self):
        truck = fc.Truck("T1", 150.0, 0.12, 140.0)
        leg = make_leg(dep_min=30, arr_min=90)
        scenario = fc.validate_scenario(minimal_scenario(
            legs=[leg], trucks=(truck,),
            chargers=(fc.ChargerType(2, 180.0, 50000.0, 0.98),)))
        plan = PlanReport(
            design_mode="codesign", alpha=1.0, slack_blocks=0,
            charger_counts={"DC": {2: 1}},
            events=(ChargeEvent("T1", 0, 1, 0, "DC", 2, 45.0),),
            departures=(), costs=CostBreakdown(0, 0, 0, 0),
            power_by_type={}, solver_info={})
        verdict = replay(scenario, plan)
        assert any(v.code == "BatteryViolation" for v in verdict)

    def test_capacity_violation(self, two_truck_scenario, two_truck_outcome):
        plan = two_truck_outcome.plan
        shrunk = {loc: {t: 1 for t in per} for loc, per in plan.charger_counts.items()}
        tampered = replace(plan, charger_counts=shrunk)
        verdict = replay(two_truck_scenario, tampered)
        assert any(v.code == "CapacityViolation" for v in verdict)

    def test_multi_charger_violation(self):
        truck = fc.Truck("T1", 400.0, 0.12, 200.0)
        leg = make_leg(dep_min=30, arr_min=90)
        scenario = fc.validate_scenario(minimal_scenario(
            legs=[leg], trucks=(truck,),
            chargers=(fc.ChargerType(1, 60.0, 20000.0, 0.98),
                      fc.ChargerType(2, 180.0, 50000.0, 0.98))))
        events = (
            ChargeEvent("T1", 0, 1, 0, "DC", 1, 15.0),
            ChargeEvent("T1", 0, 1, 0, "DC", 2, 45.0),
        )
        plan = PlanReport(
            design_mode="codesign", alpha=1.0, slack_blocks=0,
            charger_counts={"DC": {1: 1, 2: 1}}, events=events,
            departures=(), costs=CostBreakdown(0, 0, 0, 0),
            power_by_type={}, solver_info={})
        verdict = replay(scenario, plan)
        assert any(v.code == "MultiChargerViolation" for v in verdict)

    def test_wrong_location_event_flagged(self, two_truck_scenario, two_truck_outcome):
        plan = two_truck_outcome.plan
        events = list(plan.events)
        events[0] = replace(events[0], location_id="R1")
        verdict = replay(two_truck_scenario, replace(plan, events=tuple(events)))
        assert any(v.code == "ReferenceViolation" for v in verdict)

    def test_late_departure_flagged(self, two_truck_scenario, two_truck_outcome):
        plan = two_truck_outcome.plan
        deps = [replace(d, actual_block=d.actual_block + 10.0)
                for d in plan.departures]
        tampered = replace(plan, departures=tuple(deps))
        verdict = replay(two_truck_scenario, tampered)
        assert any(v.code == "DepartureViolation" for v in verdict)


    @pytest.mark.parametrize("tamper", ["leg", "charger_type", "energy", "departure"])
    def test_tampered_field_is_flagged(self, tamper, depot_scenario, depot_base_outcome):
        """Replay checks that no solved plan trips, each on one tampered
        field of the depot plan."""
        plan = depot_base_outcome.plan
        events, departures = list(plan.events), list(plan.departures)
        victim = events[0]
        if tamper == "leg":
            events[0] = replace(victim, leg_index=9)
            expected = ("ReferenceViolation", "event references unknown leg "
                        f"{(victim.truck_id, victim.day, 9)}")
        elif tamper == "charger_type":
            events[0] = replace(victim, charger_type_id=99)
            expected = ("ReferenceViolation", "event references unknown charger type 99")
        elif tamper == "energy":
            events[0] = replace(victim, energy_kwh=victim.energy_kwh + 1.0)
            expected = ("EnergyViolation", f"event energy {victim.energy_kwh + 1.0} kWh "
                        f"does not match block x rated power = {victim.energy_kwh} kWh")
        else:
            # Leg 2 leaves a block before leg 1's departure plus its travel.
            first_leg = fc.tours(depot_scenario)[("T01", 0)][0]
            first, second = departures[:2]
            assert (first.leg_index, second.leg_index) == (1, 2)
            floor = first.actual_block + depot_scenario.time_grid.travel_blocks(first_leg)
            departures[1] = replace(second, actual_block=floor - 1.0)
            expected = ("DepartureViolation", f"truck T01 day 0 leg 2: departs at "
                        f"{floor - 1.0}, before earliest possible {floor}")
        tampered = replace(plan, events=tuple(events), departures=tuple(departures))
        assert expected in [(v.code, v.message) for v in replay(depot_scenario, tampered)]

    def test_infeasible_solution_is_not_decoded(self, depot_scenario, depot_base_outcome):
        with pytest.raises(ValueError, match="cannot decode an infeasible solution"):
            decode_plan(depot_scenario, depot_base_outcome.build.catalog,
                        fc.Solution(status=fc.SolveStatus.INFEASIBLE))

    def test_fixed_plan_must_build_the_design(self, two_truck_scenario):
        # No leg departs R1, so dropping its charger frees no used capacity.
        scenario = fc.validate_scenario(replace(
            two_truck_scenario, design_mode=fc.FIXED_INFRASTRUCTURE,
            fixed_counts={"DC": {1: 2}, "R1": {1: 1}}))
        plan = fc.solve_scenario(scenario).plan
        assert not replay(scenario, plan)
        tampered = replace(plan, charger_counts={"DC": {1: 3}})
        verdict = replay(scenario, tampered)
        assert [str(v) for v in verdict] == [
            "[DesignViolation] DC: 3 type-1 chargers built, but the fixed "
            "design has 2",
            "[DesignViolation] R1: 0 type-1 chargers built, but the fixed "
            "design has 1",
        ]

class TestRecompute:
    def test_empty_plan_costs_zero(self, two_truck_scenario):
        plan = PlanReport(
            design_mode="codesign", alpha=1.0, slack_blocks=0,
            charger_counts={}, events=(), departures=(),
            costs=CostBreakdown(0, 0, 0, 0), power_by_type={}, solver_info={})
        costs = recompute_costs(two_truck_scenario, plan)
        assert costs == CostBreakdown(0.0, 0.0, 0.0, 0.0)

    def test_single_event_energy_price(self):
        truck = fc.Truck("T1", 400.0, 0.12, 200.0)
        scenario = fc.validate_scenario(minimal_scenario(
            legs=[make_leg(dep_min=30, arr_min=90)], trucks=(truck,),
            chargers=(fc.ChargerType(2, 180.0, 50000.0, 0.98),)))
        plan = PlanReport(
            design_mode="codesign", alpha=1.0, slack_blocks=0,
            charger_counts={}, events=(ChargeEvent("T1", 0, 1, 0, "DC", 2, 45.0),),
            departures=(), costs=CostBreakdown(0, 0, 0, 0),
            power_by_type={}, solver_info={})
        costs = recompute_costs(scenario, plan)
        assert costs.energy == pytest.approx(9.1837, abs=1e-4)

    def test_breakdown_matches_solver_objective(
            self, two_truck_scenario, two_truck_outcome):
        costs = recompute_costs(two_truck_scenario, two_truck_outcome.plan)
        assert costs.total == pytest.approx(
            two_truck_outcome.solution.objective, abs=1e-6)

    def test_breakdown_matches_model_decomposition(
            self, two_truck_scenario, two_truck_outcome):
        model_side = objective_breakdown(
            two_truck_scenario, two_truck_outcome.build.catalog,
            two_truck_outcome.solution.values)
        validator_side = recompute_costs(two_truck_scenario, two_truck_outcome.plan)
        assert validator_side.energy == pytest.approx(model_side["energy"], abs=1e-6)
        assert validator_side.infrastructure == pytest.approx(
            model_side["infrastructure"], abs=1e-6)
        assert validator_side.peak == pytest.approx(model_side["peak"], abs=1e-6)


class TestSerialization:
    def test_plan_json_schema(self, two_truck_outcome, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_json(two_truck_outcome.plan, path, amortize_ratio=1 / 3650)
        with open(path) as fh:
            doc = json.load(fh)
        validate_against_schema(doc, "plan_report")
        assert doc["costs_amortized"]["amortization_ratio"] == pytest.approx(1 / 3650)

    def test_plan_json_is_one_sorted_indented_document(self, two_truck_outcome, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_json(two_truck_outcome.plan, path, amortize_ratio=1 / 3650)
        doc = plan_to_dict(two_truck_outcome.plan, 1 / 3650)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_power_curves_csv(self, two_truck_scenario, two_truck_outcome, tmp_path):
        path = tmp_path / "curves.csv"
        write_power_curves_csv(two_truck_scenario, two_truck_outcome.plan, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["location", "day", "block"]
        assert header[-1] == "kw_total"
        grid = two_truck_scenario.time_grid
        assert len(lines) - 1 == len(two_truck_scenario.location_ids) * grid.total_blocks

    def test_power_totals_match_block_loop(self, depot_scenario, depot_base_outcome,
                                           tmp_path):
        """plan.json's total curves, the CSV's kw_total and the peaks all
        print the per-block sum over the catalog's types, from 0."""
        plan = depot_base_outcome.plan
        type_ids = [c.id for c in depot_scenario.charger_catalog]
        assert len(type_ids) > 1
        blocks = depot_scenario.time_grid.total_blocks
        expected = {}
        for location in depot_scenario.location_ids:
            by_type = plan.power_by_type[location]
            expected[location] = []
            for t in range(blocks):
                total = 0
                for tid in type_ids:
                    total += by_type[tid][t]
                expected[location].append(total)
        doc = plan_to_dict(plan)
        assert {loc: doc["power_curves"][loc]["total"] for loc in expected} == expected
        path = tmp_path / "curves.csv"
        write_power_curves_csv(depot_scenario, plan, path)
        with open(path) as fh:
            written = [(row["location"], row["kw_total"]) for row in csv.DictReader(fh)]
        assert written == [(loc, repr(v)) for loc in depot_scenario.location_ids
                           for v in expected[loc]]
        assert fc.location_peaks_kw(depot_scenario, plan) == {
            loc: max(totals) for loc, totals in expected.items()}

    def test_power_curves_csv_rows_match_block_loop(self, depot_scenario,
                                                   depot_base_outcome, tmp_path):
        """Every row of the two-day depot plan's CSV: location, day, block
        of the day, each type's kW and their sum from 0, per block. A plan
        without curves writes zeros."""
        grid = depot_scenario.time_grid
        assert grid.num_days == 2
        type_ids = [c.id for c in depot_scenario.charger_catalog]
        path = tmp_path / "curves.csv"
        for plan in (depot_base_outcome.plan,
                     replace(depot_base_outcome.plan, power_by_type={})):
            expected = []
            for location in depot_scenario.location_ids:
                for t in range(grid.total_blocks):
                    day, block = divmod(t, grid.blocks_per_day)
                    per_type = [plan.power_by_type[location][tid][t]
                                if plan.power_by_type else 0.0 for tid in type_ids]
                    total = 0
                    for value in per_type:
                        total += value
                    expected.append([location, str(day), str(block),
                                     *map(repr, per_type), repr(total)])
            write_power_curves_csv(depot_scenario, plan, path)
            with open(path, newline="") as fh:
                written = list(csv.reader(fh))
            assert written[0] == ["location", "day", "block",
                                  *[f"kw_type_{tid}" for tid in type_ids], "kw_total"]
            assert written[1:] == expected

    def test_events_canonically_ordered(self, two_truck_outcome):
        events = two_truck_outcome.plan.events
        keys = [(e.truck_id, e.day, e.leg_index, e.block, e.charger_type_id)
                for e in events]
        assert keys == sorted(keys)

    def test_plan_dict_counts_are_strings(self, two_truck_outcome):
        doc = plan_to_dict(two_truck_outcome.plan)
        for per in doc["charger_counts"].values():
            assert all(isinstance(k, str) for k in per)