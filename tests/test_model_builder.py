"""Model construction: energy, schedule, capacity and peak semantics.

Constraint behavior is checked by solving tiny crafted instances and
inspecting the decoded plans, with brute-force enumeration as the ground
truth wherever the spec of a rule is subtle.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import fleetcharge as fc
from fleetcharge.builder import build_problem, energy_consumption
from fleetcharge.domain import scenario_variant
from fleetcharge.model import EQ, GE, LE, LinearModel, Row
from fleetcharge.solver import PreparedLP, SolveStatus, branch_and_bound

from oracles import brute_force_enumerate, objective_breakdown
from test_domain import make_leg, minimal_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def crafted(legs, chargers, trucks, slack_blocks=0, peak_price=10.0,
            price=0.2, locations=("DC", "R1"), **kwargs):
    scenario = minimal_scenario(
        legs=legs, trucks=trucks, chargers=chargers,
        locations=locations, slack_blocks=slack_blocks, **kwargs)
    prices = fc.PriceSchedule(
        energy_price_per_kwh=tuple(
            tuple(price for _ in range(scenario.time_grid.total_blocks))
            for _ in chargers),
        peak_price_per_kw=peak_price,
    )
    scenario = replace(scenario, price_schedule=prices)
    return fc.validate_scenario(scenario)


class TestEnergyConsumption:
    def test_direct_product(self):
        leg = make_leg(km=100.0, tons=10.0)
        truck = fc.Truck("T", 600.0, 0.13, 600.0)
        assert energy_consumption(leg, truck) == pytest.approx(130.0)

    def test_zero_distance(self):
        leg = make_leg(km=0.0, tons=10.0)
        truck = fc.Truck("T", 600.0, 0.13, 600.0)
        assert energy_consumption(leg, truck) == 0.0

    def test_heavy_leg(self):
        leg = make_leg(km=250.0, tons=16.0)
        truck = fc.Truck("T", 600.0, 0.10, 600.0)
        assert energy_consumption(leg, truck) == pytest.approx(400.0)

    def test_empty_leg_uses_tare(self):
        leg = make_leg(km=100.0, tons=0.0)
        truck = fc.Truck("T", 600.0, 0.13, 600.0, tare_tons=1.5)
        assert energy_consumption(leg, truck) == pytest.approx(100 * 1.5 * 0.13)


class TestBuildShape:
    def test_empty_scenario_builds_empty_model(self):
        scenario = minimal_scenario()
        build = build_problem(scenario)
        assert build.model.num_rows == 0
        assert len(build.catalog.y) == len(build.catalog.x) == 0
        sol = branch_and_bound(build.model, rel_gap_target=0.0)
        assert sol.objective == pytest.approx(0.0)

    def test_two_truck_variable_count(self, two_truck_scenario):
        """Plain build: 7 Y + 1 X + 2 dep + 4 SOE + 2 peak = 16 columns.

        TA's window spans blocks 0..3 and TB's 0..2 with a single charger
        type; only the depot sees departures, so only it gets a count
        column.
        """
        build = build_problem(two_truck_scenario, strengthen=False)
        cat = build.catalog
        assert len(cat.y) == 7
        assert len(cat.x) == 1
        assert len(cat.dep_act) == 2
        assert len(cat.e_dep) == len(cat.e_arr) == 2
        assert len(cat.c_peak) == 2
        assert build.model.num_cols == 16

    @pytest.mark.parametrize("slack_minutes", [0, 15, 30])
    def test_fixed_model_differs_only_in_count_bounds(self, depot_scenario,
                                                       slack_minutes):
        """One model serves both designs: the fixed design's LP text is the
        co-design one, line for line, but for the bounds of the counts."""
        fixed_counts = fc.rule_based_design(depot_scenario, fc.MainDepotOnly(2, 2))
        texts = {}
        for design in (fc.CODESIGN, fc.FIXED_INFRASTRUCTURE):
            scenario = fc.validate_scenario(scenario_variant(
                depot_scenario, design, fixed_counts, slack_minutes=slack_minutes))
            texts[design] = build_problem(scenario).model.to_lp_format().splitlines()
        codesign, fixed = texts[fc.CODESIGN], texts[fc.FIXED_INFRASTRUCTURE]
        assert len(codesign) == len(fixed)
        bounds = codesign.index("Bounds")
        changed = [(i, a.split()[2]) for i, (a, b) in enumerate(zip(codesign, fixed))
                   if a != b]
        assert changed and all(i > bounds for i, _ in changed)
        assert all(name.startswith(("x[", "x_total[")) for _, name in changed)
        assert " 2 <= x[DEPOT_r2] <= 2" in fixed

    def test_deterministic_build(self, depot_scenario):
        a = build_problem(depot_scenario).model.to_lp_format()
        b = build_problem(depot_scenario).model.to_lp_format()
        assert a == b

    def test_strengthened_and_plain_agree(self, two_truck_scenario):
        plain = branch_and_bound(
            build_problem(two_truck_scenario, strengthen=False).model,
            rel_gap_target=0.0)
        strong = branch_and_bound(
            build_problem(two_truck_scenario).model, rel_gap_target=0.0)
        assert plain.objective == pytest.approx(strong.objective, abs=1e-6)


class TestEnergyConstraints:
    def test_discharge_only_balance(self):
        # No charging possible (departure at block 0 leaves no window).
        truck = fc.Truck("T1", 500.0, 0.13, 400.0)
        leg = make_leg(dep_min=0, arr_min=60, km=100.0, tons=10.0)
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        build = build_problem(scenario)
        sol = branch_and_bound(build.model, rel_gap_target=0.0)
        key = ("T1", 0, 1)
        assert sol.values[build.catalog.e_arr[key]] == pytest.approx(400.0 - 130.0)

    def test_single_block_charge_energy(self):
        # One 180 kW block at 15-minute resolution banks 45 kWh.
        truck = fc.Truck("T1", 500.0, 0.13, 100.0)
        leg = make_leg(dep_min=60, arr_min=120, km=100.0, tons=10.0)
        scenario = crafted([leg], (fc.ChargerType(2, 180.0, 50000.0, 0.98),), (truck,))
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        assert outcome.plan is not None
        assert all(e.energy_kwh == pytest.approx(45.0) for e in outcome.plan.events)
        key = ("T1", 0, 1)
        charged = sum(e.energy_kwh for e in outcome.plan.events)
        assert outcome.solution.values[outcome.build.catalog.e_arr[key]] == \
            pytest.approx(100.0 + charged - 130.0)

    def test_two_leg_chain_needs_big_blocks(self):
        """500 kWh pack, 300 + 300 kWh legs: only a 100+ kWh block saves it."""
        truck = fc.Truck("T1", 500.0, 0.10, 500.0)
        legs = [
            make_leg(index=1, dep_min=60, arr_min=240, km=100.0, tons=30.0),
            # A single-block layover: whatever is missing for the return leg
            # must arrive in one charging block.
            make_leg(index=2, origin="R1", dest="DC", dep_min=255, arr_min=435,
                     km=100.0, tons=30.0),
        ]

        def variant(power, cost):
            return crafted(legs, (fc.ChargerType(9, power, cost, 0.97),),
                           (truck,), slack_blocks=0)

        small = build_problem(variant(360.0, 90000.0), strengthen=False)
        assert brute_force_enumerate(small.model).status == SolveStatus.INFEASIBLE

        big = build_problem(variant(720.0, 150000.0), strengthen=False)
        brute = brute_force_enumerate(big.model)
        assert brute.status == SolveStatus.OPTIMAL
        exact = branch_and_bound(build_problem(variant(720.0, 150000.0)).model,
                                 rel_gap_target=0.0)
        assert exact.objective == pytest.approx(brute.objective, abs=1e-6)

    def test_battery_headroom_blocks_oversized_chargers(self):
        # A full 295 kWh block cannot fit a 150 kWh pack, so no column exists.
        truck = fc.Truck("T1", 150.0, 0.12, 75.0)
        leg = make_leg(dep_min=60, arr_min=120)
        scenario = crafted([leg], (fc.ChargerType(5, 1180.0, 300000.0, 0.97),), (truck,))
        build = build_problem(scenario)
        assert len(build.catalog.y) == 0


class TestScheduleConstraints:
    def charge_forced_scenario(self, slack_blocks=0, window_blocks=4):
        # Departure at (window_blocks) * 15 minutes; deficit forces charging.
        truck = fc.Truck("T1", 150.0, 0.12, 30.0)
        dep = window_blocks * 15
        leg = make_leg(dep_min=dep, arr_min=dep + 60, km=50.0, tons=10.0)  # 60 kWh
        return crafted([leg], (fc.ChargerType(2, 180.0, 50000.0, 0.98),),
                       (truck,), slack_blocks=slack_blocks)

    def test_departure_after_charging_block(self):
        scenario = self.charge_forced_scenario(window_blocks=13)
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        last_block = max(e.block for e in outcome.plan.events)
        dep = next(iter(outcome.plan.departures))
        assert dep.actual_block >= last_block + 1 - 1e-9

    def test_no_charging_departure_floats_to_day_start(self):
        truck = fc.Truck("T1", 150.0, 0.12, 150.0)
        leg = make_leg(dep_min=120, arr_min=180, km=10.0, tons=1.0)
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        # The column's lower bound is the day start and nothing pushes it up.
        dep = outcome.plan.departures[0]
        assert dep.actual_block == pytest.approx(0.0)

    def test_single_block_window_forces_scheduled_departure(self):
        """Zero slack, one-block window: charging pins departure exactly."""
        scenario = self.charge_forced_scenario(slack_blocks=0, window_blocks=1)
        build = build_problem(scenario, strengthen=False)
        brute = brute_force_enumerate(build.model)
        assert brute.status == SolveStatus.OPTIMAL
        key = ("T1", 0, 1)
        dep_col = build.catalog.dep_act[key]
        assert brute.values[dep_col] == pytest.approx(
            scenario.time_grid.departure_block(scenario.legs[0]))
        # Every charging choice is active: the single Y must be 1.
        assert all(brute.values[c] == pytest.approx(1.0)
                   for c in build.catalog.y.values())


class TestCapacityConstraints:
    def overlap_scenario(self, fixed_counts=None, initial=(30.0, 30.0)):
        trucks = (
            fc.Truck("TA", 150.0, 0.12, initial[0]),
            fc.Truck("TB", 150.0, 0.12, initial[1]),
        )
        legs = [
            make_leg(truck="TA", dep_min=15, arr_min=75, km=50.0, tons=10.0),
            make_leg(truck="TB", dep_min=15, arr_min=75, km=50.0, tons=10.0),
        ]
        design = {"design_mode": fc.FIXED_INFRASTRUCTURE,
                  "fixed_counts": fixed_counts} if fixed_counts is not None else {}
        return crafted(legs, (fc.ChargerType(2, 180.0, 50000.0, 0.98),),
                       trucks, **design)

    def test_zero_capacity_infeasible(self):
        scenario = self.overlap_scenario(fixed_counts={})
        build = build_problem(scenario)
        assert branch_and_bound(build.model).status == SolveStatus.INFEASIBLE

    def test_shared_single_block_window(self):
        """One charger, one shared block: at most one truck charges."""
        # 105 kWh on board covers the 60 kWh leg, and a 45 kWh block still
        # fits the pack, so only the capacity row rules combinations out.
        scenario = self.overlap_scenario(
            fixed_counts={"DC": {2: 1}}, initial=(105.0, 105.0))
        build = build_problem(scenario, strengthen=False)
        cols = build.catalog.y
        assert len(cols) == 2  # one block each
        feasible = []
        for ya in (0.0, 1.0):
            for yb in (0.0, 1.0):
                lo = list(build.model.lower)
                hi = list(build.model.upper)
                for (key, col), v in zip(sorted(cols.items()), (ya, yb)):
                    lo[col] = hi[col] = v
                from fleetcharge.solver import PreparedLP
                res = PreparedLP(build.model).solve(lo, hi)
                feasible.append(((ya, yb), res.status == SolveStatus.OPTIMAL))
        table = dict(feasible)
        assert table[(0.0, 0.0)] and table[(1.0, 0.0)] and table[(0.0, 1.0)]
        assert not table[(1.0, 1.0)]  # capacity: at most one Y in the block

    def test_one_truck_two_types_single_charger_rule(self):
        truck = fc.Truck("T1", 400.0, 0.12, 200.0)
        leg = make_leg(dep_min=15, arr_min=75, km=50.0, tons=10.0)
        scenario = crafted(
            [leg],
            (fc.ChargerType(1, 60.0, 20000.0, 0.98),
             fc.ChargerType(2, 180.0, 50000.0, 0.98)),
            (truck,))
        build = build_problem(scenario, strengthen=False)
        # Each block's Y columns share one row capping their sum at 1.
        per_block: dict = {}
        for (_, _, _, _, block), col in build.catalog.y.items():
            per_block.setdefault(block, set()).add((col, 1.0))
        model = build.model
        rows = {
            (frozenset(zip(model.row_cols[lo:hi], model.row_vals[lo:hi])), sense, rhs)
            for lo, hi, sense, rhs in zip(model.row_start, model.row_start[1:],
                                          model.senses, model.rhs)
        }
        assert per_block and all(
            (frozenset(cols), LE, 1.0) in rows for cols in per_block.values())
        brute = brute_force_enumerate(build.model)
        by_block: dict = {}
        for (t, d, l, r, b), col in build.catalog.y.items():
            by_block.setdefault(b, 0.0)
            by_block[b] += brute.values[col]
        assert all(total <= 1.0 + 1e-9 for total in by_block.values())


class TestFixedDesign:
    """A fixed design pins the count columns, so its capital is priced on
    them even where the design exceeds what the demand could use."""

    @staticmethod
    def solve(base, counts, slack_minutes):
        scenario = fc.validate_scenario(scenario_variant(
            base, fc.FIXED_INFRASTRUCTURE, counts, slack_minutes=slack_minutes))
        return fc.solve_scenario(scenario)

    def test_design_above_the_demand_cap(self, depot_scenario):
        # At most three trucks ever charge at the depot together.
        outcome = self.solve(depot_scenario, {"DEPOT": {1: 9, 2: 3}}, 15)
        model, cat = outcome.build.model, outcome.build.catalog
        col = cat.x_total["DEPOT"]
        assert (model.lower[col], model.upper[col]) == (12.0, 12.0)
        assert outcome.solution.objective == pytest.approx(331533.0612244903, rel=1e-12)
        assert outcome.plan.charger_counts == {"DEPOT": {1: 9, 2: 3}}
        assert outcome.plan.costs == fc.CostBreakdown(
            33.06122448979593, 330000.0, 1500.0, 331533.0612244898)

    def test_design_at_a_location_without_windows(self, two_truck_scenario):
        # No leg departs R1, so only the design puts count columns there.
        outcome = self.solve(two_truck_scenario, {"DC": {1: 5}, "R1": {1: 2}}, 0)
        model, cat = outcome.build.model, outcome.build.catalog
        col = cat.x[("R1", 1)]
        assert (model.lower[col], model.upper[col], model.objective[col]) == \
            (2.0, 2.0, 20000.0)
        assert outcome.solution.objective == pytest.approx(141218.36734693876, rel=1e-12)
        assert outcome.plan.charger_counts == {"DC": {1: 5}, "R1": {1: 2}}
        assert outcome.plan.costs == fc.CostBreakdown(
            18.367346938775512, 140000.0, 1200.0, 141218.3673469388)

    def test_design_without_counts_is_not_built(self, tmp_path):
        # Such a file stays legal to load and validate, since `solve
        # --fixed-file` and `sweep --fixed-file` supply the counts later;
        # building it as a design with no chargers would be a silent error.
        doc = json.loads((FIXTURES / "two_truck.json").read_text())
        doc["params"]["design_mode"] = fc.FIXED_INFRASTRUCTURE
        doc["params"].pop("fixed_counts", None)
        path = tmp_path / "fixed_without_counts.json"
        path.write_text(json.dumps(doc))
        scenario = fc.validate_scenario(fc.load_scenario(path))
        assert fc.scenario_issues(scenario) == []
        with pytest.raises(ValueError, match="fixed_counts"):
            build_problem(scenario)
        with pytest.raises(ValueError, match="fixed_counts"):
            fc.solve_scenario(scenario)


class TestFastChargerCover:
    """A tour prefix whose windows are too short for the slow type must buy
    from a fast one: a cover row on the fast types' counts and a peak floor
    at the fast type's power."""

    SLOW = fc.ChargerType(1, 30.0, 10000.0, 0.98)
    FAST = fc.ChargerType(2, 60.0, 20000.0, 0.98)

    def build(self, legs, strengthen=True):
        truck = fc.Truck("T1", 150.0, 0.12, 75.0)
        scenario = crafted(legs, (self.SLOW, self.FAST), (truck,))
        return build_problem(scenario, strengthen=strengthen)

    @staticmethod
    def one_leg(dep_min):
        # 120 kWh leg with 75 kWh on board: 45 kWh to buy before departure.
        return [make_leg(dep_min=dep_min, arr_min=dep_min + 60, km=100.0, tons=10.0)]

    @staticmethod
    def row(model, name):
        i = model.row_names.index(name)
        lo, hi = model.row_start[i], model.row_start[i + 1]
        return (model.row_cols[lo:hi], model.row_vals[lo:hi],
                model.senses[i], model.rhs[i])

    @staticmethod
    def cover_rows(model):
        return [n for n in model.row_names if n.startswith("fast_required[")]

    def test_short_window_requires_fast_type(self):
        # Four blocks buy 30 kWh at 30 kW but 60 kWh at 60 kW.
        build = self.build(self.one_leg(60))
        cat, model = build.catalog, build.model
        assert self.cover_rows(model) == ["fast_required[T1_d0_l1]"]
        assert self.row(model, "fast_required[T1_d0_l1]") == \
            ([cat.x[("DC", 2)]], [1.0], GE, 1.0)
        assert cat.peak_floor == {"DC": 10.0 * 60.0}
        assert self.row(model, "peak_floor[DC]") == \
            ([cat.c_peak["DC"]], [1.0], GE, 600.0)

    def test_long_window_adds_no_row(self):
        # Eight blocks buy 60 kWh even at 30 kW.
        build = self.build(self.one_leg(120))
        assert self.cover_rows(build.model) == []
        assert build.catalog.peak_floor == {"DC": 10.0 * 30.0}

    def test_fixed_design_writes_the_same_rows(self):
        truck = fc.Truck("T1", 150.0, 0.12, 75.0)
        scenario = crafted(self.one_leg(60), (self.SLOW, self.FAST), (truck,),
                           design_mode=fc.FIXED_INFRASTRUCTURE,
                           fixed_counts={"DC": {1: 1, 2: 1}})
        build = build_problem(scenario)
        cat, model = build.catalog, build.model
        assert self.row(model, "fast_required[T1_d0_l1]") == \
            ([cat.x[("DC", 2)]], [1.0], GE, 1.0)
        assert cat.peak_floor == {"DC": 10.0 * 60.0}
        assert (model.lower[cat.x[("DC", 2)]], model.upper[cat.x[("DC", 2)]]) == (1.0, 1.0)

    def test_prefix_over_two_locations(self):
        legs = [
            # 60 kWh out of 75: no shortfall yet; four blocks at DC.
            make_leg(index=1, dep_min=60, arr_min=120, km=50.0, tons=10.0),
            # 120 kWh more: a 105 kWh shortfall over eight blocks (four at
            # DC, four at R1), 60 kWh at 30 kW, 120 kWh at 60 kW.
            make_leg(index=2, origin="R1", dest="DC", dep_min=180,
                     arr_min=240, km=100.0, tons=10.0),
        ]
        build = self.build(legs)
        cat, model = build.catalog, build.model
        assert self.cover_rows(model) == ["fast_required[T1_d0_l2]"]
        assert self.row(model, "fast_required[T1_d0_l2]") == \
            ([cat.x[("DC", 2)], cat.x[("R1", 2)]], [1.0, 1.0], GE, 1.0)
        assert cat.peak_floor == {}  # the shortfall is bought at two places

    def test_same_optimum_as_plain(self):
        legs = self.one_leg(60)
        brute = brute_force_enumerate(self.build(legs, strengthen=False).model)
        strong = branch_and_bound(self.build(legs).model, rel_gap_target=0.0)
        assert brute.status == strong.status == SolveStatus.OPTIMAL
        assert strong.objective == pytest.approx(brute.objective, abs=1e-6)


class TestPeakEpigraph:
    def test_no_charging_zero_peak(self):
        truck = fc.Truck("T1", 150.0, 0.12, 150.0)
        leg = make_leg(dep_min=60, arr_min=120, km=10.0, tons=1.0)
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        values = outcome.solution.values
        assert all(values[c] == pytest.approx(0.0)
                   for c in outcome.build.catalog.c_peak.values())

    def test_single_block_full_power(self):
        """One 720 kW block at peak price 0.5 prices the epigraph at 360."""
        truck = fc.Truck("T1", 400.0, 0.12, 60.0)
        leg = make_leg(dep_min=15, arr_min=120, km=60.0, tons=10.0)  # 72 kWh > 60
        scenario = crafted([leg], (fc.ChargerType(4, 720.0, 150000.0, 0.97),),
                           (truck,), peak_price=0.5)
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        assert len(outcome.plan.events) == 1
        col = outcome.build.catalog.c_peak["DC"]
        assert outcome.solution.values[col] == pytest.approx(0.5 * 720.0)

    def test_staggered_draw_matches_validator_scan(self):
        """Simultaneous 180 + 60 kW: epigraph equals the literal block max."""
        trucks = (
            fc.Truck("TA", 400.0, 0.12, 60.0),
            fc.Truck("TB", 400.0, 0.12, 60.0),
        )
        legs = [
            make_leg(truck="TA", dep_min=15, arr_min=120, km=60.0, tons=10.0),
            make_leg(truck="TB", dep_min=15, arr_min=120, km=60.0, tons=10.0),
        ]
        # TB can only absorb a 60 kW block usefully: give it a small deficit
        # via cheaper price on type-1 and capacity one of each type.
        scenario = crafted(
            legs,
            (fc.ChargerType(1, 60.0, 20000.0, 0.98),
             fc.ChargerType(2, 180.0, 50000.0, 0.98)),
            trucks,
            design_mode=fc.FIXED_INFRASTRUCTURE,
            fixed_counts={"DC": {1: 1, 2: 1}},
        )
        outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
        peaks = fc.location_peaks_kw(scenario, outcome.plan)
        col = outcome.build.catalog.c_peak["DC"]
        assert outcome.solution.values[col] == pytest.approx(
            scenario.price_schedule.peak_price_per_kw * peaks["DC"], abs=1e-6)


class TestObjective:
    def test_energy_coefficient(self):
        """0.25 h x 180 kW / 0.98 x 0.20 per kWh = 9.1837 per block."""
        truck = fc.Truck("T1", 400.0, 0.12, 100.0)
        leg = make_leg(dep_min=60, arr_min=120)
        scenario = crafted([leg], (fc.ChargerType(2, 180.0, 50000.0, 0.98),), (truck,))
        build = build_problem(scenario)
        y_cols = list(build.catalog.y.values())
        assert y_cols
        for col in y_cols:
            assert build.model.objective[col] == pytest.approx(
                0.25 * 180.0 / 0.98 * 0.2)
        assert build.model.objective[y_cols[0]] == pytest.approx(9.1837, abs=1e-4)

    def test_capital_coefficient(self):
        scenario = crafted(
            [make_leg(dep_min=60, arr_min=120)],
            (fc.ChargerType(1, 60.0, 20000.0, 0.98),),
            (fc.Truck("T1", 400.0, 0.12, 100.0),))
        build = build_problem(scenario)
        col = build.catalog.x[("DC", 1)]
        assert build.model.objective[col] == pytest.approx(20000.0)

    def test_alpha_zero_drops_peak_term(self):
        scenario = crafted(
            [make_leg(dep_min=60, arr_min=120)],
            (fc.ChargerType(1, 60.0, 20000.0, 0.98),),
            (fc.Truck("T1", 400.0, 0.12, 100.0),),
            alpha=0.0)
        build = build_problem(scenario)
        for col in build.catalog.c_peak.values():
            assert build.model.objective[col] == 0.0

    def test_breakdown_sums_to_objective(self, two_truck_outcome, two_truck_scenario):
        outcome = two_truck_outcome
        parts = objective_breakdown(
            two_truck_scenario, outcome.build.catalog, outcome.solution.values)
        assert parts["total"] == pytest.approx(outcome.solution.objective, abs=1e-6)


@pytest.fixture(scope="module")
def five_truck_scenario() -> fc.Scenario:
    """The benchmark's fleet-scale scenario."""
    return fc.generate_synthetic(1, n_trucks=5)


class TestSolverInputClass:
    """Every column the builder writes has a finite bound, and every cost
    one on the side it favours, the only models the simplex takes; a
    column that breaks this fails here, not in a production solve."""

    @pytest.mark.parametrize("amortize", [False, True])
    @pytest.mark.parametrize("slack_minutes", [0, 15])
    @pytest.mark.parametrize("design", [fc.CODESIGN, fc.FIXED_INFRASTRUCTURE])
    @pytest.mark.parametrize(
        "fixture", ["depot_scenario", "two_truck_scenario", "remote_scenario",
                    "five_truck_scenario"])
    def test_every_build_is_accepted(self, fixture, design, slack_minutes,
                                     amortize, request):
        base = request.getfixturevalue(fixture)
        fixed_counts = fc.rule_based_design(
            base, fc.MainDepotOnly(2, base.charger_catalog[-1].id))
        scenario = fc.validate_scenario(scenario_variant(
            base, design, fixed_counts, slack_minutes=slack_minutes))
        model = build_problem(scenario, amortize=amortize).model
        assert model.num_cols > 0
        PreparedLP(model)  # raises ValueError naming a column outside the class


class TestDiagnostics:
    """The reachability walk explains an infeasibility; the search decides it."""

    @staticmethod
    def assert_search_infeasible(outcome):
        # The root LP proves it: one node, one LP, no plan.
        solution = outcome.solution
        assert solution.status == SolveStatus.INFEASIBLE
        assert solution.stop_reason == "infeasible"
        assert solution.node_count == 1
        assert solution.counts["lp_solves"] == 1
        assert outcome.plan is None

    def test_window_empty_is_infeasible_in_search(self):
        # Depart at block 0 with an empty pack: no window can save the leg.
        truck = fc.Truck("T1", 150.0, 0.12, 10.0)
        leg = make_leg(dep_min=0, arr_min=60, km=50.0, tons=10.0)
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        outcome = fc.solve_scenario(scenario)
        assert any(d.code == "WindowEmpty" and d.severity == "error"
                   for d in outcome.build.diagnostics)
        self.assert_search_infeasible(outcome)
        with pytest.raises(ValueError, match="time_limit"):
            fc.solve_scenario(scenario, time_limit=float("nan"))

    @pytest.mark.parametrize("fixture, last", [
        ("depot_scenario", False), ("five_truck_scenario", True)],
        ids=["depot-first-leg", "five-trucks-last-leg"])
    def test_unreachable_leg_is_infeasible_at_the_root(self, fixture, last, request):
        # A leg stretched 50x is one the walk cannot reach: the first leg of
        # scenario.legs, or the last in (truck, day, leg) order.
        base = request.getfixturevalue(fixture)
        legs = list(base.legs)
        i = max(range(len(legs)), key=lambda k: (
            legs[k].truck_id, legs[k].day, legs[k].leg_index)) if last else 0
        legs[i] = replace(legs[i], distance_km=legs[i].distance_km * 50)
        outcome = fc.solve_scenario(fc.validate_scenario(replace(base, legs=tuple(legs))))
        self.assert_search_infeasible(outcome)
        name = f"truck {legs[i].truck_id} day {legs[i].day} leg {legs[i].leg_index}: "
        assert [d.code for d in outcome.build.diagnostics
                if d.severity == "error" and d.message.startswith(name)] == ["EnergyDeficit"]

    def test_energy_deficit_diagnostic(self):
        # A window exists but even flat-out charging cannot cover the leg.
        truck = fc.Truck("T1", 150.0, 0.12, 10.0)
        leg = make_leg(dep_min=15, arr_min=300, km=100.0, tons=10.0)  # 120 kWh
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        build = build_problem(scenario)
        assert any(d.code == "EnergyDeficit" and d.severity == "error"
                   for d in build.diagnostics)

    def test_empty_window_warning_not_fatal(self, remote_scenario):
        tight = fc.validate_scenario(replace(remote_scenario, slack_blocks=0))
        build = build_problem(tight)
        empties = [d for d in build.diagnostics if d.code == "WindowEmpty"]
        assert empties and all(d.severity == "warning" for d in build.diagnostics)


def csr_rows(model) -> list[tuple]:
    """Each row as ``(name, coeffs, sense, rhs)``, read from the CSR lists,
    with ``coeffs`` a tuple of ``(column, value)`` pairs."""
    spans = zip(model.row_start, model.row_start[1:])
    return [(name, tuple(zip(model.row_cols[lo:hi], model.row_vals[lo:hi])), sense, rhs)
            for name, (lo, hi), sense, rhs
            in zip(model.row_names, spans, model.senses, model.rhs)]


def model_fingerprint(model) -> str:
    """Digest of every model field, floats by exact repr."""
    digest = hashlib.sha256()
    for part in (model.col_names, model.lower, model.upper, model.integer,
                 model.objective, model.branch_priority):
        digest.update(repr(part).encode())
    for row in csr_rows(model):
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


# (design, slack blocks, strengthen) -> fingerprint of the depot fixture's model.
GOLDEN_FINGERPRINTS = {
    ("codesign", 0, True): "d974b5482534f9c5",
    ("codesign", 0, False): "371e06d097693c37",
    ("codesign", 1, True): "97b80cb93e182ce9",
    ("codesign", 1, False): "5c15eef63e01841a",
    ("codesign", 2, True): "2a9a902b6de59645",
    ("codesign", 2, False): "d3d51619270fc758",
    ("codesign", 4, True): "6c6ddec4683a9ecf",
    ("codesign", 4, False): "f4af87e66fe63479",
    ("fixed", 0, True): "c521bf45e2475db3",
    ("fixed", 0, False): "e08c361576ea2cfc",
    ("fixed", 1, True): "14b17346554c1dae",
    ("fixed", 1, False): "f3d63e82870e2c90",
    ("fixed", 2, True): "879463ba570dc847",
    ("fixed", 2, False): "a54267a8e712da46",
    ("fixed", 4, True): "504d70237e1581fe",
    ("fixed", 4, False): "8e782f1a44c835eb",
}

# Inputs the table above does not pin: the depot fixture with capital
# amortized in the objective, (fixture, design, slack blocks), and the other
# two fixtures at their file settings, (fixture, None, None).
GOLDEN_OTHER_FINGERPRINTS = {
    ("depot_fixture", "codesign", 0): "015333ea5e80f6ba",
    ("depot_fixture", "codesign", 1): "4e9a6b9fdcb03ca2",
    ("depot_fixture", "fixed", 0): "6077d3ff11dfdcb6",
    ("depot_fixture", "fixed", 1): "f159e2c329ac6e33",
    ("remote_variant", None, None): "a73a583b07b401b5",
    ("two_truck", None, None): "2b2f12255181cad7",
}


class TestModelFingerprint:
    def test_depot_models_match_golden(self, depot_scenario):
        """Builds are pinned field for field, floats by exact repr.

        A deliberate change to the formulation (columns, rows, names,
        coefficients, bounds, priorities or their order) must update
        GOLDEN_FINGERPRINTS; any other change to the builder must leave
        every fingerprint as it is.
        """
        from fleetcharge.baseline import MainDepotOnly, rule_based_design

        fixed_counts = rule_based_design(depot_scenario, MainDepotOnly(2, 2))
        found = {}
        for design, slack, strengthen in GOLDEN_FINGERPRINTS:
            scenario = fc.validate_scenario(replace(
                depot_scenario, slack_blocks=slack, design_mode=design,
                fixed_counts=fixed_counts if design == fc.FIXED_INFRASTRUCTURE
                else None))
            build = build_problem(scenario, strengthen=strengthen)
            found[(design, slack, strengthen)] = model_fingerprint(build.model)
        assert found == GOLDEN_FINGERPRINTS

    def test_other_models_match_golden(self, depot_scenario):
        """The amortized objective scales every capital cost, which the
        depot table only builds at ratio 1; the other two fixtures are
        pinned at their file settings."""
        from fleetcharge.baseline import MainDepotOnly, rule_based_design

        fixed_counts = rule_based_design(depot_scenario, MainDepotOnly(2, 2))
        found = {}
        for name, design, slack in GOLDEN_OTHER_FINGERPRINTS:
            scenario = fc.load_scenario(FIXTURES / f"{name}.json")
            if design is None:
                build = build_problem(scenario)
            else:
                scenario = fc.validate_scenario(replace(
                    scenario, slack_blocks=slack, design_mode=design,
                    fixed_counts=fixed_counts if design == fc.FIXED_INFRASTRUCTURE
                    else None))
                build = build_problem(scenario, amortize=True)
            found[(name, design, slack)] = model_fingerprint(build.model)
        assert found == GOLDEN_OTHER_FINGERPRINTS

    def test_cover_rows_are_the_only_slack0_change(self, depot_scenario):
        """Without its fast-charger cover rows and with the old peak floor
        (one slowest charger), the slack-0 co-design model is the one built
        before those rows existed, less the installed-energy rows deleted
        since."""
        scenario = fc.validate_scenario(replace(depot_scenario, slack_blocks=0))
        model = build_problem(scenario).model
        old_floor = scenario.price_schedule.peak_price_per_kw * min(
            c.rated_power_kw for c in scenario.charger_catalog)
        kept = LinearModel(
            col_names=model.col_names, lower=model.lower, upper=model.upper,
            integer=model.integer, objective=model.objective,
            branch_priority=model.branch_priority)
        for name, coeffs, sense, rhs in csr_rows(model):
            if name.startswith("fast_required["):
                continue
            kept.add_row(name, list(coeffs), sense,
                         old_floor if name.startswith("peak_floor[") else rhs)
        assert kept.num_rows < model.num_rows
        assert model_fingerprint(kept) == "521d031207fc88c2"



# (design, slack blocks) -> sha256 of the depot fixture's to_lp_format() text;
# the co-design entries were taken after the installed-energy rows were
# deleted, the fixed-design ones once one model served both designs.
GOLDEN_LP_TEXT = {
    ("codesign", 0): "a21961bfe1dfaf2f51fdf4e544643d54aa0df6afe7a9bea9a2ba32fc7fd933a8",
    ("codesign", 1): "8112c8e7e33258fc43755ebfbb6c0d16df85604a7e6732d27f5081452ea707f5",
    ("fixed", 0): "7beae896a8764f1ffbcf1eb63848ce3cf3b94690f4f4ab62e5952afa860333ea",
    ("fixed", 1): "088291799d26581fe85b60f9a3675b02591f298804ac5ea4304bda4a266d75e7",
}


class TestRowStore:
    def test_depot_lp_text_matches_golden(self, depot_scenario):
        from fleetcharge.baseline import MainDepotOnly, rule_based_design

        fixed_counts = rule_based_design(depot_scenario, MainDepotOnly(2, 2))
        found = {}
        for design, slack in GOLDEN_LP_TEXT:
            scenario = fc.validate_scenario(replace(
                depot_scenario, slack_blocks=slack, design_mode=design,
                fixed_counts=fixed_counts if design == fc.FIXED_INFRASTRUCTURE
                else None))
            text = build_problem(scenario).model.to_lp_format()
            found[(design, slack)] = hashlib.sha256(text.encode()).hexdigest()
        assert found == GOLDEN_LP_TEXT

    @staticmethod
    def row_lists(model):
        return [list(part) for part in (model.row_names, model.row_start,
                                        model.row_cols, model.row_vals,
                                        model.senses, model.rhs)]

    @pytest.mark.parametrize("coeffs, sense", [
        ([(0, 1.0), (2, 1.0)], LE),  # column 2 does not exist
        ([(1, 1.0), (-1, 2.0)], GE),
        ([(0, 1.0)], "<"),
    ], ids=["past-end", "negative", "sense"])
    def test_rejected_row_leaves_the_store_unchanged(self, coeffs, sense):
        model = LinearModel()
        model.add_column("x")
        model.add_column("y")
        model.add_row("kept", [(1, 2.0), (0, -1.0), (1, 0.5)], EQ, 4.0)
        before = self.row_lists(model)
        with pytest.raises(ValueError):
            model.add_row("bad", coeffs, sense, 1.0)
        assert self.row_lists(model) == before
        assert model.num_rows == 1

    def test_crossed_column_bounds_are_rejected(self):
        model = LinearModel()
        with pytest.raises(ValueError) as err:
            model.add_column("x[3]", lower=2.0, upper=1.0)
        assert str(err.value) == "column x[3]: upper 1.0 < lower 2.0"
        assert model.num_cols == 0

    def test_rows_view_rebuilds_each_row(self):
        model = LinearModel()
        model.add_column("x")
        model.add_column("y")
        model.add_row("a", [(1, 2), (0, -1.5), (1, 0.5)], EQ, 4)
        model.add_row("empty", [], GE, -1.0)
        model.add_row("b", [(0, 3.0)], LE, 2.5)
        assert model.row_start == [0, 3, 3, 4]
        assert model.rows == [
            Row("a", ((1, 2.0), (0, -1.5), (1, 0.5)), EQ, 4.0),
            Row("empty", (), GE, -1.0),
            Row("b", ((0, 3.0),), LE, 2.5),
        ]
        assert [type(a) for _, a in model.rows[0].coeffs] == [float] * 3
