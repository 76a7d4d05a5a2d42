"""Model construction: energy, schedule, capacity and peak semantics.

Constraint behavior is checked by solving tiny crafted instances and
inspecting the decoded plans, with brute-force enumeration as the ground
truth wherever the spec of a rule is subtle.
"""

import hashlib
from dataclasses import replace

import pytest

import fleetcharge as fc
from fleetcharge.builder import build_problem, energy_consumption, objective_breakdown
from fleetcharge.model import LE
from fleetcharge.solver import SolveStatus, branch_and_bound

from oracles import brute_force_enumerate
from test_domain import make_leg, minimal_scenario


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
    return fc.validate_scenario(fc.quantize_times(scenario))


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
        assert build.model.objective_offset == 0.0
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

    def test_fixed_mode_has_no_integer_design_columns(self, two_truck_scenario):
        fixed = fc.validate_scenario(replace(
            two_truck_scenario, design_mode=fc.FIXED_INFRASTRUCTURE,
            fixed_counts={"DC": {1: 2}}))
        build = build_problem(fixed, strengthen=False)
        assert len(build.catalog.x) == 0
        assert build.model.integer_cols == sorted(build.catalog.y.values())
        assert build.model.objective_offset == pytest.approx(2 * 20000.0)

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
            scenario.legs[0].scheduled_departure_block)
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
        rows = {(frozenset(r.coeffs), r.sense, r.rhs) for r in build.model.rows}
        assert per_block and all(
            (frozenset(cols), LE, 1.0) in rows for cols in per_block.values())
        brute = brute_force_enumerate(build.model)
        by_block: dict = {}
        for (t, d, l, r, b), col in build.catalog.y.items():
            by_block.setdefault(b, 0.0)
            by_block[b] += brute.values[col]
        assert all(total <= 1.0 + 1e-9 for total in by_block.values())


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
            two_truck_scenario, outcome.build.catalog,
            outcome.solution.values, outcome.build.model)
        assert parts["total"] == pytest.approx(outcome.solution.objective, abs=1e-6)


class TestDiagnostics:
    def test_window_empty_guaranteed_infeasible(self):
        # Depart at block 0 with an empty pack: no window can save the leg.
        truck = fc.Truck("T1", 150.0, 0.12, 10.0)
        leg = make_leg(dep_min=0, arr_min=60, km=50.0, tons=10.0)
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        build = build_problem(scenario)
        assert build.guaranteed_infeasible
        assert any(d.code == "WindowEmpty" for d in build.diagnostics)
        outcome = fc.solve_scenario(scenario)
        assert outcome.solution.status == SolveStatus.INFEASIBLE

    def test_energy_deficit_diagnostic(self):
        # A window exists but even flat-out charging cannot cover the leg.
        truck = fc.Truck("T1", 150.0, 0.12, 10.0)
        leg = make_leg(dep_min=15, arr_min=300, km=100.0, tons=10.0)  # 120 kWh
        scenario = crafted([leg], (fc.ChargerType(1, 60.0, 20000.0, 0.98),), (truck,))
        build = build_problem(scenario)
        assert any(d.code == "EnergyDeficit" and d.guaranteed_infeasible
                   for d in build.diagnostics)

    def test_empty_window_warning_not_fatal(self, remote_scenario):
        tight = fc.validate_scenario(replace(remote_scenario, slack_blocks=0))
        build = build_problem(tight)
        empties = [d for d in build.diagnostics if d.code == "WindowEmpty"]
        assert empties and not build.guaranteed_infeasible


def model_fingerprint(model) -> str:
    """Digest of every model field, floats by exact repr."""
    digest = hashlib.sha256()
    for part in (model.col_names, model.lower, model.upper, model.integer,
                 model.objective, model.objective_offset, model.branch_priority):
        digest.update(repr(part).encode())
    for row in model.rows:
        digest.update(repr((row.name, row.coeffs, row.sense, row.rhs)).encode())
    return digest.hexdigest()[:16]


# (design, slack blocks, strengthen) -> fingerprint of the depot fixture's model.
GOLDEN_FINGERPRINTS = {
    ("codesign", 0, True): "c78d080b5a255e42",
    ("codesign", 0, False): "b2d7c8e9b98b56e5",
    ("codesign", 1, True): "410569f5664bf288",
    ("codesign", 1, False): "61be1abbc4bb4ea9",
    ("codesign", 2, True): "72d1e1e732cd3613",
    ("codesign", 2, False): "79d51978682a0878",
    ("codesign", 4, True): "e789b039cf1297ba",
    ("codesign", 4, False): "dd7a9d8d7b3f5bf7",
    ("fixed", 0, True): "e68bf2f07db0f835",
    ("fixed", 0, False): "12da0143aea8e5cf",
    ("fixed", 1, True): "9921d350da8890f0",
    ("fixed", 1, False): "8fbb64e8e7abbd2a",
    ("fixed", 2, True): "e506db35837e453e",
    ("fixed", 2, False): "9baf585fe28f7d80",
    ("fixed", 4, True): "a4e09ca629e368f4",
    ("fixed", 4, False): "1ec4ff2f90f93eab",
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

