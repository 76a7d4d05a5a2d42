"""Domain types, validation, quantization, and charging windows."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcharge as fc
from fleetcharge.domain import (
    TimeGrid,
    ValidationIssue,
    charging_windows,
    empty_window_legs,
    scenario_issues,
)

from oracles import quantize_by_float, slack_blocks_by_float

DAY_DIVISORS = [b for b in range(1, 1441) if 1440 % b == 0]


def minimal_scenario(legs=(), trucks=None, locations=("DC", "R1"),
                     num_days=1, slack_blocks=0, chargers=None, **kwargs):
    grid = TimeGrid(15, num_days)
    chargers = chargers or (fc.ChargerType(1, 60.0, 20000.0, 0.98),)
    trucks = trucks if trucks is not None else (
        fc.Truck("T1", 150.0, 0.12, 75.0),)
    prices = fc.PriceSchedule(
        energy_price_per_kwh=tuple(
            tuple(0.2 for _ in range(grid.total_blocks)) for _ in chargers),
        peak_price_per_kw=10.0,
    )
    return fc.Scenario(
        time_grid=grid,
        trucks=tuple(trucks),
        legs=tuple(legs),
        charger_catalog=tuple(chargers),
        location_ids=tuple(locations),
        price_schedule=prices,
        slack_blocks=slack_blocks,
        **kwargs,
    )


CHARGER_1 = fc.ChargerType(1, 60.0, 20000.0, 0.98)
CHARGER_2 = fc.ChargerType(2, 150.0, 50000.0, 0.95)


def with_prices(scenario, rows):
    return replace(scenario, price_schedule=replace(
        scenario.price_schedule, energy_price_per_kwh=rows))


def fixed_design(counts):
    return minimal_scenario(design_mode=fc.FIXED_INFRASTRUCTURE, fixed_counts=counts)


def make_leg(truck="T1", day=0, index=1, origin="DC", dest="R1",
             dep_min=60, arr_min=120, km=50.0, tons=10.0):
    return fc.TripLeg(
        truck_id=truck, day=day, leg_index=index,
        origin_id=origin, destination_id=dest,
        departure_clock_min=dep_min, arrival_clock_min=arr_min,
        distance_km=km, payload_tons=tons,
    )


class TestLookups:
    """Scenario.truck, charger and charger_index find an id, and raise
    KeyError of an id the scenario does not hold."""

    SCENARIO = minimal_scenario(chargers=(CHARGER_1, CHARGER_2))

    @pytest.mark.parametrize("lookup, known, found, unknown", [
        ("truck", "T1", SCENARIO.trucks[0], "T9"),
        ("charger", 2, CHARGER_2, 3),
        ("charger_index", 2, 1, 3),
    ])
    def test_known_and_unknown_ids(self, lookup, known, found, unknown):
        method = getattr(self.SCENARIO, lookup)
        assert method(known) == found
        with pytest.raises(KeyError) as raised:
            method(unknown)
        assert raised.value.args == (unknown,)


class TestTimeGrid:
    def test_derived_fields(self):
        grid = TimeGrid(15, 2)
        assert grid.blocks_per_day == 96
        assert grid.block_duration_hours == 0.25
        assert grid.total_blocks == 192
        assert grid.day_start(1) == 96
        assert grid.day_of_block(100) == 1
        assert grid.block_of_day(100) == 4

    def test_slack_is_a_whole_block_count(self):
        grid = TimeGrid(15, 1)
        assert grid.slack_blocks(30) == 2
        assert type(grid.slack_blocks(30.0)) is int  # a float count breaks range()
        with pytest.raises(ValueError):
            grid.slack_blocks(20)

    def test_rejects_uneven_blocks(self):
        with pytest.raises(ValueError):
            TimeGrid(7, 1)

    def test_inconsistent_grid_flagged(self):
        # Blocks that do not divide a day, are not positive or are not whole
        # minutes (0.25 is a quarter hour given in hours), and zero days.
        for block_minutes, num_days in [(7, 1), (0, 1), (-15, 1), (2880, 1),
                                        (7.5, 1), (0.25, 1), (15, 0)]:
            with pytest.raises(ValueError):
                TimeGrid(block_minutes, num_days)


class TestQuantize:
    def test_departure_rounds_down(self):
        leg = make_leg(dep_min=187, arr_min=240)  # 03:07 -> 03:00
        assert TimeGrid(15, 1).departure_block(leg) == 12

    def test_arrival_rounds_up(self):
        leg = make_leg(dep_min=60, arr_min=187)  # 03:07 -> 03:15
        assert TimeGrid(15, 1).arrival_block(leg) == 13

    def test_travel_blocks_ceil(self):
        leg = make_leg(dep_min=60, arr_min=110)  # 50 minutes
        assert TimeGrid(15, 1).travel_blocks(leg) == 4

    def test_day_offset(self):
        leg = make_leg(day=1, dep_min=187, arr_min=240)
        assert TimeGrid(15, 2).departure_block(leg) == 96 + 12

    @settings(max_examples=300, deadline=None)
    @given(
        block_minutes=st.sampled_from(DAY_DIVISORS),
        day=st.integers(min_value=0, max_value=1),
        dep=st.integers(min_value=0, max_value=1440),
        arr=st.integers(min_value=0, max_value=1440),
        slack=st.integers(min_value=-1440, max_value=2880),
    )
    def test_integer_grid_matches_float_reference(self, block_minutes, day, dep,
                                                  arr, slack):
        grid = TimeGrid(block_minutes, 2)
        leg = make_leg(day=day, dep_min=dep, arr_min=arr)
        dep_block, arr_block, travel = quantize_by_float(dep, arr, block_minutes)
        day_start = grid.day_start(day)
        assert grid.departure_block(leg) == day_start + dep_block
        assert grid.arrival_block(leg) == day_start + arr_block
        assert grid.travel_blocks(leg) == travel
        expected = slack_blocks_by_float(slack, block_minutes)
        if expected is None:
            with pytest.raises(ValueError):
                grid.slack_blocks(slack)
        else:
            assert grid.slack_blocks(slack) == expected


class TestValidation:
    def test_empty_scenario_is_valid(self):
        fc.validate_scenario(minimal_scenario())

    def test_chain_broken(self):
        legs = [
            make_leg(index=1, origin="DC", dest="R1", dep_min=60, arr_min=120),
            make_leg(index=2, origin="DC", dest="R1", dep_min=180, arr_min=240),
        ]
        scenario = minimal_scenario(legs=legs)
        with pytest.raises(fc.ScenarioValidationError) as err:
            fc.validate_scenario(scenario)
        assert any(i.code == "ChainBroken" for i in err.value.issues)

    def test_unknown_references(self):
        legs = [make_leg(truck="GHOST"), make_leg(origin="NOWHERE", dep_min=300, arr_min=360)]
        scenario = minimal_scenario(legs=legs)
        issues = scenario_issues(scenario)
        assert sum(1 for i in issues if i.code == "UnknownReference") >= 2

    def test_negative_quantities(self):
        bad_truck = fc.Truck("T1", 150.0, -0.1, 75.0)
        scenario = minimal_scenario(trucks=(bad_truck,))
        assert any(i.code == "NegativeQuantity" for i in scenario_issues(scenario))

    def test_initial_soe_above_capacity(self):
        bad = fc.Truck("T1", 100.0, 0.1, 150.0)
        scenario = minimal_scenario(trucks=(bad,))
        assert any(i.code == "BatteryRange" for i in scenario_issues(scenario))

    def test_arrival_before_departure(self):
        leg = make_leg(dep_min=150, arr_min=75)  # blocks 10 and 5
        scenario = minimal_scenario(legs=[leg])
        assert any(i.code == "TimeOrder" for i in scenario_issues(scenario))

    def test_all_violations_enumerated(self):
        legs = [
            make_leg(truck="GHOST"),
            make_leg(index=2, origin="NOWHERE", dep_min=300, arr_min=360),
        ]
        scenario = minimal_scenario(legs=legs)
        issues = [i for i in scenario_issues(scenario) if i.severity == "error"]
        assert len(issues) >= 3  # both reference errors plus the broken chain

    # One crafted scenario per branch, with the finding it must report.
    BRANCHES = [
        pytest.param(lambda: minimal_scenario(trucks=(fc.Truck("T1", 150.0, 0.12, 75.0),) * 2),
                     "DuplicateId", "duplicate truck ids", id="duplicate-truck"),
        pytest.param(lambda: minimal_scenario(chargers=(CHARGER_2,) * 2),
                     "DuplicateId", "duplicate charger type ids", id="duplicate-charger"),
        pytest.param(lambda: minimal_scenario(locations=("DC", "R1", "DC")),
                     "DuplicateId", "duplicate location ids", id="duplicate-location"),
        pytest.param(lambda: with_prices(minimal_scenario(chargers=(CHARGER_1, CHARGER_2)),
                                         ((0.2,) * 96,)),
                     "UnknownReference", "price table has 1 charger rows, catalog has 2",
                     id="price-rows"),
        pytest.param(lambda: with_prices(minimal_scenario(), ((0.2,) * 95,)),
                     "TimeOffGrid", "price row 0 covers 95 blocks, expected 96",
                     id="price-row-length"),
        pytest.param(lambda: minimal_scenario(slack_blocks=-1),
                     "NegativeQuantity", "slack_blocks must be nonnegative",
                     id="negative-slack"),
        pytest.param(lambda: minimal_scenario(design_mode="hybrid"),
                     "UnknownReference", "unknown design_mode 'hybrid'",
                     id="unknown-design-mode"),
        pytest.param(lambda: fixed_design({"DC": {7: 1}}), "UnknownReference",
                     "fixed design references unknown charger type 7",
                     id="fixed-unknown-type"),
        pytest.param(lambda: fixed_design({"DC": {1: 2.5}}), "NegativeQuantity",
                     "fixed count for (DC, 1) must be a nonnegative integer, got 2.5",
                     id="fixed-non-integer-count"),
        pytest.param(lambda: minimal_scenario(legs=[make_leg(day=1)]),
                     "UnknownReference", "truck T1 day 1 leg 1: day outside analysis period",
                     id="day-outside-period"),
        pytest.param(lambda: minimal_scenario(legs=[make_leg(dep_min=1440, arr_min=1440)]),
                     "TimeOffGrid", "truck T1 day 0 leg 1: departure block outside its day",
                     id="departure-outside-day"),
        pytest.param(lambda: minimal_scenario(legs=[make_leg(dep_min=60, arr_min=1500)]),
                     "TimeOffGrid", "truck T1 day 0 leg 1: arrival block outside its day",
                     id="arrival-outside-day"),
        pytest.param(lambda: minimal_scenario(legs=[
                         make_leg(index=1, dest="R1", dep_min=60, arr_min=240),
                         make_leg(index=2, origin="R1", dest="DC", dep_min=120,
                                  arr_min=300)]),
                     "TimeOrder", "truck T1 day 0: leg 2 departs before leg 1 arrives",
                     id="leg-departs-before-previous-arrives"),
    ]

    @pytest.mark.parametrize("craft, code, message", BRANCHES)
    def test_each_branch_reports_its_finding(self, craft, code, message):
        scenario = craft()
        assert ValidationIssue(code, message) in scenario_issues(scenario)
        with pytest.raises(fc.ScenarioValidationError, match=re.escape(f"[{code}]")):
            fc.validate_scenario(scenario)

    def test_generator_output_validates(self, depot_scenario):
        errors = [i for i in scenario_issues(depot_scenario)
                  if i.severity == "error"]
        assert errors == []


class TestChargingWindows:
    def two_leg_scenario(self, slack_blocks=1):
        legs = [
            make_leg(index=1, origin="DC", dest="R1", dep_min=120, arr_min=180),
            make_leg(index=2, origin="R1", dest="DC", dep_min=300, arr_min=360),
        ]
        return fc.validate_scenario(minimal_scenario(
            legs=legs, slack_blocks=slack_blocks))

    def test_first_leg_opens_at_day_start(self):
        windows = charging_windows(self.two_leg_scenario())
        assert windows[("T1", 0, 1)].start == 0

    def test_window_closes_with_slack(self):
        scenario = self.two_leg_scenario(slack_blocks=2)
        windows = charging_windows(scenario)
        dep = scenario.time_grid.departure_block(scenario.legs[0])
        assert windows[("T1", 0, 1)].stop - 1 == dep + 2 - 1

    def test_later_leg_opens_at_previous_arrival(self):
        scenario = self.two_leg_scenario()
        windows = charging_windows(scenario)
        assert windows[("T1", 0, 2)].start == \
            scenario.time_grid.arrival_block(scenario.legs[0])

    def test_empty_window_reported_not_hidden(self, remote_scenario):
        tight = fc.validate_scenario(replace(remote_scenario, slack_blocks=0))
        empties = empty_window_legs(tight)
        assert ("TR", 0, 3) in empties
        warnings = [i for i in scenario_issues(tight) if i.code == "EmptyWindow"]
        assert warnings and all(w.severity == "warning" for w in warnings)

    def test_windows_clipped_to_day(self):
        leg = make_leg(dep_min=23 * 60 + 45, arr_min=23 * 60 + 59)
        scenario = minimal_scenario(legs=[leg], slack_blocks=4)
        windows = charging_windows(scenario)
        assert windows[("T1", 0, 1)].stop - 1 <= scenario.time_grid.day_end(0)


class TestTours:
    def test_tours_grouped_and_ordered(self, depot_scenario):
        grouped = fc.tours(depot_scenario)
        assert len(grouped) == 6  # 3 trucks x 2 days
        for legs in grouped.values():
            assert [leg.leg_index for leg in legs] == [1, 2]
            assert legs[0].destination_id == legs[1].origin_id

    def test_chain_connectivity(self, depot_scenario):
        for (_, _), legs in fc.tours(depot_scenario).items():
            for prev, nxt in zip(legs, legs[1:]):
                assert prev.destination_id == nxt.origin_id
