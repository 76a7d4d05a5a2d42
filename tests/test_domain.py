"""Domain types, validation, quantization, and charging windows."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcharge as fc
from fleetcharge.domain import (
    WINDOW_SAME_LEG_ARRIVAL,
    TimeGrid,
    charging_windows,
    empty_window_legs,
    scenario_issues,
)


def minimal_scenario(legs=(), trucks=None, locations=("DC", "R1"),
                     num_days=1, slack_blocks=0, chargers=None, **kwargs):
    grid = TimeGrid.from_minutes(15, num_days)
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


def make_leg(truck="T1", day=0, index=1, origin="DC", dest="R1",
             dep_min=60, arr_min=120, km=50.0, tons=10.0):
    return fc.TripLeg(
        truck_id=truck, day=day, leg_index=index,
        origin_id=origin, destination_id=dest,
        scheduled_departure_block=0, scheduled_arrival_block=0,
        travel_blocks=0, distance_km=km, payload_tons=tons,
        departure_clock_min=dep_min, arrival_clock_min=arr_min,
    )


class TestTimeGrid:
    def test_from_minutes(self):
        grid = TimeGrid.from_minutes(15, 2)
        assert grid.blocks_per_day == 96
        assert grid.block_duration_hours == 0.25
        assert grid.total_blocks == 192
        assert grid.day_start(1) == 96
        assert grid.day_of_block(100) == 1
        assert grid.block_of_day(100) == 4

    def test_rejects_uneven_blocks(self):
        with pytest.raises(ValueError):
            TimeGrid.from_minutes(7, 1)

    def test_inconsistent_grid_flagged(self):
        scenario = minimal_scenario()
        bad = replace(scenario, time_grid=TimeGrid(0.26, 96, 1))
        codes = {i.code for i in scenario_issues(bad)}
        assert "TimeOffGrid" in codes


class TestQuantize:
    def test_departure_rounds_down(self):
        leg = make_leg(dep_min=187, arr_min=240)  # 03:07 -> 03:00
        scenario = fc.quantize_times(minimal_scenario(legs=[leg]))
        assert scenario.legs[0].scheduled_departure_block == 12

    def test_arrival_rounds_up(self):
        leg = make_leg(dep_min=60, arr_min=187)  # 03:07 -> 03:15
        scenario = fc.quantize_times(minimal_scenario(legs=[leg]))
        assert scenario.legs[0].scheduled_arrival_block == 13

    def test_travel_blocks_ceil(self):
        leg = make_leg(dep_min=60, arr_min=110)  # 50 minutes
        scenario = fc.quantize_times(minimal_scenario(legs=[leg]))
        assert scenario.legs[0].travel_blocks == 4

    def test_day_offset(self):
        leg = make_leg(day=1, dep_min=187, arr_min=240)
        scenario = fc.quantize_times(minimal_scenario(legs=[leg], num_days=2))
        assert scenario.legs[0].scheduled_departure_block == 96 + 12

    @settings(max_examples=60, deadline=None)
    @given(
        dep=st.integers(min_value=0, max_value=1200),
        duration=st.integers(min_value=1, max_value=200),
        block_minutes=st.sampled_from([5, 10, 15, 20, 30, 60]),
    )
    def test_idempotent(self, dep, duration, block_minutes):
        grid = TimeGrid.from_minutes(block_minutes, 1)
        leg = make_leg(dep_min=dep, arr_min=dep + duration)
        scenario = replace(minimal_scenario(legs=[leg]), time_grid=grid)
        once = fc.quantize_times(scenario)
        twice = fc.quantize_times(once)
        assert once == twice


class TestValidation:
    def test_empty_scenario_is_valid(self):
        fc.validate_scenario(minimal_scenario())

    def test_chain_broken(self):
        legs = [
            make_leg(index=1, origin="DC", dest="R1", dep_min=60, arr_min=120),
            make_leg(index=2, origin="DC", dest="R1", dep_min=180, arr_min=240),
        ]
        scenario = fc.quantize_times(minimal_scenario(legs=legs))
        with pytest.raises(fc.ScenarioValidationError) as err:
            fc.validate_scenario(scenario)
        assert any(i.code == "ChainBroken" for i in err.value.issues)

    def test_unknown_references(self):
        legs = [make_leg(truck="GHOST"), make_leg(origin="NOWHERE", dep_min=300, arr_min=360)]
        scenario = fc.quantize_times(minimal_scenario(legs=legs))
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
        leg = replace(make_leg(), departure_clock_min=None, arrival_clock_min=None,
                      scheduled_departure_block=10, scheduled_arrival_block=5,
                      travel_blocks=1)
        scenario = minimal_scenario(legs=[leg])
        assert any(i.code == "TimeOrder" for i in scenario_issues(scenario))

    def test_unquantized_clock_times_flagged(self):
        leg = make_leg(dep_min=187, arr_min=240)  # blocks left at 0
        scenario = minimal_scenario(legs=[leg])
        assert any(i.code == "TimeOffGrid" for i in scenario_issues(scenario))

    def test_all_violations_enumerated(self):
        legs = [
            make_leg(truck="GHOST"),
            make_leg(index=2, origin="NOWHERE", dep_min=300, arr_min=360),
        ]
        scenario = minimal_scenario(legs=legs)
        issues = [i for i in scenario_issues(scenario) if i.severity == "error"]
        assert len(issues) >= 3  # both reference errors plus quantization

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
        scenario = fc.quantize_times(minimal_scenario(
            legs=legs, slack_blocks=slack_blocks))
        return fc.validate_scenario(scenario)

    def test_first_leg_opens_at_day_start(self):
        windows = charging_windows(self.two_leg_scenario())
        assert windows[("T1", 0, 1)].start == 0

    def test_window_closes_with_slack(self):
        scenario = self.two_leg_scenario(slack_blocks=2)
        windows = charging_windows(scenario)
        dep = scenario.legs[0].scheduled_departure_block
        assert windows[("T1", 0, 1)].stop - 1 == dep + 2 - 1

    def test_later_leg_opens_at_previous_arrival(self):
        scenario = self.two_leg_scenario()
        windows = charging_windows(scenario)
        assert windows[("T1", 0, 2)].start == scenario.legs[0].scheduled_arrival_block

    def test_same_leg_arrival_mode(self):
        scenario = replace(self.two_leg_scenario(),
                           window_mode=WINDOW_SAME_LEG_ARRIVAL)
        windows = charging_windows(scenario)
        assert windows[("T1", 0, 2)].start == scenario.legs[1].scheduled_arrival_block
        # Arrival after departure makes the literal window empty.
        assert len(windows[("T1", 0, 2)]) == 0

    def test_empty_window_reported_not_hidden(self, remote_scenario):
        tight = fc.validate_scenario(replace(remote_scenario, slack_blocks=0))
        empties = empty_window_legs(tight)
        assert ("TR", 0, 3) in empties
        warnings = [i for i in scenario_issues(tight) if i.code == "EmptyWindow"]
        assert warnings and all(w.severity == "warning" for w in warnings)

    def test_windows_clipped_to_day(self):
        leg = make_leg(dep_min=23 * 60 + 45, arr_min=23 * 60 + 59)
        scenario = fc.quantize_times(minimal_scenario(legs=[leg], slack_blocks=4))
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
