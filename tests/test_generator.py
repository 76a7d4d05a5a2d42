"""Synthetic scenario generation: determinism, structure, knobs."""

import json

import pytest

import fleetcharge as fc
from fleetcharge.domain import charging_windows, scenario_issues
from fleetcharge.generator import default_charger_catalog, generate_synthetic
from fleetcharge.scenario_io import scenario_to_dict


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate_synthetic(seed=1)
        b = generate_synthetic(seed=1)
        assert a == b
        assert json.dumps(scenario_to_dict(a), sort_keys=True) == \
            json.dumps(scenario_to_dict(b), sort_keys=True)

    def test_different_seeds_differ(self):
        assert generate_synthetic(seed=1) != generate_synthetic(seed=2)

    def test_matches_bundled_fixture(self, depot_scenario):
        assert generate_synthetic(seed=1) == depot_scenario


class TestStructure:
    def test_chain_consistent_tours(self):
        scenario = generate_synthetic(seed=5, n_trucks=4, n_locations=6, n_days=3)
        assert not [i for i in scenario_issues(scenario) if i.severity == "error"]
        for legs in fc.tours(scenario).values():
            assert legs[0].origin_id == "DEPOT"
            assert legs[-1].destination_id == "DEPOT"
            for prev, nxt in zip(legs, legs[1:]):
                assert prev.destination_id == nxt.origin_id

    def test_catalog_is_production_lineup(self):
        catalog = default_charger_catalog()
        assert [c.rated_power_kw for c in catalog] == [60, 180, 360, 720, 1180]
        assert [c.capital_cost for c in catalog] == \
            [20000, 50000, 90000, 150000, 300000]
        assert [c.efficiency for c in catalog] == [0.98, 0.98, 0.97, 0.97, 0.97]

    def test_prices_cover_every_block(self):
        scenario = generate_synthetic(seed=3, n_days=2)
        for row in scenario.price_schedule.energy_price_per_kwh:
            assert len(row) == scenario.time_grid.total_blocks

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=1, n_trucks=0)
        with pytest.raises(ValueError):
            generate_synthetic(seed=1, n_locations=1)
        with pytest.raises(ValueError):
            generate_synthetic(seed=1, tightness=1.5)


class TestTightness:
    def test_zero_tightness_minimizes_windows(self):
        loose = generate_synthetic(seed=4, tightness=1.0)
        tight = generate_synthetic(seed=4, tightness=0.0)

        def dwell_total(scenario):
            windows = charging_windows(scenario)
            return sum(
                len(windows[(leg.truck_id, leg.day, leg.leg_index)])
                for leg in scenario.legs if leg.leg_index == 2)

        assert dwell_total(tight) < dwell_total(loose)

    def test_infeasible_under_zero_chargers(self):
        from dataclasses import replace

        scenario = generate_synthetic(seed=4, tightness=0.0, n_days=1)
        starved = fc.validate_scenario(replace(
            scenario, design_mode=fc.FIXED_INFRASTRUCTURE, fixed_counts={}))
        outcome = fc.solve_scenario(starved, rel_gap=1e-3)
        assert outcome.solution.status == fc.SolveStatus.INFEASIBLE


class TestSolvability:
    def test_fixture_validates_and_solves(self, depot_lab, depot_base_outcome):
        assert depot_base_outcome.solution.status == fc.SolveStatus.OPTIMAL
        assert depot_base_outcome.solution.gap <= 0.01
