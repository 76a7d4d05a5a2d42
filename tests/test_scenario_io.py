"""Scenario JSON loading, saving, schema validation, round trips."""

import json
from pathlib import Path

import jsonschema
import pytest

import fleetcharge as fc
from fleetcharge.scenario_io import (
    load_design,
    load_schema,
    scenario_from_dict,
    scenario_to_dict,
    validate_against_schema,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_doc(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


class TestSchemas:
    @pytest.mark.parametrize("name", [
        "depot_fixture.json", "two_truck.json", "remote_variant.json"])
    def test_fixtures_validate(self, name):
        validate_against_schema(fixture_doc(name), "scenario")

    def test_schema_rejects_missing_sections(self):
        doc = fixture_doc("two_truck.json")
        del doc["trucks"]
        with pytest.raises(jsonschema.ValidationError):
            validate_against_schema(doc, "scenario")

    def test_schema_rejects_bad_clock(self):
        doc = fixture_doc("two_truck.json")
        doc["legs"][0]["departure"] = "25:00"
        with pytest.raises(jsonschema.ValidationError):
            validate_against_schema(doc, "scenario")

    def test_all_schemas_parse(self):
        for name in ("scenario", "plan_report", "explicit_design"):
            schema = load_schema(name)
            jsonschema.Draft202012Validator.check_schema(schema)


class TestDesignFiles:
    def test_integral_counts_load(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"DC": {"1": 2, "2": 0}, "R1": {}}))
        assert load_design(path) == {"DC": {1: 2, 2: 0}, "R1": {}}

    @pytest.mark.parametrize("counts", [
        {"DC": {"1": 2.7}}, {"DC": {"1": -1}}, {"DC": {"x": 1}}, {"DC": 3}])
    def test_schema_rejects_bad_counts(self, counts, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(counts))
        with pytest.raises(jsonschema.ValidationError):
            load_design(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "depot_fixture.json", "two_truck.json", "remote_variant.json"])
    def test_load_serialize_load_identical(self, name):
        first = fc.load_scenario(FIXTURES / name)
        again = scenario_from_dict(scenario_to_dict(first))
        assert again == first

    def test_serialized_doc_validates(self, depot_scenario):
        validate_against_schema(scenario_to_dict(depot_scenario), "scenario")

    def test_save_and_reload(self, tmp_path, depot_scenario):
        path = tmp_path / "s.json"
        fc.save_scenario(depot_scenario, path)
        assert fc.load_scenario(path) == depot_scenario
        expected = json.dumps(scenario_to_dict(depot_scenario), indent=2, sort_keys=True)
        assert path.read_bytes() == (expected + "\n").encode()


class TestLoaderDetails:
    def test_slack_must_be_whole_blocks(self):
        doc = fixture_doc("two_truck.json")
        doc["params"]["slack_minutes"] = 10  # 15-minute grid
        with pytest.raises(ValueError, match="whole"):
            scenario_from_dict(doc)

    def test_daily_price_profile_expands(self):
        doc = fixture_doc("two_truck.json")
        doc["time_grid"]["num_days"] = 2
        scenario = scenario_from_dict(doc, validate=False)
        assert len(scenario.price_schedule.energy_price_per_kwh[0]) == 192

    def test_wrong_price_length_rejected(self):
        doc = fixture_doc("two_truck.json")
        doc["prices"]["energy_per_kwh"] = [0.2] * 17
        with pytest.raises(ValueError, match="price profile"):
            scenario_from_dict(doc)

    def test_by_charger_prices(self):
        doc = fixture_doc("remote_variant.json")
        base = doc["prices"].pop("energy_per_kwh")
        doc["prices"]["by_charger"] = {
            str(tid): [p * (1 + 0.1 * i) for p in base]
            for i, tid in enumerate(c["id"] for c in doc["chargers"])
        }
        scenario = scenario_from_dict(doc)
        rows = scenario.price_schedule.energy_price_per_kwh
        assert rows[1][0] == pytest.approx(0.2 * 1.1)

    def test_initial_soe_defaults_to_full(self):
        doc = fixture_doc("two_truck.json")
        del doc["trucks"][0]["initial_soe_kwh"]
        scenario = scenario_from_dict(doc, validate=False)
        assert scenario.trucks[0].initial_soe_kwh == \
            scenario.trucks[0].battery_capacity_kwh

    def test_leg_order_defines_leg_index(self, remote_scenario):
        indices = [leg.leg_index for leg in remote_scenario.legs]
        assert indices == [1, 2, 3, 4]

    def test_day_boundary_clock(self):
        doc = fixture_doc("two_truck.json")
        doc["legs"][0]["arrival"] = "24:00"
        scenario = scenario_from_dict(doc, validate=False)
        leg = next(l for l in scenario.legs if l.truck_id == "TA")
        assert leg.scheduled_arrival_block == scenario.time_grid.blocks_per_day
