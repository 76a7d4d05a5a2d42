"""Scenario JSON loading, saving, schema validation, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcharge as fc
from fleetcharge.baseline import compare_designs
from fleetcharge.validator import plan_to_dict
from fleetcharge.scenario_io import (
    json_text,
    load_design,
    load_schema,
    scenario_from_dict,
    scenario_to_dict,
    validate_against_schema,
)

FIXTURES = Path(__file__).parent / "fixtures"
GENERATOR_BLOCKS = [b for b in range(1, 31) if 1440 % b == 0]


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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_days=st.integers(min_value=1, max_value=3),
        tightness=st.floats(min_value=0.0, max_value=1.0),
        block_minutes=st.sampled_from(GENERATOR_BLOCKS),
    )
    def test_generated_scenario_round_trips(self, seed, n_days, tightness,
                                            block_minutes):
        scenario = fc.generate_synthetic(seed, n_days=n_days, tightness=tightness,
                                         block_minutes=block_minutes)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

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
        assert scenario.time_grid.arrival_block(leg) == scenario.time_grid.blocks_per_day


def reference_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# Trees of every kind of value the standard encoder writes, with str keys.
# The number lists are drawn on their own too, so the compact-encoder path
# meets nan, infinities and -0.0.
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
NUMBERS = st.one_of(st.integers(), FLOATS)
LEAVES = st.one_of(
    st.none(), st.booleans(), NUMBERS, FLOATS.map(np.float64),
    st.text(), st.sampled_from(["", "é", "\u2603", "\n\t\"\\", "\x00", "\U0001f600"]),
    st.lists(NUMBERS, max_size=6), st.lists(NUMBERS, max_size=6).map(tuple))
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=30)


class TestJsonText:
    """The one JSON writer against ``json.dumps(doc, indent=2, sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_matches_indented_dumps(self, doc):
        assert json_text(doc) == reference_text(doc)

    def test_plan_document(self, depot_base_outcome):
        doc = plan_to_dict(depot_base_outcome.plan, 1 / 3650)
        assert json_text(doc) == reference_text(doc)

    def test_sweep_summary(self, two_truck_scenario, tmp_path):
        spec = fc.SweepSpec(alphas=[1.0], slack_minutes=[0, 15],
                            designs=["codesign", "fixed"], fixed_counts={"DC": {1: 2}},
                            rel_gap=1e-3, out_dir=tmp_path)
        summary = fc.run_sweep(two_truck_scenario, spec)
        assert json_text(summary) == reference_text(summary)

    def test_compare_document(self, two_truck_scenario):
        doc = compare_designs(two_truck_scenario, {"DC": {1: 2}}, rel_gap=1e-3).to_dict()
        assert json_text(doc) == reference_text(doc)

    @pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}]])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(doc)

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            json_text({"a": [object()]})


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this package."""
    src = Path(fc.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


class TestImports:
    def test_jsonschema_loads_with_the_first_schema_check(self):
        """``import fleetcharge`` leaves jsonschema out; loading a scenario,
        which checks it against its schema, brings it in."""
        result = run_fresh(
            "import sys\n"
            "import fleetcharge\n"
            "assert 'jsonschema' not in sys.modules, 'imported with the package'\n"
            f"fleetcharge.load_scenario({str(FIXTURES / 'two_truck.json')!r})\n"
            "assert 'jsonschema' in sys.modules\n")
        assert result.returncode == 0, result.stderr

    def test_solve_and_sweep_leave_numpy_ma_out(self, tmp_path):
        """numpy.ma costs about 1 MB of resident memory; calls such as
        ``np.unique`` import it lazily, so a solve and a sweep must not."""
        result = run_fresh(
            "import sys\n"
            "import fleetcharge as fc\n"
            f"s = fc.load_scenario({str(FIXTURES / 'depot_fixture.json')!r})\n"
            "assert fc.solve_scenario(s).plan is not None\n"
            "spec = fc.SweepSpec(alphas=[1.0], slack_minutes=[0], "
            f"designs=[fc.CODESIGN], out_dir={str(tmp_path)!r})\n"
            "fc.run_sweep(s, spec)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        assert result.returncode == 0, result.stderr
