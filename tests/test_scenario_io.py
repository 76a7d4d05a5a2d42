"""Scenario JSON loading, saving, schema validation, round trips."""

import copy
import importlib
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import fleetcharge as fc
from fleetcharge.baseline import PeakDemandCover, compare_designs, rule_based_design
from fleetcharge.domain import scenario_variant
from fleetcharge.validator import plan_to_dict, write_plan_json
from fleetcharge.scenario_io import (
    design_counts_doc,
    json_text,
    load_design,
    load_schema,
    scenario_from_dict,
    scenario_to_dict,
    validate_against_schema,
    write_json,
)
from fleetcharge.schema_check import ANNOTATIONS, KEYWORDS, SchemaError, compile_schema

from oracles import run_fresh

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ["depot_fixture.json", "two_truck.json", "remote_variant.json"]
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
        with pytest.raises(SchemaError, match="'trucks' is a required property"):
            validate_against_schema(doc, "scenario")

    def test_schema_rejects_bad_clock(self):
        doc = fixture_doc("two_truck.json")
        doc["legs"][0]["departure"] = "25:00"
        with pytest.raises(SchemaError, match="legs/0/departure"):
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
        with pytest.raises(SchemaError):
            load_design(path)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=6),
        st.dictionaries(st.integers(0, 10**6), st.integers(0, 10**6), max_size=4),
        max_size=4))
    def test_design_document_round_trips(self, tmp_path_factory, counts):
        path = tmp_path_factory.getbasetemp() / "round_trip_design.json"
        write_json(design_counts_doc(counts), path)
        assert load_design(path) == counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_scenario_files_write_the_design_document(self, name, tmp_path):
        scenario = fc.load_scenario(FIXTURES / name)
        counts = rule_based_design(scenario, PeakDemandCover(1))
        fixed = fc.validate_scenario(scenario_variant(
            scenario, fc.FIXED_INFRASTRUCTURE, counts))
        doc = scenario_to_dict(fixed)
        assert doc["params"]["fixed_counts"] == design_counts_doc(fixed.fixed_counts)
        path = tmp_path / "design.json"
        write_json(doc["params"]["fixed_counts"], path)
        assert load_design(path) == counts

    def test_schema_errors_of_files_name_the_file(self, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {"1": 2.7}}))
        with pytest.raises(SchemaError) as err:
            load_design(design)
        assert str(err.value) == (
            f"{design}: schema violation at DC/1: 2.7 is not of type 'integer'")
        assert (err.value.path, err.value.message) == (
            ("DC", "1"), "2.7 is not of type 'integer'")
        doc = fixture_doc("two_truck.json")
        doc["params"]["alpha"] = "x"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            fc.load_scenario(scenario)
        assert str(err.value) == (
            f"{scenario}: schema violation at params/alpha: 'x' is not of type 'number'")
        assert err.value.path == ("params", "alpha")
        with pytest.raises(SchemaError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == "schema violation at params/alpha: 'x' is not of type 'number'"


SCHEMA_NAMES = ("scenario", "plan_report", "explicit_design")
REFERENCE = {name: jsonschema.Draft202012Validator(load_schema(name))
             for name in SCHEMA_NAMES}
DESIGN_DOC = {"DC": {"1": 2, "2": 0}, "R1": {}}


def assert_checkers_agree(doc, schema_name: str) -> None:
    """The in-repo checker and jsonschema give ``doc`` the same verdict. The
    violation reported is one jsonschema reports too, and it is the same
    one when jsonschema reports exactly one."""
    expected = [(list(error.absolute_path), error.message)
                for error in REFERENCE[schema_name].iter_errors(doc)]
    try:
        validate_against_schema(doc, schema_name)
    except SchemaError as exc:
        found = (list(exc.path), exc.message)
        assert expected, f"only the in-repo checker rejects: {found}"
        assert found in expected
        if len(expected) == 1:
            assert found == expected[0]
    else:
        assert not expected, f"only jsonschema rejects: {expected}"


def sub_schemas(schema: dict):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(),
              *schema.get("patternProperties", {}).values(),
              schema.get("additionalProperties"), schema.get("items")]
    for sub in nested:
        if isinstance(sub, dict):
            yield from sub_schemas(sub)


def schema_keywords(schema: dict):
    """Every keyword of ``schema`` and of the schemas nested in it."""
    for sub in sub_schemas(schema):
        yield from sub


def value_sites(value, schema: dict, path=()):
    """(path, schema, value) for the document root and every value under
    it that a schema governs."""
    yield path, schema, value
    if isinstance(value, dict):
        extra = schema.get("additionalProperties")
        for key, member in value.items():
            sub = schema.get("properties", {}).get(key) or next(
                (s for p, s in schema.get("patternProperties", {}).items()
                 if re.search(p, key)), None)
            if sub is None and isinstance(extra, dict):
                sub = extra
            if sub is not None:
                yield from value_sites(member, sub, (*path, key))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from value_sites(item, schema["items"], (*path, index))


def json_kind(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "integer" if float(value).is_integer() else "number"


OTHER_KINDS = [None, True, 3, 2.5, "7", [], {}]
BROKEN_CLOCKS = ["25:00", "7:5", "12:60", "noon", "", "12:00 ", "12:00\n", "1200", "-1:00"]


def single_faults(doc, schema: dict) -> list:
    """Every single-fault edit of ``doc`` as (path, op, argument): drop a
    key, add one, replace a value by one of another JSON kind, by a number
    just past a bound, a broken clock, an empty list or string, or a value
    outside an enum."""
    faults = []
    for path, sub, value in value_sites(doc, schema):
        faults += [(path, "set", other) for other in OTHER_KINDS
                   if json_kind(other) != json_kind(value)]
        integer = sub.get("type") == "integer"
        if "minimum" in sub:
            least = sub["minimum"]
            faults.append((path, "set", least - 1 if integer else math.nextafter(least, -math.inf)))
        if "maximum" in sub:
            most = sub["maximum"]
            faults.append((path, "set", most + 1 if integer else math.nextafter(most, math.inf)))
        if "exclusiveMinimum" in sub:
            faults.append((path, "set", sub["exclusiveMinimum"]))
        if "pattern" in sub:
            faults += [(path, "set", clock) for clock in BROKEN_CLOCKS]
        if "minItems" in sub:
            faults.append((path, "set", []))
        if "minLength" in sub:
            faults.append((path, "set", ""))
        if "enum" in sub:
            faults.append((path, "set", "not-an-option"))
        if isinstance(value, dict):
            faults += [(path, "drop", key) for key in value]
            faults += [(path, "add", key) for key in ("zz_extra", "99", "01", "1\n")]
    return faults


def apply_fault(doc, fault):
    path, op, argument = fault
    doc = copy.deepcopy(doc)
    if op == "set" and not path:
        return argument
    *parents, last = path if op == "set" else (*path, argument)
    target = doc
    for key in parents:
        target = target[key]
    if op == "set":
        target[last] = copy.deepcopy(argument)
    elif op == "drop":
        del target[last]
    else:
        target[last] = 1
    return doc


@pytest.fixture(scope="session")
def base_documents(two_truck_outcome, depot_base_outcome):
    """(schema name, document, its single faults) for each fixture, a
    design file and two plan documents, as they read back from JSON."""
    plans = [json.loads(json_text(plan_to_dict(outcome.plan)))
             for outcome in (two_truck_outcome, depot_base_outcome)]
    docs = ([("scenario", fixture_doc(name)) for name in FIXTURE_NAMES]
            + [("explicit_design", DESIGN_DOC)]
            + [("plan_report", plan) for plan in plans])
    return [(name, doc, single_faults(doc, load_schema(name))) for name, doc in docs]


class TestSchemaCheck:
    """The in-repo checker against jsonschema, the reference it replaces."""

    def test_valid_documents_agree(self, base_documents):
        for schema_name, doc, _ in base_documents:
            validate_against_schema(doc, schema_name)
            assert_checkers_agree(doc, schema_name)

    @pytest.mark.parametrize("seed,n_trucks,block_minutes", [
        (0, 1, 15), (1, 3, 15), (2, 5, 30), (3, 2, 5), (4, 8, 10)])
    def test_saved_generated_scenarios_agree(self, seed, n_trucks, block_minutes,
                                             tmp_path):
        path = tmp_path / "generated.json"
        fc.save_scenario(fc.generate_synthetic(
            seed, n_trucks=n_trucks, block_minutes=block_minutes), path)
        assert_checkers_agree(json.loads(path.read_text()), "scenario")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_single_faults_agree(self, base_documents, data):
        # Indices, not documents, are drawn, so Hypothesis never prints one.
        schema_name, doc, faults = base_documents[
            data.draw(st.integers(0, len(base_documents) - 1))]
        fault = faults[data.draw(st.integers(0, len(faults) - 1))]
        note(f"{schema_name} fault {fault}")
        assert_checkers_agree(apply_fault(doc, fault), schema_name)

    def test_every_fault_kind_is_drawn(self, base_documents):
        """Each kind of fault the property draws from breaks a fixture."""
        broken = [fault[1:] for fault in base_documents[0][2]]
        for expected in [("drop", "trucks"), ("add", "zz_extra"), ("add", "01"),
                         ("add", "1\n"), ("set", "noon"), ("set", "12:00\n"),
                         ("set", []), ("set", ""), ("set", "not-an-option"),
                         ("set", 0), ("set", 1441), ("set", -1)]:
            assert expected in broken, expected

    def test_the_first_violation_in_document_order_is_reported(self):
        doc = fixture_doc("two_truck.json")
        doc["legs"][1]["departure"] = "noon"
        doc["trucks"][1]["battery_kwh"] = 0
        with pytest.raises(SchemaError) as err:
            validate_against_schema(doc, "scenario")
        assert err.value.path == ("trucks", 1, "battery_kwh")
        assert err.value.message == "0 is less than or equal to the minimum of 0"
        legs_first = {"legs": doc.pop("legs"), **doc}
        with pytest.raises(SchemaError) as err:
            validate_against_schema(legs_first, "scenario")
        assert err.value.path == ("legs", 1, "departure")
        assert str(err.value) == ("schema violation at legs/1/departure: 'noon' does not "
                                  "match '^([01]?[0-9]|2[0-4]):[0-5][0-9](?!\\\\n)$'")

    def test_every_bundled_regex_rejects_a_trailing_newline(self):
        # Python's "$" also matches before a final newline, and int("1\n")
        # is 1, so a regex ending in a bare "$" would let "1\n" alias type 1.
        samples = ["0", "1", "42", "08:00", "24:00", "7:05"]
        regexes = []  # (regex, a schema that applies it, the document it checks)
        for sub in (sub for name in SCHEMA_NAMES for sub in sub_schemas(load_schema(name))):
            if "pattern" in sub:
                regexes.append((sub["pattern"], {"pattern": sub["pattern"]},
                                lambda text: text))
            regexes += [(regex, {"patternProperties": {regex: {}},
                                 "additionalProperties": False}, lambda text: {text: 1})
                        for regex in sub.get("patternProperties", {})]
        assert len(regexes) == 7  # two clocks and five charger-type keys
        for regex, schema, document in regexes:
            matches = [text for text in samples if re.search(regex, text)]
            assert matches, regex
            check = compile_schema(schema)
            for text in matches:
                check(document(text))
                with pytest.raises(SchemaError):
                    check(document(text + "\n"))
                assert not jsonschema.Draft202012Validator(schema).is_valid(
                    document(text + "\n"))

    @pytest.mark.parametrize("value", [
        0, 1, 1.0, -1, -1.0, 0.5, True, False, None, "1", [1],
        math.nan, math.inf, -math.inf, 10**20])
    @pytest.mark.parametrize("schema", [
        {"type": "integer", "minimum": 0},
        {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        {"type": ["number", "null"]},
        {"enum": ["codesign", "fixed"]},
    ])
    def test_json_number_semantics_agree(self, schema, value):
        expected = [error.message for error in
                    jsonschema.Draft202012Validator(schema).iter_errors(value)]
        try:
            compile_schema(schema)(value)
        except SchemaError as exc:
            assert exc.path == ()
            assert exc.message in expected
        else:
            assert expected == []

    @pytest.mark.parametrize("schema, message", [
        ({"type": "object", "properties": {"a": {}}, "additionalProperties": False},
         "['b'] is not of type 'object'"),
        ({"additionalProperties": False}, None),
    ], ids=["typed", "untyped"])
    def test_closed_object_schema_ignores_other_values(self, schema, message):
        # additionalProperties constrains objects only: a list is reported
        # for its type alone, or passes where no type is required.
        expected = [error.message for error in
                    jsonschema.Draft202012Validator(schema).iter_errors(["b"])]
        assert expected == ([] if message is None else [message])
        if message is None:
            compile_schema(schema)(["b"])
            return
        with pytest.raises(SchemaError) as err:
            compile_schema(schema)(["b"])
        assert (err.value.path, err.value.message) == ((), message)

    def test_bundled_schemas_use_exactly_the_supported_keywords(self):
        used = set()
        for name in SCHEMA_NAMES:
            used.update(schema_keywords(load_schema(name)))
        assert used - ANNOTATIONS == KEYWORDS

    @pytest.mark.parametrize("schema", [
        {"type": "object", "oneOf": []}, {"items": {"const": 1}},
        {"enum": [1, 2]}, {"type": "decimal"}])
    def test_unsupported_schema_is_refused(self, schema):
        with pytest.raises(ValueError, match="unsupported"):
            compile_schema(schema)


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

    def test_fixed_design_scenario_file_round_trips(self, tmp_path, depot_scenario):
        counts = {"DEPOT": {1: 2, 2: 1}, "R02": {1: 1}}
        doc = fixture_doc("depot_fixture.json")
        doc["params"].update(design_mode="fixed", fixed_counts={
            location: {str(tid): n for tid, n in per.items()}
            for location, per in counts.items()})
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        loaded = fc.load_scenario(path)
        assert (loaded.design_mode, loaded.fixed_counts) == ("fixed", counts)
        fc.save_scenario(loaded, tmp_path / "saved.json")
        assert fc.load_scenario(tmp_path / "saved.json") == loaded

        variant = fc.validate_scenario(scenario_variant(
            depot_scenario, fc.FIXED_INFRASTRUCTURE, counts))
        assert loaded == variant
        assert (fc.build_problem(loaded).model.to_lp_format()
                == fc.build_problem(variant).model.to_lp_format())

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

    def test_by_charger_prices_for_unknown_type_rejected(self):
        doc = fixture_doc("depot_fixture.json")
        doc["prices"]["by_charger"]["99"] = doc["prices"]["by_charger"]["1"]
        with pytest.raises(ValueError, match="unknown charger type 99"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["01", "00", "001", "1\n", "0\n"])
    def test_non_canonical_charger_type_key_rejected(self, key, tmp_path):
        # int() reads "01" and "1\n" as 1, so such a key would alias type 1 or 0.
        quoted = re.escape(repr(key))
        doc = fixture_doc("depot_fixture.json")
        doc["prices"]["by_charger"][key] = [9.0] * len(doc["prices"]["by_charger"]["1"])
        with pytest.raises(SchemaError, match=f"at prices/by_charger: {quoted} does not match"):
            scenario_from_dict(doc)
        doc = fixture_doc("two_truck.json")
        doc["params"]["fixed_counts"] = {"DC": {"1": 2, key: 3}}
        with pytest.raises(SchemaError, match=f"at params/fixed_counts/DC: {quoted} does not"):
            scenario_from_dict(doc)
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {key: 2}}))
        with pytest.raises(SchemaError, match=f"at DC: {quoted} does not match"):
            load_design(design)

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
    """The one JSON writer against ``json.dumps(doc, indent=2, sort_keys=True)``,
    and each JSON file as that text and one newline."""

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_matches_indented_dumps(self, doc):
        assert json_text(doc) == reference_text(doc)

    def test_plan_document(self, depot_base_outcome, tmp_path):
        """A plan amortizes at its own scenario's ratio: the depot fixture
        covers two days."""
        path = tmp_path / "plan.json"
        write_plan_json(depot_base_outcome.plan, path)
        doc = plan_to_dict(depot_base_outcome.plan)
        assert doc["costs_amortized"]["amortization_ratio"] == 2 / 3650
        assert path.read_text() == json_text(doc) + "\n"
        assert path.read_bytes() == (reference_text(doc) + "\n").encode()

    def test_sweep_summary(self, two_truck_scenario, tmp_path):
        spec = fc.SweepSpec(alphas=[1.0], slack_minutes=[0, 15],
                            designs=["codesign", "fixed"], fixed_counts={"DC": {1: 2}},
                            rel_gap=1e-3, out_dir=tmp_path)
        summary = fc.run_sweep(two_truck_scenario, spec)
        assert (tmp_path / "summary.json").read_bytes() == \
            (reference_text(summary) + "\n").encode()

    def test_saved_scenario(self, depot_scenario, tmp_path):
        scenario = fc.validate_scenario(scenario_variant(
            depot_scenario, fc.FIXED_INFRASTRUCTURE, {"DEPOT": {2: 3}, "R01": {1: 1}}))
        path = tmp_path / "scenario.json"
        fc.save_scenario(scenario, path)
        assert path.read_bytes() == \
            (reference_text(scenario_to_dict(scenario)) + "\n").encode()

    def test_compare_document(self, two_truck_scenario, tmp_path):
        doc = compare_designs(two_truck_scenario, {"DC": {1: 2}}, rel_gap=1e-3)
        path = tmp_path / "compare.json"
        write_json(doc, path)
        assert path.read_bytes() == (reference_text(doc) + "\n").encode()

    @pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1, 2.5: 0}]])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(doc)

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            json_text({"a": [object()]})


# The package's public names, pinned so that the namespace cannot shrink.
PUBLIC_NAMES = {
    "CODESIGN", "FIXED_INFRASTRUCTURE", "BuildResult", "ChargerType", "CostBreakdown",
    "ExplicitDesign", "LinearModel", "MainDepotOnly", "PeakDemandCover", "PlanReport",
    "PriceSchedule", "Scenario", "ScenarioValidationError", "SchemaError", "Solution",
    "SolveOutcome", "SolveStatus", "SweepSpec", "TimeGrid", "TripLeg", "Truck",
    "VariableCatalog", "branch_and_bound", "build_problem", "charging_windows",
    "compare_designs", "decode_plan", "default_amortize_ratio", "default_charger_catalog",
    "energy_consumption", "generate_synthetic", "load_scenario", "location_peaks_kw",
    "parse_policy", "recompute_costs", "replay", "rule_based_design", "run_sweep",
    "save_scenario", "scenario_from_dict", "scenario_issues", "scenario_to_dict",
    "solve_scenario", "tours", "validate_scenario",
}

# Modules that only solving and writing outputs need.
SOLVE_PATH_MODULES = {"csv", "numpy", "fleetcharge.model", "fleetcharge.solver"}


class TestImports:
    def test_schema_checks_leave_jsonschema_out(self, tmp_path):
        """The CLI and the schema-checked loaders run without jsonschema."""
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"DC": {"1": 2, "2": 0}, "R1": {}}))
        loads = "".join(f"fleetcharge.load_scenario({str(FIXTURES / name)!r})\n"
                        for name in FIXTURE_NAMES)
        result = run_fresh(
            "import sys\n"
            "import fleetcharge.cli\n"
            "assert 'jsonschema' not in sys.modules, 'imported with the CLI'\n"
            + loads +
            f"fleetcharge.scenario_io.load_design({str(design)!r})\n"
            "assert 'jsonschema' not in sys.modules, 'imported by a schema check'\n")
        assert result.returncode == 0, result.stderr

    def test_scenario_path_leaves_numpy_and_the_solver_out(self):
        """Each public name loads its submodule on first use, so loading,
        checking and generating a scenario, and reading its capital share,
        import no numpy, no solver and no csv."""
        result = run_fresh(
            "import sys\n"
            "import fleetcharge as fc\n"
            f"s = fc.load_scenario({str(FIXTURES / 'depot_fixture.json')!r})\n"
            "assert fc.scenario_issues(s) == []\n"
            "assert fc.default_amortize_ratio(s) == 2 / 3650\n"
            "fc.scenario_to_dict(fc.generate_synthetic(1, n_trucks=5))\n"
            f"loaded = {SOLVE_PATH_MODULES} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
        assert result.returncode == 0, result.stderr

    def test_building_a_model_leaves_numpy_and_the_solver_out(self):
        """A model is plain data: building one and writing its LP text
        import no numpy, no solver and no csv."""
        result = run_fresh(
            "import sys\n"
            "import fleetcharge as fc\n"
            f"s = fc.load_scenario({str(FIXTURES / 'depot_fixture.json')!r})\n"
            "assert fc.build_problem(s).model.to_lp_format().endswith('End\\n')\n"
            "loaded = {'csv', 'numpy', 'fleetcharge.solver'} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
        assert result.returncode == 0, result.stderr

    def test_validate_and_generate_commands_leave_numpy_and_the_solver_out(self, tmp_path):
        """Only the solving subcommands import numpy, the solver and csv."""
        result = run_fresh(
            "import sys\n"
            "from fleetcharge.cli import main\n"
            f"assert main(['validate', '--scenario', {str(FIXTURES / 'depot_fixture.json')!r}]) == 0\n"
            f"assert main(['generate', '--seed', '1', '--out', {str(tmp_path / 's.json')!r}]) == 0\n"
            f"loaded = {SOLVE_PATH_MODULES} & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n")
        assert result.returncode == 0, result.stderr

    def test_solve_command_leaves_the_sweep_out(self, tmp_path):
        """``solve`` writes its plan without the sweep module."""
        result = run_fresh(
            "import sys\n"
            "from fleetcharge.cli import main\n"
            f"assert main(['solve', '--scenario', {str(FIXTURES / 'two_truck.json')!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'fleetcharge.sweep' not in sys.modules, 'imported by solve'\n")
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "plan.json").exists()

    def test_submodule_loads_on_first_attribute_access(self):
        """``fc.<submodule>`` imports that submodule when first read."""
        result = run_fresh(
            "import sys\n"
            "import fleetcharge as fc\n"
            "assert 'fleetcharge.sweep' not in sys.modules, 'imported with the package'\n"
            "assert fc.sweep is sys.modules['fleetcharge.sweep']\n"
            "assert fc.sweep.run_sweep is fc.run_sweep\n")
        assert result.returncode == 0, result.stderr

    def test_every_public_name_resolves_to_its_home(self):
        assert set(fc.__all__) == PUBLIC_NAMES
        for module, names in fc._EXPORTS.items():
            home = importlib.import_module(f"fleetcharge.{module}")
            assert getattr(fc, module) is home
            for name in names:
                assert getattr(fc, name) is getattr(home, name), name
        assert set(dir(fc)) >= set(fc.__all__)
        namespace = {}
        exec("from fleetcharge import *", namespace)
        assert set(namespace) >= set(fc.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            fc.no_such_name

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
