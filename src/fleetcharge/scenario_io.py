"""Scenario and design JSON loading, saving, and schema validation, and
the one home of each file format: every JSON file goes through
:func:`write_json`, every CSV file through :func:`write_csv`, and the
design document ``{location: {type_id: count}}`` is written by
:func:`design_counts_doc` and read by :func:`load_design`.

The on-disk format keeps human conventions (times as "HH:MM" plus a day
index, slack in minutes). Legs load as clock minutes, from which the
scenario's block grid derives their blocks; slack loads as whole blocks.
Field names are frozen in ``schemas/scenario.schema.json``, and each
bundled schema is checked by ``schema_check``, compiled once per process.
"""

from __future__ import annotations

import contextlib
import functools
import json
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable

from .domain import (
    CODESIGN,
    ChargerType,
    PriceSchedule,
    Scenario,
    TimeGrid,
    TripLeg,
    Truck,
    validate_scenario,
)
from .schema_check import SchemaError, compile_schema

__all__ = [
    "load_scenario",
    "load_design",
    "scenario_from_dict",
    "scenario_to_dict",
    "save_scenario",
    "load_schema",
    "validate_against_schema",
    "json_text",
    "write_json",
    "write_csv",
    "design_counts_doc",
]


def load_schema(name: str) -> dict:
    """Load one of the bundled JSON schemas (e.g. ``"scenario"``)."""
    path = resources.files("fleetcharge.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


@functools.cache
def _schema_check(name: str):
    """The bundled schema's checker, compiled once per process. The schemas
    themselves are checked against their metaschema by the test suite."""
    return compile_schema(load_schema(name))


def validate_against_schema(document: dict, schema_name: str) -> None:
    """Raise a ``SchemaError`` for the document's first violation of the
    bundled schema ``schema_name``, if it has one."""
    _schema_check(schema_name)(document)


_PLAIN_NUMBERS = frozenset({int, float})


def json_text(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, for documents
    whose dict keys are all strings (any other key raises TypeError).

    ``indent`` makes the standard library fall back to its pure-Python
    encoder. This walks dicts and lists in Python and hands each list of
    plain ints and floats, the bulk of a plan, to the C compact encoder,
    whose ``", "`` separators are then re-indented (no number's text holds
    one).
    """
    return _json_text(doc, "\n")


def _json_text(value: Any, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [f"{encode_basestring_ascii(key)}: "
                 f"{_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) <= _PLAIN_NUMBERS:
            body = json.dumps(value)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_json_text(item, inner) for item in value)
        return "[" + inner + body + newline + "]"
    # Scalars: the compact encoder writes them as the indenting one does.
    return json.dumps(value)


def write_json(doc: Any, path: str | Path) -> str:
    """Write ``json_text(doc)`` and a newline to ``path``; return the
    ``json_text``."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write a header and rows to ``path`` with ``csv``'s default dialect."""
    import csv  # here, so that loading a scenario imports no csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_clock(text: str) -> int:
    """\"HH:MM\" to minutes past midnight; hour 24 marks the day boundary."""
    hours, minutes = text.split(":")
    h, m = int(hours), int(minutes)
    if not (0 <= h <= 24) or not (0 <= m <= 59) or (h == 24 and m != 0):
        raise ValueError(f"invalid clock time {text!r}")
    return h * 60 + m


def _format_clock(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _expand_price_row(row: list[float], grid: TimeGrid, label: str) -> tuple[float, ...]:
    if len(row) == grid.total_blocks:
        return tuple(float(p) for p in row)
    if len(row) == grid.blocks_per_day:
        return tuple(float(p) for p in row) * grid.num_days
    raise ValueError(
        f"price profile {label} has {len(row)} entries; expected "
        f"{grid.blocks_per_day} (daily) or {grid.total_blocks} (full period)")


def design_counts_doc(counts: dict[str, dict[int, int]]) -> dict[str, dict[str, int]]:
    """Charger counts as the design format ``{location: {type_id: count}}``,
    keys sorted; :func:`_design_counts` reads it back."""
    return {loc: {str(tid): int(n) for tid, n in sorted(per.items())}
            for loc, per in sorted(counts.items())}


def _design_counts(raw: dict[str, Any]) -> dict[str, dict[int, int]]:
    """Charger counts from the schema-checked design format
    ``{location: {type_id: count}}``."""
    return {str(loc): {int(tid): int(n) for tid, n in per.items()}
            for loc, per in raw.items()}


def _read_json(path: str | Path) -> Any:
    """Parse a JSON file; text that is not JSON raises a ValueError that
    names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path} is not JSON: {exc}") from exc


@contextlib.contextmanager
def _naming_file(path: str | Path):
    """Prefix ``"<path>: "`` to the text of a SchemaError raised in the
    block; its ``path`` and ``message`` stay as they are."""
    try:
        yield
    except SchemaError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_design(path: str | Path) -> dict[str, dict[int, int]]:
    """Read a design file (``{location: {type_id: count}}`` JSON).

    Raises ``SchemaError`` when the file breaks the bundled
    ``explicit_design`` schema, e.g. a fractional or negative count, and
    ValueError when it is not JSON; either names the file.
    """
    doc = _read_json(path)
    with _naming_file(path):
        validate_against_schema(doc, "explicit_design")
    return _design_counts(doc)


def scenario_from_dict(doc: dict[str, Any], validate: bool = True) -> Scenario:
    """Schema-check and build a scenario; ``validate=False`` skips
    the invariant check so the caller can list every issue itself."""
    validate_against_schema(doc, "scenario")

    grid = TimeGrid(
        int(doc["time_grid"]["block_minutes"]), int(doc["time_grid"]["num_days"])
    )
    trucks = tuple(
        Truck(
            id=str(t["id"]),
            battery_capacity_kwh=float(t["battery_kwh"]),
            consumption_kwh_per_km_ton=float(t["consumption_kwh_per_km_ton"]),
            initial_soe_kwh=float(t.get("initial_soe_kwh", t["battery_kwh"])),
            tare_tons=float(t.get("tare_tons", 1.0)),
        )
        for t in doc["trucks"]
    )
    chargers = tuple(
        ChargerType(
            id=int(c["id"]),
            rated_power_kw=float(c["power_kw"]),
            capital_cost=float(c["cost"]),
            efficiency=float(c["efficiency"]),
        )
        for c in doc["chargers"]
    )

    leg_counters: dict[tuple[str, int], int] = {}
    legs = []
    for raw in doc["legs"]:
        key = (str(raw["truck"]), int(raw["day"]))
        leg_counters[key] = leg_counters.get(key, 0) + 1
        legs.append(TripLeg(
            truck_id=key[0],
            day=key[1],
            leg_index=leg_counters[key],
            origin_id=str(raw["origin"]),
            destination_id=str(raw["destination"]),
            departure_clock_min=_parse_clock(raw["departure"]),
            arrival_clock_min=_parse_clock(raw["arrival"]),
            distance_km=float(raw["distance_km"]),
            payload_tons=float(raw["payload_tons"]),
        ))

    prices_doc = doc["prices"]
    default_row = None
    if "energy_per_kwh" in prices_doc:
        default_row = _expand_price_row(prices_doc["energy_per_kwh"], grid, "default")
    by_charger = {
        int(k): _expand_price_row(v, grid, f"charger {k}")
        for k, v in prices_doc.get("by_charger", {}).items()
    }
    unknown = sorted(by_charger.keys() - {c.id for c in chargers})
    if unknown:
        raise ValueError(f"price profile for unknown charger type {unknown[0]}")
    rows = []
    for c in chargers:
        if c.id in by_charger:
            rows.append(by_charger[c.id])
        elif default_row is not None:
            rows.append(default_row)
        else:
            raise ValueError(f"no energy price profile for charger type {c.id}")
    price_schedule = PriceSchedule(
        energy_price_per_kwh=tuple(rows),
        peak_price_per_kw=float(prices_doc["peak_per_kw"]),
    )

    params = doc.get("params", {})
    fixed_counts = None
    if params.get("fixed_counts") is not None:
        fixed_counts = _design_counts(params["fixed_counts"])
    scenario = Scenario(
        time_grid=grid,
        trucks=trucks,
        legs=tuple(legs),
        charger_catalog=chargers,
        location_ids=tuple(str(x) for x in doc["locations"]),
        price_schedule=price_schedule,
        alpha=float(params.get("alpha", 1.0)),
        slack_blocks=grid.slack_blocks(int(params.get("slack_minutes", 0))),
        design_mode=str(params.get("design_mode", CODESIGN)),
        fixed_counts=fixed_counts,
        name=str(doc.get("name", "")),
    )
    return validate_scenario(scenario) if validate else scenario


def load_scenario(path: str | Path, validate: bool = True) -> Scenario:
    """Read and build a scenario file. Text that is not JSON and a
    ``SchemaError`` name the file (see :func:`scenario_from_dict` for the
    rest)."""
    doc = _read_json(path)
    with _naming_file(path):
        return scenario_from_dict(doc, validate=validate)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    grid = scenario.time_grid
    legs_sorted = sorted(
        scenario.legs, key=lambda leg: (leg.truck_id, leg.day, leg.leg_index))
    legs_doc = []
    for leg in legs_sorted:
        legs_doc.append({
            "truck": leg.truck_id,
            "day": leg.day,
            "origin": leg.origin_id,
            "destination": leg.destination_id,
            "departure": _format_clock(leg.departure_clock_min),
            "arrival": _format_clock(leg.arrival_clock_min),
            "distance_km": leg.distance_km,
            "payload_tons": leg.payload_tons,
        })

    price_rows = scenario.price_schedule.energy_price_per_kwh
    prices_doc: dict[str, Any] = {"peak_per_kw": scenario.price_schedule.peak_price_per_kw}
    if price_rows and all(row == price_rows[0] for row in price_rows):
        prices_doc["energy_per_kwh"] = list(price_rows[0])
    else:
        prices_doc["by_charger"] = {
            str(c.id): list(price_rows[i])
            for i, c in enumerate(scenario.charger_catalog)
        }

    params: dict[str, Any] = {
        "alpha": scenario.alpha,
        "slack_minutes": scenario.slack_blocks * grid.block_minutes,
        "design_mode": scenario.design_mode,
    }
    if scenario.fixed_counts is not None:
        params["fixed_counts"] = design_counts_doc(scenario.fixed_counts)

    doc: dict[str, Any] = {
        "time_grid": {
            "block_minutes": grid.block_minutes,
            "num_days": grid.num_days,
        },
        "locations": list(scenario.location_ids),
        "trucks": [
            {
                "id": t.id,
                "battery_kwh": t.battery_capacity_kwh,
                "consumption_kwh_per_km_ton": t.consumption_kwh_per_km_ton,
                "initial_soe_kwh": t.initial_soe_kwh,
                "tare_tons": t.tare_tons,
            }
            for t in scenario.trucks
        ],
        "legs": legs_doc,
        "chargers": [
            {
                "id": c.id,
                "power_kw": c.rated_power_kw,
                "cost": c.capital_cost,
                "efficiency": c.efficiency,
            }
            for c in scenario.charger_catalog
        ],
        "prices": prices_doc,
        "params": params,
    }
    if scenario.name:
        doc["name"] = scenario.name
    return doc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    write_json(scenario_to_dict(scenario), path)
