"""Scenario JSON loading, saving, and schema validation.

The on-disk format keeps human conventions (times as "HH:MM" plus a day
index, slack in minutes); loading quantizes everything onto the scenario's
block grid. Field names are frozen in ``schemas/scenario.schema.json``.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any

import jsonschema

from .domain import (
    CODESIGN,
    WINDOW_PREVIOUS_ARRIVAL,
    ChargerType,
    PriceSchedule,
    Scenario,
    TimeGrid,
    TripLeg,
    Truck,
    quantize_times,
    validate_scenario,
)

__all__ = [
    "load_scenario",
    "load_design",
    "scenario_from_dict",
    "scenario_to_dict",
    "save_scenario",
    "load_schema",
    "validate_against_schema",
]


def load_schema(name: str) -> dict:
    """Load one of the bundled JSON schemas (e.g. ``"scenario"``)."""
    path = resources.files("fleetcharge.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


def validate_against_schema(document: dict, schema_name: str) -> None:
    jsonschema.validate(document, load_schema(schema_name))


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


def _design_counts(raw: dict[str, Any]) -> dict[str, dict[int, int]]:
    """Charger counts from the design format ``{location: {type_id: count}}``."""
    return {str(loc): {int(tid): int(n) for tid, n in per.items()}
            for loc, per in raw.items()}


def load_design(path: str | Path) -> dict[str, dict[int, int]]:
    """Read a design file (``{location: {type_id: count}}`` JSON)."""
    with open(path) as fh:
        return _design_counts(json.load(fh))


def scenario_from_dict(doc: dict[str, Any], validate: bool = True) -> Scenario:
    """Schema-check, build and quantize a scenario; ``validate=False`` skips
    the invariant check so the caller can list every issue itself."""
    validate_against_schema(doc, "scenario")

    grid = TimeGrid.from_minutes(
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
        dep_min = _parse_clock(raw["departure"])
        arr_min = _parse_clock(raw["arrival"])
        legs.append(TripLeg(
            truck_id=key[0],
            day=key[1],
            leg_index=leg_counters[key],
            origin_id=str(raw["origin"]),
            destination_id=str(raw["destination"]),
            scheduled_departure_block=0,
            scheduled_arrival_block=0,
            travel_blocks=0,
            distance_km=float(raw["distance_km"]),
            payload_tons=float(raw["payload_tons"]),
            departure_clock_min=dep_min,
            arrival_clock_min=arr_min,
        ))

    prices_doc = doc["prices"]
    default_row = None
    if "energy_per_kwh" in prices_doc:
        default_row = _expand_price_row(prices_doc["energy_per_kwh"], grid, "default")
    by_charger = {
        int(k): _expand_price_row(v, grid, f"charger {k}")
        for k, v in prices_doc.get("by_charger", {}).items()
    }
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
        window_mode=str(params.get("window_mode", WINDOW_PREVIOUS_ARRIVAL)),
        name=str(doc.get("name", "")),
    )
    scenario = quantize_times(scenario)
    return validate_scenario(scenario) if validate else scenario


def load_scenario(path: str | Path, validate: bool = True) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc, validate=validate)


def _leg_clock_fields(leg: TripLeg, grid: TimeGrid) -> tuple[str, str]:
    if leg.departure_clock_min is not None and leg.arrival_clock_min is not None:
        return _format_clock(leg.departure_clock_min), _format_clock(leg.arrival_clock_min)
    day_start = grid.day_start(leg.day)
    dep_min = round((leg.scheduled_departure_block - day_start) * grid.block_minutes)
    arr_min = round((leg.scheduled_arrival_block - day_start) * grid.block_minutes)
    return _format_clock(int(dep_min)), _format_clock(int(arr_min))


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    grid = scenario.time_grid
    block_minutes = grid.block_minutes
    if abs(block_minutes - round(block_minutes)) > 1e-9:
        raise ValueError("only whole-minute block grids serialize to JSON")

    legs_sorted = sorted(
        scenario.legs, key=lambda leg: (leg.truck_id, leg.day, leg.leg_index))
    legs_doc = []
    for leg in legs_sorted:
        dep, arr = _leg_clock_fields(leg, grid)
        legs_doc.append({
            "truck": leg.truck_id,
            "day": leg.day,
            "origin": leg.origin_id,
            "destination": leg.destination_id,
            "departure": dep,
            "arrival": arr,
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
        "slack_minutes": int(round(scenario.slack_blocks * block_minutes)),
        "design_mode": scenario.design_mode,
        "window_mode": scenario.window_mode,
    }
    if scenario.fixed_counts is not None:
        params["fixed_counts"] = {
            loc: {str(tid): int(n) for tid, n in sorted(counts.items())}
            for loc, counts in sorted(scenario.fixed_counts.items())
        }

    doc: dict[str, Any] = {
        "time_grid": {
            "block_minutes": int(round(block_minutes)),
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
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
