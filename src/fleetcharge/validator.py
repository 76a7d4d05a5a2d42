"""Solver-independent plan replay and cost recomputation.

Decodes a solver solution into an operational :class:`PlanReport`, then
checks it against the scenario with arithmetic that never touches the model
builder: state of energy is walked leg by leg, occupancy counted block by
block, and the peak found by a literal max over blocks rather than the
epigraph trick. Violations are data, not exceptions, and replay never stops
at the first fault. ``plan.json`` and the per-block ``power_curves.csv``
are laid out here and written through ``scenario_io``'s file writers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .builder import VariableCatalog
from .domain import (FIXED_INFRASTRUCTURE, Scenario, ValidationIssue, charging_windows,
                     tours)
from .scenario_io import design_counts_doc, write_csv, write_json
from .solver import Solution

__all__ = [
    "ChargeEvent",
    "LegDeparture",
    "CostBreakdown",
    "PlanReport",
    "decode_plan",
    "replay",
    "recompute_costs",
    "power_curves",
    "location_total_kw",
    "location_peaks_kw",
    "plan_to_dict",
    "write_plan_json",
    "write_power_curves_csv",
]

TOL = 1e-6

WINDOW_VIOLATION = "WindowViolation"
ENERGY_VIOLATION = "EnergyViolation"
BATTERY_VIOLATION = "BatteryViolation"
CAPACITY_VIOLATION = "CapacityViolation"
MULTI_CHARGER_VIOLATION = "MultiChargerViolation"
DEPARTURE_VIOLATION = "DepartureViolation"
REFERENCE_VIOLATION = "ReferenceViolation"
DESIGN_VIOLATION = "DesignViolation"


@dataclass(frozen=True, slots=True)
class ChargeEvent:
    truck_id: str
    day: int
    leg_index: int
    block: int
    location_id: str
    charger_type_id: int
    energy_kwh: float


@dataclass(frozen=True, slots=True)
class LegDeparture:
    truck_id: str
    day: int
    leg_index: int
    scheduled_block: int
    actual_block: float


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    energy: float
    infrastructure: float
    peak: float
    total: float

    def amortized(self, ratio: float) -> CostBreakdown:
        """The costs with capital prorated by ``ratio``: the infrastructure
        times ``ratio``, and a total of energy, that and peak, in that order."""
        infrastructure = self.infrastructure * ratio
        return CostBreakdown(self.energy, infrastructure, self.peak,
                             self.energy + infrastructure + self.peak)


@dataclass
class PlanReport:
    """A decoded solution in operational terms."""

    design_mode: str
    alpha: float
    slack_blocks: int
    charger_counts: dict[str, dict[int, int]]
    events: tuple[ChargeEvent, ...]
    departures: tuple[LegDeparture, ...]
    costs: CostBreakdown
    power_by_type: dict[str, dict[int, list[float]]]
    solver_info: dict
    scenario_name: str = ""


def decode_plan(
    scenario: Scenario, catalog: VariableCatalog, solution: Solution
) -> PlanReport:
    """Turn solver column values into events, counts, and departures.

    Counts come from the count columns in both designs; :func:`replay`
    checks a fixed design's against the scenario. Event ordering is
    canonical (truck, day, leg, block, type), so reports are stable
    regardless of which optimum the solver happened to return.
    """
    if not solution.is_feasible:
        raise ValueError("cannot decode an infeasible solution")
    values = solution.values
    tau = scenario.time_grid.block_duration_hours

    counts: dict[str, dict[int, int]] = {}
    for (location, type_id), col in catalog.x.items():
        n = int(round(values[col]))
        if n:
            counts.setdefault(location, {})[type_id] = n

    origin_of = {
        (leg.truck_id, leg.day, leg.leg_index): leg.origin_id
        for leg in scenario.legs
    }
    events = []
    for (truck_id, day, leg_index, type_id, block), col in catalog.y.items():
        if values[col] > 0.5:
            events.append(ChargeEvent(
                truck_id=truck_id,
                day=day,
                leg_index=leg_index,
                block=block,
                location_id=origin_of[(truck_id, day, leg_index)],
                charger_type_id=type_id,
                energy_kwh=tau * scenario.charger(type_id).rated_power_kw,
            ))
    events.sort(key=lambda e: (e.truck_id, e.day, e.leg_index, e.block,
                               e.charger_type_id))

    departures = []
    for leg in sorted(scenario.legs, key=lambda x: (x.truck_id, x.day, x.leg_index)):
        col = catalog.dep_act[(leg.truck_id, leg.day, leg.leg_index)]
        departures.append(LegDeparture(
            truck_id=leg.truck_id,
            day=leg.day,
            leg_index=leg.leg_index,
            scheduled_block=scenario.time_grid.departure_block(leg),
            actual_block=float(values[col]),
        ))

    curves = power_curves(scenario, events)
    return PlanReport(
        design_mode=scenario.design_mode,
        alpha=scenario.alpha,
        slack_blocks=scenario.slack_blocks,
        charger_counts=counts,
        events=tuple(events),
        departures=tuple(departures),
        costs=_costs(scenario, counts, events, curves),
        power_by_type=curves,
        solver_info={
            "status": solution.status.value,
            "objective": solution.objective,
            "best_bound": solution.best_bound,
            "gap": solution.gap,
            "nodes": solution.node_count,
            "wall_time_s": solution.wall_time,
            **solution.counts,
            "stop_reason": solution.stop_reason,
        },
        scenario_name=scenario.name,
    )


def _leg_consumption(scenario: Scenario, leg) -> float:
    # Deliberately re-derived here: the validator must not lean on the
    # builder's arithmetic.
    truck = scenario.truck(leg.truck_id)
    tons = max(leg.payload_tons, truck.tare_tons)
    return leg.distance_km * tons * truck.consumption_kwh_per_km_ton


def replay(scenario: Scenario, plan: PlanReport) -> list[ValidationIssue]:
    """Re-simulate the plan and return every constraint violation, in the
    order found; an empty list means the plan replays clean."""
    violations: list[ValidationIssue] = []

    def add(code: str, message: str) -> None:
        violations.append(ValidationIssue(code, message))

    grid = scenario.time_grid
    tau = grid.block_duration_hours
    windows = charging_windows(scenario)
    known_types = {c.id for c in scenario.charger_catalog}

    origin_of = {
        (leg.truck_id, leg.day, leg.leg_index): leg.origin_id
        for leg in scenario.legs
    }
    events_by_leg: dict[tuple[str, int, int], list[ChargeEvent]] = {}
    for event in plan.events:
        key = (event.truck_id, event.day, event.leg_index)
        if key not in windows:
            add(REFERENCE_VIOLATION, f"event references unknown leg {key}")
            continue
        if event.charger_type_id not in known_types:
            add(REFERENCE_VIOLATION, "event references unknown charger type "
                f"{event.charger_type_id}")
            continue
        if event.location_id != origin_of[key]:
            add(REFERENCE_VIOLATION, f"truck {event.truck_id} day {event.day} leg "
                f"{event.leg_index}: event at {event.location_id!r} "
                f"but the leg departs {origin_of[key]!r}")
        events_by_leg.setdefault(key, []).append(event)
        if event.block not in windows[key]:
            add(WINDOW_VIOLATION, f"truck {event.truck_id} day {event.day} leg "
                f"{event.leg_index}: charge at block {event.block} outside window "
                f"[{windows[key].start}, {windows[key].stop - 1}]")
        expected = tau * scenario.charger(event.charger_type_id).rated_power_kw
        if abs(event.energy_kwh - expected) > TOL:
            add(ENERGY_VIOLATION, f"event energy {event.energy_kwh} kWh does not match "
                f"block x rated power = {expected} kWh")

    dep_by_leg = {
        (d.truck_id, d.day, d.leg_index): d.actual_block for d in plan.departures
    }

    for (truck_id, day), legs in tours(scenario).items():
        truck = scenario.truck(truck_id)
        soe = truck.initial_soe_kwh
        day_start = grid.day_start(day)
        prev_dep = None
        prev_travel = 0
        for leg in legs:
            key = (truck_id, day, leg.leg_index)
            leg_events = events_by_leg.get(key, [])
            charged = sum(e.energy_kwh for e in leg_events)
            if soe + charged > truck.battery_capacity_kwh + TOL:
                add(BATTERY_VIOLATION, f"truck {truck_id} day {day} leg {leg.leg_index}: "
                    f"SOE {soe + charged:.3f} kWh exceeds capacity "
                    f"{truck.battery_capacity_kwh} kWh")
            soe = soe + charged - _leg_consumption(scenario, leg)
            if soe < -TOL:
                add(ENERGY_VIOLATION, f"truck {truck_id} day {day} leg {leg.leg_index}: "
                    f"SOE dips to {soe:.3f} kWh")

            dep_act = dep_by_leg.get(key)
            if dep_act is None:
                add(DEPARTURE_VIOLATION, f"truck {truck_id} day {day} leg "
                    f"{leg.leg_index}: no actual departure reported")
            else:
                last_charge = max((e.block for e in leg_events), default=None)
                if last_charge is not None and dep_act < last_charge + 1 - TOL:
                    add(DEPARTURE_VIOLATION, f"truck {truck_id} day {day} leg "
                        f"{leg.leg_index}: departs at {dep_act} while "
                        f"charging through block {last_charge}")
                latest = grid.departure_block(leg) + scenario.slack_blocks
                if dep_act > latest + TOL:
                    add(DEPARTURE_VIOLATION, f"truck {truck_id} day {day} leg "
                        f"{leg.leg_index}: departs at {dep_act}, after "
                        f"scheduled + slack = {latest}")
                floor = day_start if prev_dep is None else prev_dep + prev_travel
                if dep_act < floor - TOL:
                    add(DEPARTURE_VIOLATION, f"truck {truck_id} day {day} leg "
                        f"{leg.leg_index}: departs at {dep_act}, "
                        f"before earliest possible {floor}")
                prev_dep = dep_act
                prev_travel = grid.travel_blocks(leg)

    # Per-leg, per-block single-charger rule.
    for key, leg_events in sorted(events_by_leg.items()):
        per_block: dict[int, int] = {}
        for e in leg_events:
            per_block[e.block] = per_block.get(e.block, 0) + 1
        for block, n in sorted(per_block.items()):
            if n > 1:
                add(MULTI_CHARGER_VIOLATION, f"truck {key[0]} day {key[1]} leg {key[2]}: "
                    f"{n} chargers at block {block}")

    # Occupancy never exceeds installed counts.
    usage: dict[tuple[str, int, int], int] = {}
    for event in plan.events:
        k = (event.location_id, event.charger_type_id, event.block)
        usage[k] = usage.get(k, 0) + 1
    for (location, type_id, block), used in sorted(usage.items()):
        available = int(plan.charger_counts.get(location, {}).get(type_id, 0))
        if used > available:
            add(CAPACITY_VIOLATION, f"{location}: {used} trucks on type-{type_id} "
                f"chargers at block {block}, only {available} built")

    # A fixed design's plan builds exactly the scenario's chargers.
    if scenario.design_mode == FIXED_INFRASTRUCTURE:
        keys = {(location, type_id)
                for counts in (scenario.fixed_counts or {}, plan.charger_counts)
                for location, per_type in counts.items() for type_id in per_type}
        for location, type_id in sorted(keys):
            built = int(plan.charger_counts.get(location, {}).get(type_id, 0))
            design = scenario.fixed_count(location, type_id)
            if built != design:
                add(DESIGN_VIOLATION, f"{location}: {built} type-{type_id} chargers "
                    f"built, but the fixed design has {design}")
    return violations


def power_curves(
    scenario: Scenario, events: tuple[ChargeEvent, ...]
) -> dict[str, dict[int, list[float]]]:
    """Per-location, per-type power draw (kW) for every block of the period."""
    total_blocks = scenario.time_grid.total_blocks
    curves: dict[str, dict[int, list[float]]] = {
        loc: {c.id: [0.0] * total_blocks for c in scenario.charger_catalog}
        for loc in scenario.location_ids
    }
    for event in events:
        power = scenario.charger(event.charger_type_id).rated_power_kw
        curves[event.location_id][event.charger_type_id][event.block] += power
    return curves


def location_total_kw(by_type: dict[int, list[float]]) -> list[float]:
    """One location's total drawn power per block (kW): its types' curves
    summed in their order (the catalog's, from :func:`power_curves`),
    starting from 0. Empty when the location has no curves."""
    return [sum(block) for block in zip(*by_type.values())]


def recompute_costs(scenario: Scenario, plan: PlanReport) -> CostBreakdown:
    """Cost breakdown from first principles, bypassing the model objective.

    Peak cost uses the literal max over blocks of total drawn power per
    location, i.e. the definition the epigraph merely approximates. The
    power curves are rebuilt from the plan's events, never taken from the
    curves the plan reports.
    """
    return _costs(scenario, plan.charger_counts, plan.events,
                  power_curves(scenario, plan.events))


def _costs(scenario: Scenario, charger_counts, events, curves) -> CostBreakdown:
    tau = scenario.time_grid.block_duration_hours
    prices = scenario.price_schedule.energy_price_per_kwh

    energy = 0.0
    for event in events:
        charger = scenario.charger(event.charger_type_id)
        price = prices[scenario.charger_index(event.charger_type_id)][event.block]
        energy += tau * (charger.rated_power_kw / charger.efficiency) * price

    infrastructure = sum(
        scenario.charger(type_id).capital_cost * count
        for per_type in charger_counts.values()
        for type_id, count in per_type.items()
    )

    peak = 0.0
    for location in scenario.location_ids:
        peak += scenario.price_schedule.peak_price_per_kw \
            * max(location_total_kw(curves[location]), default=0.0)
    peak *= scenario.alpha

    return CostBreakdown(
        energy=energy,
        infrastructure=float(infrastructure),
        peak=peak,
        total=energy + float(infrastructure) + peak,
    )


def location_peaks_kw(scenario: Scenario, plan: PlanReport) -> dict[str, float]:
    """Literal max-over-blocks power per location, in kW."""
    curves = power_curves(scenario, plan.events)
    return {loc: max(location_total_kw(curves[loc]), default=0.0)
            for loc in scenario.location_ids}


def plan_to_dict(plan: PlanReport, amortize_ratio: float | None = None) -> dict:
    doc = {
        "design_mode": plan.design_mode,
        "alpha": plan.alpha,
        "slack_blocks": plan.slack_blocks,
        "charger_counts": design_counts_doc(plan.charger_counts),
        "events": [
            {
                "truck": e.truck_id,
                "day": e.day,
                "leg": e.leg_index,
                "block": e.block,
                "location": e.location_id,
                "charger_type": e.charger_type_id,
                "energy_kwh": e.energy_kwh,
            }
            for e in plan.events
        ],
        "departures": [
            {
                "truck": d.truck_id,
                "day": d.day,
                "leg": d.leg_index,
                "scheduled_block": d.scheduled_block,
                "actual_block": d.actual_block,
            }
            for d in plan.departures
        ],
        "costs": asdict(plan.costs),
        "power_curves": {
            loc: {
                "by_type": {
                    str(tid): curve for tid, curve in sorted(by_type.items())
                },
                "total": location_total_kw(by_type),
            }
            for loc, by_type in sorted(plan.power_by_type.items())
        },
        "solver": plan.solver_info,
    }
    if plan.scenario_name:
        doc["scenario_name"] = plan.scenario_name
    if amortize_ratio is not None:
        amortized = plan.costs.amortized(amortize_ratio)
        doc["costs_amortized"] = {
            "infrastructure": amortized.infrastructure,
            "total": amortized.total,
            "amortization_ratio": amortize_ratio,
        }
    return doc


def write_plan_json(plan: PlanReport, path: str | Path,
                    amortize_ratio: float | None = None) -> None:
    write_json(plan_to_dict(plan, amortize_ratio), path)


def write_power_curves_csv(scenario: Scenario, plan: PlanReport,
                           path: str | Path) -> None:
    """Raw per-block power per location: one row per (location, day, block)."""
    grid = scenario.time_grid
    type_ids = [c.id for c in scenario.charger_catalog]
    zeros = [0.0] * grid.total_blocks

    def rows():
        for location in scenario.location_ids:
            by_type = plan.power_by_type.get(location, {})
            curves = [by_type.get(tid, zeros) for tid in type_ids]
            curves.append(location_total_kw(by_type) or zeros)
            for block in range(grid.total_blocks):
                yield ([location, grid.day_of_block(block), grid.block_of_day(block)]
                       + [repr(curve[block]) for curve in curves])

    write_csv(path, ["location", "day", "block"]
              + [f"kw_type_{tid}" for tid in type_ids] + ["kw_total"], rows())
