"""Translate a validated scenario into the joint sizing-and-scheduling MILP.

Decision variables:
  Y[k,d,l,r,t]  binary: truck k charges for leg l (day d) on a type-r
                charger during block t of the leg's charging window;
  X[i,r]        integer: chargers of type r built at location i (co-design
                mode only; in fixed mode the counts are constants);
  dep_act       continuous: actual departure block of each leg;
  e_dep/e_arr   continuous bookkeeping: state of energy around each leg;
  C_peak[i]     continuous: demand-charge cost epigraph per location.

Energy charged in a block is rated power times block duration; energy
bought from the grid divides by charger efficiency. The peak term is
charged on power (kW), the usual demand-charge convention.

Each build derives one per-leg table (window, usable chargers, kWh, the
tour's running energy deficit and the leg's Y columns) and every
constraint family reads from it. Column and row order is deterministic
(sorted by semantic key), so building the same scenario twice yields
byte-identical models.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from dataclasses import dataclass, field

from .domain import (
    CODESIGN,
    ChargerType,
    Scenario,
    TripLeg,
    Truck,
    charging_windows,
    tours,
)
from .model import EQ, GE, INF, LE, LinearModel

__all__ = [
    "BuildDiagnostic",
    "BuildResult",
    "VariableCatalog",
    "energy_consumption",
    "build_problem",
    "objective_breakdown",
]

WINDOW_EMPTY = "WindowEmpty"
ENERGY_DEFICIT = "EnergyDeficit"


@dataclass(frozen=True, slots=True)
class BuildDiagnostic:
    """A structural finding made while building; infeasibility alerts mostly."""

    code: str
    message: str
    guaranteed_infeasible: bool = False


def _usable_chargers(scenario: Scenario, truck: Truck) -> list[ChargerType]:
    """Charger types the truck can take a whole block from.

    One block at rated power delivers block-duration x power kWh; if that
    alone exceeds the pack, the battery-headroom constraint forbids the
    choice in every feasible solution, so the column would only feed the
    relaxation's fractional shortcuts.
    """
    tau = scenario.time_grid.block_duration_hours
    return [c for c in scenario.charger_catalog
            if tau * c.rated_power_kw <= truck.battery_capacity_kwh + 1e-9]


@dataclass
class VariableCatalog:
    """Maps from semantic keys to model column indices.

    ``peak_floor`` holds the lower bound a strengthened co-design build puts
    on a location's C_peak (absent: no floor).
    """

    y: dict[tuple[str, int, int, int, int], int] = field(default_factory=dict)
    x: dict[tuple[str, int], int] = field(default_factory=dict)
    x_total: dict[str, int] = field(default_factory=dict)
    blocks_used: dict[tuple[str, int], int] = field(default_factory=dict)
    dep_act: dict[tuple[str, int, int], int] = field(default_factory=dict)
    e_dep: dict[tuple[str, int, int], int] = field(default_factory=dict)
    e_arr: dict[tuple[str, int, int], int] = field(default_factory=dict)
    c_peak: dict[str, int] = field(default_factory=dict)
    windows: dict[tuple[str, int, int], range] = field(default_factory=dict)
    peak_floor: dict[str, float] = field(default_factory=dict)


@dataclass
class BuildResult:
    model: LinearModel
    catalog: VariableCatalog
    diagnostics: list[BuildDiagnostic]

    @property
    def guaranteed_infeasible(self) -> bool:
        return any(d.guaranteed_infeasible for d in self.diagnostics)


def energy_consumption(leg: TripLeg, truck: Truck) -> float:
    """kWh drawn by one leg: distance x effective weight x consumption rate.

    The effective weight never drops below the truck's tare, so empty
    repositioning legs still consume energy.
    """
    effective_tons = max(leg.payload_tons, truck.tare_tons)
    return leg.distance_km * effective_tons * truck.consumption_kwh_per_km_ton


@dataclass(slots=True)
class _Leg:
    """One row of the per-leg table that every constraint family reads.

    ``deficit`` is the kWh the tour has drawn through this leg beyond the
    truck's initial state of energy. ``slots`` are the leg's Y columns as
    (block, charger, col), block-major, chargers in catalog order.
    """

    key: tuple[str, int, int]
    tag: str
    leg: TripLeg
    truck: Truck
    window: range
    usable: list[ChargerType]
    kwh: float
    deficit: float
    slots: list[tuple[int, ChargerType, int]] = field(default_factory=list)

    def slots_by_block(self):
        n = len(self.usable)
        for i, block in enumerate(self.window):
            yield block, self.slots[i * n:(i + 1) * n]


# Tours keyed by (truck, day) in sorted order, legs in tour order.
_Table = dict[tuple[str, int], list[_Leg]]


def _leg_table(scenario: Scenario, windows) -> _Table:
    table: _Table = {}
    for (truck_id, day), legs in tours(scenario).items():
        truck = scenario.truck(truck_id)
        usable = _usable_chargers(scenario, truck)
        consumed = 0.0
        rows = table[(truck_id, day)] = []
        for leg in legs:
            key = (truck_id, day, leg.leg_index)
            kwh = energy_consumption(leg, truck)
            consumed += kwh
            rows.append(_Leg(
                key, f"{truck_id}_d{day}_l{leg.leg_index}", leg, truck,
                windows[key], usable, kwh, consumed - truck.initial_soe_kwh))
    return table


def _all_legs(table: _Table):
    return itertools.chain.from_iterable(table.values())


def _add_columns(
    model: LinearModel, scenario: Scenario, cat: VariableCatalog,
    table: _Table, strengthen: bool,
) -> None:
    grid = scenario.time_grid
    beta = scenario.slack_blocks

    # Charger-count columns come first: when the branching rule ties on
    # fractionality, the low index steers it toward the design decisions,
    # which prune far more than any single charging block. A per-location
    # total (an integer by construction) gets the top branching priority:
    # splitting on "how many chargers here at all" partitions the design
    # space into bands the relaxation bounds tightly.
    if scenario.design_mode == CODESIGN:
        caps = _location_demand_caps(table)
        demanded = [loc for loc in scenario.location_ids if caps.get(loc, 0) > 0]
        if strengthen:
            for location in demanded:
                cat.x_total[location] = model.add_column(
                    f"x_total[{location}]", 0.0, float(caps[location]),
                    integer=True, branch_priority=2)
        for location in demanded:
            for charger in scenario.charger_catalog:
                cat.x[(location, charger.id)] = model.add_column(
                    f"x[{location}_r{charger.id}]", 0.0,
                    float(caps[location]), integer=True,
                    branch_priority=1)

    for row in _all_legs(table):
        key, tag, leg, truck = row.key, row.tag, row.leg, row.truck
        soe_lo, soe_hi = 0.0, truck.battery_capacity_kwh
        if leg.leg_index == 1:
            cat.e_dep[key] = model.add_column(
                f"e_dep[{tag}]", truck.initial_soe_kwh, truck.initial_soe_kwh)
        else:
            cat.e_dep[key] = model.add_column(f"e_dep[{tag}]", soe_lo, soe_hi)
        cat.e_arr[key] = model.add_column(f"e_arr[{tag}]", soe_lo, soe_hi)
        cat.dep_act[key] = model.add_column(
            f"dep_act[{tag}]", float(grid.day_start(key[1])),
            float(leg.scheduled_departure_block + beta))
        for block in row.window:
            for charger in row.usable:
                col = model.add_column(
                    f"y[{tag}_r{charger.id}_t{block}]", 0.0, 1.0, integer=True)
                cat.y[(*key, charger.id, block)] = col
                row.slots.append((block, charger, col))

    if strengthen:
        for (truck_id, day), rows in table.items():
            window_slots = sum(len(row.window) for row in rows)
            if window_slots > 0 and rows[0].usable:
                cat.blocks_used[(truck_id, day)] = model.add_column(
                    f"blocks_used[{truck_id}_d{day}]", 0.0, float(window_slots),
                    integer=True, branch_priority=1)

    for location in scenario.location_ids:
        cat.c_peak[location] = model.add_column(f"c_peak[{location}]", 0.0, INF)


def _location_demand_caps(table: _Table) -> dict[str, int]:
    """Most legs that could ever charge simultaneously at each location.

    A valid upper bound on useful charger counts; it keeps integer boxes
    small for the solver without cutting any optimum.
    """
    per_block = Counter((row.leg.origin_id, block)
                        for row in _all_legs(table) for block in row.window)
    caps: dict[str, int] = {}
    for (location, _), count in per_block.items():
        caps[location] = max(caps.get(location, 0), count)
    return caps


def _add_leg_and_location_rows(
    model: LinearModel, scenario: Scenario, cat: VariableCatalog, table: _Table
) -> None:
    """The plain formulation's rows, in one walk over the table.

    Per leg: state-of-energy balance (equality, so energy cannot appear
    from nowhere), battery headroom and chaining; departure after the last
    charge block and after the previous leg's travel; one charger per
    block. Per location: simultaneous charging fits the chargers built,
    and the C_peak epigraph prices the largest simultaneous draw in kW
    (tight at any optimum with a positive peak weight).
    """
    tau = scenario.time_grid.block_duration_hours
    energy: list[tuple] = []
    schedule: list[tuple] = []
    one_charger: list[tuple] = []
    occupancy: dict[tuple[str, int, int], list[int]] = {}
    draw: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for rows in table.values():
        for prev, row in zip([None] + rows, rows):
            tag = row.tag
            e_dep, e_arr, dep = \
                cat.e_dep[row.key], cat.e_arr[row.key], cat.dep_act[row.key]
            charge = [(col, tau * charger.rated_power_kw)
                      for _, charger, col in row.slots]
            energy.append((
                f"soe_balance[{tag}]",
                [(e_arr, 1.0), (e_dep, -1.0)] + [(col, -kwh) for col, kwh in charge],
                EQ, -row.kwh))
            energy.append((f"soe_cap[{tag}]", [(e_dep, 1.0)] + charge, LE,
                           row.truck.battery_capacity_kwh))
            if prev is not None:
                energy.append((f"soe_chain[{tag}]",
                               [(e_dep, 1.0), (cat.e_arr[prev.key], -1.0)], EQ, 0.0))
            for block, slots in row.slots_by_block():
                # Charging occupies [block, block+1), so departing requires
                # the block to have completed.
                schedule.append((
                    f"dep_after_charge[{tag}_t{block}]",
                    [(dep, 1.0)] + [(col, -float(block + 1)) for _, _, col in slots],
                    GE, 0.0))
                if len(slots) > 1:
                    one_charger.append((f"one_charger[{tag}_t{block}]",
                                        [(col, 1.0) for _, _, col in slots], LE, 1.0))
            if prev is not None:
                schedule.append((f"dep_chain[{tag}]",
                                 [(dep, 1.0), (cat.dep_act[prev.key], -1.0)],
                                 GE, float(prev.leg.travel_blocks)))
            for block, charger, col in row.slots:
                origin = row.leg.origin_id
                occupancy.setdefault((origin, charger.id, block), []).append(col)
                draw.setdefault((origin, block), []).append(
                    (col, charger.rated_power_kw))

    for args in energy + schedule:
        model.add_row(*args)
    for (location, type_id, block), cols in sorted(occupancy.items()):
        coeffs = [(col, 1.0) for col in cols]
        name = f"capacity[{location}_r{type_id}_t{block}]"
        if scenario.design_mode == CODESIGN:
            coeffs.append((cat.x[(location, type_id)], -1.0))
            model.add_row(name, coeffs, LE, 0.0)
        else:
            model.add_row(name, coeffs, LE, float(scenario.fixed_count(location, type_id)))
    for args in one_charger:
        model.add_row(*args)
    price = scenario.price_schedule.peak_price_per_kw
    for (location, block), terms in sorted(draw.items()):
        coeffs = [(cat.c_peak[location], 1.0)]
        coeffs += [(col, -price * power) for col, power in terms]
        model.add_row(f"peak[{location}_t{block}]", coeffs, GE, 0.0)


def _add_strengthening_rows(
    model: LinearModel, scenario: Scenario, cat: VariableCatalog, table: _Table
) -> None:
    """Rows that every integer solution satisfies but the relaxation does not.

    Block counting: energy bought before any leg arrives comes in whole
    blocks of at most block-duration x fastest-rated-power kWh each, so a
    tour prefix with a k-kWh shortfall needs at least ceil(k / that) blocks
    among its legs so far; a per-tour count column lets the search pin "how
    much" before "when".

    Co-design only: while a tour has only ever had charging windows at one
    location, any shortfall so far must be bought there. That location
    needs a charger of some type, its peak is at least one charger's rated
    power, and the installed power times the span of those windows must
    cover the energy (a Hall-style condition per window close).
    """
    tau = scenario.time_grid.block_duration_hours
    # Per (location, day): each tour that so far could only charge there
    # contributes (its window blocks, the energy it must buy there).
    needs: dict[tuple[str, int], list[tuple[set[int], float]]] = {}
    for (truck_id, day), rows in table.items():
        usable = rows[0].usable
        block_max_kwh = tau * max((c.rated_power_kw for c in usable), default=0.0)
        coeffs: list[tuple[int, float]] = []
        single_location: str | None = None
        broken = False
        blocks: set[int] = set()
        best_deficit = 0.0
        for row in rows:
            coeffs += [(col, 1.0) for _, _, col in row.slots]
            if usable and row.deficit > 1e-9:
                blocks_needed = math.ceil(row.deficit / block_max_kwh - 1e-9)
                model.add_row(
                    f"min_blocks[{row.tag}]", list(coeffs), GE, float(blocks_needed))
            if len(row.window) > 0:
                if single_location is None:
                    single_location = row.leg.origin_id
                broken = broken or row.leg.origin_id != single_location
                if not broken:
                    blocks.update(row.window)
            if not broken and single_location is not None:
                best_deficit = max(best_deficit, row.deficit)
        count_col = cat.blocks_used.get((truck_id, day))
        if coeffs and count_col is not None:
            model.add_row(f"blocks_used[{truck_id}_d{day}]",
                          coeffs + [(count_col, -1.0)], EQ, 0.0)
        if best_deficit > 1e-9:
            needs.setdefault((single_location, day), []).append(
                (blocks, best_deficit))

    if scenario.design_mode != CODESIGN:
        return
    for location in sorted(cat.x_total):
        coeffs = [(cat.x_total[location], 1.0)]
        coeffs += [(cat.x[(location, c.id)], -1.0) for c in scenario.charger_catalog]
        model.add_row(f"count_total[{location}]", coeffs, EQ, 0.0)
    min_power = min((c.rated_power_kw for c in scenario.charger_catalog),
                    default=0.0)
    peak_price = scenario.price_schedule.peak_price_per_kw
    for location in sorted({location for location, _ in needs}):
        coeffs = [(cat.x[(location, c.id)], 1.0) for c in scenario.charger_catalog]
        model.add_row(f"charger_required[{location}]", coeffs, GE, 1.0)
        # Any integer schedule that charges here at all peaks at no less
        # than one charger's rated power; the relaxation otherwise fakes a
        # lower peak by spreading fractional blocks.
        cat.peak_floor[location] = float(peak_price * min_power)
        model.add_row(f"peak_floor[{location}]", [(cat.c_peak[location], 1.0)],
                      GE, cat.peak_floor[location])
    for (location, day), entries in sorted(needs.items()):
        closes = sorted({max(blocks) for blocks, _ in entries})
        for close in closes:
            inside = [(blocks, d) for blocks, d in entries if max(blocks) <= close]
            span = len(set().union(*(blocks for blocks, _ in inside)))
            demand = sum(d for _, d in inside)
            coeffs = [
                (cat.x[(location, c.id)], tau * span * c.rated_power_kw)
                for c in scenario.charger_catalog
            ]
            if coeffs:
                model.add_row(
                    f"energy_capacity[{location}_d{day}_t{close}]", coeffs,
                    GE, demand)


def _set_objective(
    model: LinearModel, scenario: Scenario, cat: VariableCatalog,
    table: _Table, amortize_ratio: float | None,
) -> None:
    """Energy purchase cost + infrastructure capital + weighted peak cost.

    In fixed mode the infrastructure cost is a constant offset so reported
    objectives stay comparable across modes. ``amortize_ratio`` optionally
    scales capital costs inside the objective (reporting always amortizes
    separately).
    """
    tau = scenario.time_grid.block_duration_hours
    prices = scenario.price_schedule.energy_price_per_kwh
    for row in _all_legs(table):
        for block, charger, col in row.slots:
            price = prices[scenario.charger_index(charger.id)][block]
            model.set_objective(
                col, tau * (charger.rated_power_kw / charger.efficiency) * price)

    ratio = 1.0 if amortize_ratio is None else amortize_ratio
    if scenario.design_mode == CODESIGN:
        for (location, type_id), col in cat.x.items():
            model.set_objective(col, scenario.charger(type_id).capital_cost * ratio)
    else:
        fixed_capital = sum(
            scenario.charger(c.id).capital_cost * scenario.fixed_count(loc, c.id)
            for loc in scenario.location_ids
            for c in scenario.charger_catalog
        )
        model.objective_offset += fixed_capital * ratio

    for location, col in cat.c_peak.items():
        model.set_objective(col, scenario.alpha)


def _diagnostics(scenario: Scenario, table: _Table) -> list[BuildDiagnostic]:
    """Legs no plan can reach, then legs with an empty charging window.

    The reachability walk assumes unlimited chargers of the fastest usable
    type throughout each window, so a negative state of energy proves the
    model infeasible. A deficit at a leg with an empty window is the
    classic no-window failure; with a window it is a plain shortfall.
    """
    diagnostics: list[BuildDiagnostic] = []
    tau = scenario.time_grid.block_duration_hours
    for rows in table.values() if scenario.charger_catalog else ():
        truck = rows[0].truck
        max_power = max((c.rated_power_kw for c in rows[0].usable), default=0.0)
        soe = truck.initial_soe_kwh
        for row in rows:
            soe = min(soe + tau * max_power * len(row.window),
                      truck.battery_capacity_kwh)
            soe -= row.kwh
            if soe < -1e-9:
                truck_id, day, leg_index = row.key
                empty = len(row.window) == 0
                diagnostics.append(BuildDiagnostic(
                    code=WINDOW_EMPTY if empty else ENERGY_DEFICIT,
                    message=(
                        f"truck {truck_id} day {day} leg {leg_index}: needs "
                        f"{row.kwh:.3f} kWh but at most {row.kwh + soe:.3f} kWh "
                        f"is reachable" + (" (no charging window)" if empty else "")),
                    guaranteed_infeasible=True,
                ))
                soe = 0.0  # keep walking to report every defect
    for row in _all_legs(table):
        if len(row.window) == 0:
            truck_id, day, leg_index = row.key
            diagnostics.append(BuildDiagnostic(
                code=WINDOW_EMPTY,
                message=(f"truck {truck_id} day {day} leg {leg_index} has an "
                         f"empty charging window"),
            ))
    return diagnostics


def build_problem(
    scenario: Scenario, amortize_ratio: float | None = None,
    strengthen: bool = True,
) -> BuildResult:
    """Compose the full model; pure function of the scenario.

    ``strengthen=True`` (default) adds redundant-for-integers rows and
    integer bookkeeping columns (per-location charger totals, per-tour
    block counts, counting and capacity rows) that tighten the relaxation;
    the optimal set and objective value are unchanged. Oracles that
    enumerate assignments use the plain formulation.
    """
    model = LinearModel()
    cat = VariableCatalog(windows=charging_windows(scenario))
    table = _leg_table(scenario, cat.windows)
    _add_columns(model, scenario, cat, table, strengthen)
    _add_leg_and_location_rows(model, scenario, cat, table)
    if strengthen:
        _add_strengthening_rows(model, scenario, cat, table)
    _set_objective(model, scenario, cat, table, amortize_ratio)
    return BuildResult(model=model, catalog=cat,
                       diagnostics=_diagnostics(scenario, table))


def objective_breakdown(
    scenario: Scenario, cat: VariableCatalog, values, model: LinearModel
) -> dict[str, float]:
    """Split a solution's objective into energy/infrastructure/peak parts.

    This is the model-side decomposition (it reads objective coefficients);
    the validator recomputes the same quantities independently.
    """
    tau = scenario.time_grid.block_duration_hours
    prices = scenario.price_schedule.energy_price_per_kwh
    energy = 0.0
    for (truck_id, day, leg_index, type_id, block), col in cat.y.items():
        charger = scenario.charger(type_id)
        energy += float(values[col]) * tau \
            * (charger.rated_power_kw / charger.efficiency) \
            * prices[scenario.charger_index(type_id)][block]
    if scenario.design_mode == CODESIGN:
        infra = sum(
            scenario.charger(type_id).capital_cost * float(values[col])
            for (loc, type_id), col in cat.x.items())
    else:
        infra = model.objective_offset
    peak = scenario.alpha * sum(values[col] for col in cat.c_peak.values())
    return {
        "energy": energy,
        "infrastructure": float(infra),
        "peak": float(peak),
        "total": energy + float(infra) + float(peak),
    }
