"""Problem-instance data types, validation, and the shared time discretization.

Every other module consumes the types defined here. Instances are frozen
dataclasses: once a scenario has passed validation it is immutable and safe
to share between threads.

Time convention: all block indices are counted from the start of the
analysis period (block 0 = 00:00 of day 0). A day is a contiguous range of
``blocks_per_day`` indices; there is no per-day clock arithmetic anywhere
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "CODESIGN",
    "FIXED_INFRASTRUCTURE",
    "WINDOW_PREVIOUS_ARRIVAL",
    "WINDOW_SAME_LEG_ARRIVAL",
    "TimeGrid",
    "ChargerType",
    "Truck",
    "TripLeg",
    "PriceSchedule",
    "Scenario",
    "ValidationIssue",
    "ScenarioValidationError",
    "scenario_issues",
    "validate_scenario",
    "quantize_times",
    "tours",
    "charging_windows",
    "empty_window_legs",
]

# Design-mode identifiers.
CODESIGN = "codesign"
FIXED_INFRASTRUCTURE = "fixed"

# Charging-window conventions: the window for a leg either opens at the
# previous leg's scheduled arrival (default, physically meaningful) or at
# the same leg's scheduled arrival (compatibility switch).
WINDOW_PREVIOUS_ARRIVAL = "previous_arrival"
WINDOW_SAME_LEG_ARRIVAL = "same_leg_arrival"

# Issue codes used by scenario validation.
CHAIN_BROKEN = "ChainBroken"
TIME_OFF_GRID = "TimeOffGrid"
UNKNOWN_REFERENCE = "UnknownReference"
NEGATIVE_QUANTITY = "NegativeQuantity"
TIME_ORDER = "TimeOrder"
BATTERY_RANGE = "BatteryRange"
DUPLICATE_ID = "DuplicateId"
EMPTY_WINDOW = "EmptyWindow"  # warning, not an error


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One validation finding; ``severity`` is ``"error"`` or ``"warning"``."""

    code: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


class ScenarioValidationError(ValueError):
    """Raised by :func:`validate_scenario`; carries every violation found."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        lines = "; ".join(str(i) for i in issues)
        super().__init__(f"scenario failed validation: {lines}")


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Uniform discretization of the analysis period into whole blocks."""

    block_duration_hours: float
    blocks_per_day: int
    num_days: int

    @classmethod
    def from_minutes(cls, block_minutes: int, num_days: int) -> "TimeGrid":
        if block_minutes <= 0 or 1440 % block_minutes != 0:
            raise ValueError(
                f"block_minutes must divide 24h evenly, got {block_minutes}"
            )
        return cls(
            block_duration_hours=block_minutes / 60.0,
            blocks_per_day=1440 // block_minutes,
            num_days=num_days,
        )

    @property
    def block_minutes(self) -> float:
        return self.block_duration_hours * 60.0

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_day * self.num_days

    def day_start(self, day: int) -> int:
        return day * self.blocks_per_day

    def day_end(self, day: int) -> int:
        """Last block index belonging to ``day``."""
        return (day + 1) * self.blocks_per_day - 1

    def day_of_block(self, block: int) -> int:
        return block // self.blocks_per_day

    def block_of_day(self, block: int) -> int:
        return block % self.blocks_per_day

    def slack_blocks(self, slack_minutes: float) -> int:
        """Departure slack in whole blocks; ValueError if it does not divide."""
        blocks = slack_minutes / self.block_minutes
        if abs(blocks - round(blocks)) > 1e-9:
            raise ValueError(
                f"slack of {slack_minutes} min is not a whole number of "
                f"{self.block_minutes:g}-minute blocks")
        return int(round(blocks))


@dataclass(frozen=True, slots=True)
class ChargerType:
    """One catalog entry: rated power, capital cost, conversion efficiency."""

    id: int
    rated_power_kw: float
    capital_cost: float
    efficiency: float


@dataclass(frozen=True, slots=True)
class Truck:
    id: str
    battery_capacity_kwh: float
    consumption_kwh_per_km_ton: float
    initial_soe_kwh: float
    # Effective weight floor for otherwise-empty legs; consumption is
    # distance * max(payload, tare) * consumption_rate.
    tare_tons: float = 1.0


@dataclass(frozen=True, slots=True)
class TripLeg:
    """One delivery task of a truck: origin, destination, times, payload.

    ``scheduled_departure_block`` / ``scheduled_arrival_block`` are global
    block indices. ``departure_clock_min`` / ``arrival_clock_min``, when
    present, are the original minutes-past-midnight within ``day`` and are
    the quantization source of truth (see :func:`quantize_times`).
    """

    truck_id: str
    day: int
    leg_index: int  # 1-based position within the truck's tour for the day
    origin_id: str
    destination_id: str
    scheduled_departure_block: int
    scheduled_arrival_block: int
    travel_blocks: int
    distance_km: float
    payload_tons: float
    departure_clock_min: int | None = None
    arrival_clock_min: int | None = None


@dataclass(frozen=True, slots=True)
class PriceSchedule:
    """Energy prices per (charger type, block) plus the prorated peak price.

    ``energy_price_per_kwh[r][t]`` is indexed by position of the charger
    type in the scenario catalog and by global block index; it must cover
    every block of every day. ``peak_price_per_kw`` is the demand charge for
    the whole analysis period, per kW of per-location peak draw.
    """

    energy_price_per_kwh: tuple[tuple[float, ...], ...]
    peak_price_per_kw: float


@dataclass(frozen=True)
class Scenario:
    """A full problem instance. Immutable once validated."""

    time_grid: TimeGrid
    trucks: tuple[Truck, ...]
    legs: tuple[TripLeg, ...]
    charger_catalog: tuple[ChargerType, ...]
    location_ids: tuple[str, ...]
    price_schedule: PriceSchedule
    alpha: float = 1.0
    slack_blocks: int = 0
    design_mode: str = CODESIGN
    fixed_counts: Mapping[str, Mapping[int, int]] | None = None
    window_mode: str = WINDOW_PREVIOUS_ARRIVAL
    name: str = ""

    def truck(self, truck_id: str) -> Truck:
        for t in self.trucks:
            if t.id == truck_id:
                return t
        raise KeyError(truck_id)

    def charger(self, type_id: int) -> ChargerType:
        for c in self.charger_catalog:
            if c.id == type_id:
                return c
        raise KeyError(type_id)

    def charger_index(self, type_id: int) -> int:
        for i, c in enumerate(self.charger_catalog):
            if c.id == type_id:
                return i
        raise KeyError(type_id)

    def fixed_count(self, location_id: str, type_id: int) -> int:
        if self.fixed_counts is None:
            return 0
        return int(self.fixed_counts.get(location_id, {}).get(type_id, 0))


def tours(scenario: Scenario) -> dict[tuple[str, int], list[TripLeg]]:
    """Group legs by (truck, day), ordered by leg_index."""
    grouped: dict[tuple[str, int], list[TripLeg]] = {}
    for leg in scenario.legs:
        grouped.setdefault((leg.truck_id, leg.day), []).append(leg)
    for legs in grouped.values():
        legs.sort(key=lambda leg: leg.leg_index)
    return dict(sorted(grouped.items()))


def _quantize_leg(leg: TripLeg, grid: TimeGrid) -> TripLeg:
    if leg.departure_clock_min is None or leg.arrival_clock_min is None:
        return leg
    block_min = grid.block_minutes
    day_start = grid.day_start(leg.day)
    # Departures floor, arrivals ceil, so no other leg's charging window
    # gets longer than the clock times allow. The 1e-9 guards against
    # float noise; block_min may be non-integral for grids finer than one
    # minute per block.
    dep_block = int(math.floor(leg.departure_clock_min / block_min + 1e-9))
    arr_block = int(math.ceil(leg.arrival_clock_min / block_min - 1e-9))
    travel_min = leg.arrival_clock_min - leg.departure_clock_min
    travel = int(math.ceil(travel_min / block_min - 1e-9))
    return replace(
        leg,
        scheduled_departure_block=day_start + dep_block,
        scheduled_arrival_block=day_start + arr_block,
        travel_blocks=travel,
    )


def quantize_times(scenario: Scenario) -> Scenario:
    """Align every leg's times to grid blocks.

    Legs that carry clock minutes get their block fields re-derived from
    them: departures round down, arrivals and travel durations round up.
    Legs without clock fields are already block-native and pass through.
    Total function, idempotent.
    """
    legs = tuple(_quantize_leg(leg, scenario.time_grid) for leg in scenario.legs)
    return replace(scenario, legs=legs)


def charging_windows(scenario: Scenario) -> dict[tuple[str, int, int], range]:
    """Blocks during which each leg may charge, keyed by (truck, day, leg).

    In the default mode a leg's window opens at the previous leg's scheduled
    arrival (day start for the first leg) and closes ``slack_blocks - 1``
    after the scheduled departure; charging occupies whole blocks, so a leg
    that charges in the window's last block departs exactly at
    scheduled departure + slack. Windows are clipped to the leg's day.
    An empty range means the leg cannot charge.
    """
    grid = scenario.time_grid
    beta = scenario.slack_blocks
    windows: dict[tuple[str, int, int], range] = {}
    for (truck_id, day), legs in tours(scenario).items():
        day_start = grid.day_start(day)
        day_end = grid.day_end(day)
        for pos, leg in enumerate(legs):
            if scenario.window_mode == WINDOW_SAME_LEG_ARRIVAL:
                open_block = leg.scheduled_arrival_block
            elif pos == 0:
                open_block = day_start
            else:
                open_block = legs[pos - 1].scheduled_arrival_block
            open_block = max(open_block, day_start)
            close_block = min(leg.scheduled_departure_block + beta - 1, day_end)
            if close_block < open_block:
                windows[(truck_id, day, leg.leg_index)] = range(open_block, open_block)
            else:
                windows[(truck_id, day, leg.leg_index)] = range(open_block, close_block + 1)
    return windows


def empty_window_legs(scenario: Scenario) -> list[tuple[str, int, int]]:
    """Keys of legs whose charging window is empty (reported, never hidden)."""
    return [key for key, win in charging_windows(scenario).items() if len(win) == 0]


def _grid_issues(grid: TimeGrid) -> list[ValidationIssue]:
    issues = []
    if grid.block_duration_hours <= 0:
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "block_duration_hours must be positive"))
        return issues
    if grid.blocks_per_day <= 0 or grid.num_days <= 0:
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "blocks_per_day and num_days must be positive"))
        return issues
    if abs(grid.blocks_per_day * grid.block_duration_hours - 24.0) > 1e-9:
        issues.append(ValidationIssue(
            TIME_OFF_GRID,
            f"blocks_per_day * block_duration_hours must equal 24, got "
            f"{grid.blocks_per_day} * {grid.block_duration_hours}"))
    return issues


def scenario_issues(scenario: Scenario) -> list[ValidationIssue]:
    """Enumerate every invariant violation; never stops at the first."""
    issues = _grid_issues(scenario.time_grid)
    grid = scenario.time_grid

    truck_ids = [t.id for t in scenario.trucks]
    if len(set(truck_ids)) != len(truck_ids):
        issues.append(ValidationIssue(DUPLICATE_ID, "duplicate truck ids"))
    type_ids = [c.id for c in scenario.charger_catalog]
    if len(set(type_ids)) != len(type_ids):
        issues.append(ValidationIssue(DUPLICATE_ID, "duplicate charger type ids"))
    if len(set(scenario.location_ids)) != len(scenario.location_ids):
        issues.append(ValidationIssue(DUPLICATE_ID, "duplicate location ids"))

    for t in scenario.trucks:
        if t.consumption_kwh_per_km_ton <= 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"truck {t.id}: consumption must be positive"))
        if t.battery_capacity_kwh <= 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"truck {t.id}: battery capacity must be positive"))
        if not (0 <= t.initial_soe_kwh <= t.battery_capacity_kwh):
            issues.append(ValidationIssue(
                BATTERY_RANGE,
                f"truck {t.id}: initial SOE {t.initial_soe_kwh} outside "
                f"[0, {t.battery_capacity_kwh}]"))
        if t.tare_tons < 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"truck {t.id}: tare must be nonnegative"))

    for c in scenario.charger_catalog:
        if c.rated_power_kw <= 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"charger {c.id}: rated power must be positive"))
        if c.capital_cost < 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"charger {c.id}: capital cost must be nonnegative"))
        if not (0 < c.efficiency <= 1):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"charger {c.id}: efficiency must be in (0, 1]"))

    prices = scenario.price_schedule
    if prices.peak_price_per_kw < 0:
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "peak price must be nonnegative"))
    if len(prices.energy_price_per_kwh) != len(scenario.charger_catalog):
        issues.append(ValidationIssue(
            UNKNOWN_REFERENCE,
            f"price table has {len(prices.energy_price_per_kwh)} charger rows, "
            f"catalog has {len(scenario.charger_catalog)}"))
    for r, row in enumerate(prices.energy_price_per_kwh):
        if len(row) != grid.total_blocks:
            issues.append(ValidationIssue(
                TIME_OFF_GRID,
                f"price row {r} covers {len(row)} blocks, expected "
                f"{grid.total_blocks}"))
        if any(p < 0 for p in row):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"price row {r} has negative entries"))

    if scenario.alpha < 0:
        issues.append(ValidationIssue(NEGATIVE_QUANTITY, "alpha must be nonnegative"))
    if scenario.slack_blocks < 0:
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "slack_blocks must be nonnegative"))
    if scenario.design_mode not in (CODESIGN, FIXED_INFRASTRUCTURE):
        issues.append(ValidationIssue(
            UNKNOWN_REFERENCE, f"unknown design_mode {scenario.design_mode!r}"))
    if scenario.window_mode not in (WINDOW_PREVIOUS_ARRIVAL, WINDOW_SAME_LEG_ARRIVAL):
        issues.append(ValidationIssue(
            UNKNOWN_REFERENCE, f"unknown window_mode {scenario.window_mode!r}"))
    if scenario.design_mode == FIXED_INFRASTRUCTURE:
        for loc, counts in (scenario.fixed_counts or {}).items():
            if loc not in scenario.location_ids:
                issues.append(ValidationIssue(
                    UNKNOWN_REFERENCE, f"fixed design references unknown location {loc!r}"))
            for type_id, count in counts.items():
                if type_id not in type_ids:
                    issues.append(ValidationIssue(
                        UNKNOWN_REFERENCE,
                        f"fixed design references unknown charger type {type_id}"))
                if not isinstance(count, int) or count < 0:
                    issues.append(ValidationIssue(
                        NEGATIVE_QUANTITY,
                        f"fixed count for ({loc}, {type_id}) must be a "
                        f"nonnegative integer, got {count!r}"))

    known_trucks = set(truck_ids)
    known_locations = set(scenario.location_ids)
    for leg in scenario.legs:
        tag = f"truck {leg.truck_id} day {leg.day} leg {leg.leg_index}"
        if leg.truck_id not in known_trucks:
            issues.append(ValidationIssue(
                UNKNOWN_REFERENCE, f"{tag}: unknown truck id"))
        for loc in (leg.origin_id, leg.destination_id):
            if loc not in known_locations:
                issues.append(ValidationIssue(
                    UNKNOWN_REFERENCE, f"{tag}: unknown location {loc!r}"))
        if not (0 <= leg.day < grid.num_days):
            issues.append(ValidationIssue(
                UNKNOWN_REFERENCE, f"{tag}: day outside analysis period"))
        if leg.distance_km < 0 or leg.payload_tons < 0:
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"{tag}: distance and payload must be nonnegative"))
        if leg.scheduled_arrival_block < leg.scheduled_departure_block:
            issues.append(ValidationIssue(
                TIME_ORDER, f"{tag}: arrival block precedes departure block"))
        if leg.distance_km > 0 and leg.travel_blocks <= 0:
            issues.append(ValidationIssue(
                TIME_ORDER, f"{tag}: positive distance requires travel_blocks > 0"))
        if 0 <= leg.day < grid.num_days:
            day_lo = grid.day_start(leg.day)
            day_hi = grid.day_end(leg.day) + 1  # arrival may touch the boundary
            if not (day_lo <= leg.scheduled_departure_block <= grid.day_end(leg.day)):
                issues.append(ValidationIssue(
                    TIME_OFF_GRID, f"{tag}: departure block outside its day"))
            if not (day_lo <= leg.scheduled_arrival_block <= day_hi):
                issues.append(ValidationIssue(
                    TIME_OFF_GRID, f"{tag}: arrival block outside its day"))
        quantized = _quantize_leg(leg, grid)
        if (quantized.scheduled_departure_block != leg.scheduled_departure_block
                or quantized.scheduled_arrival_block != leg.scheduled_arrival_block):
            issues.append(ValidationIssue(
                TIME_OFF_GRID,
                f"{tag}: clock times are not quantized onto the grid "
                f"(run quantize_times first)"))

    for (truck_id, day), legs_of_tour in tours(scenario).items():
        expected = list(range(1, len(legs_of_tour) + 1))
        if [leg.leg_index for leg in legs_of_tour] != expected:
            issues.append(ValidationIssue(
                CHAIN_BROKEN,
                f"truck {truck_id} day {day}: leg indices must be 1..n "
                f"without gaps"))
            continue
        for prev, nxt in zip(legs_of_tour, legs_of_tour[1:]):
            if prev.destination_id != nxt.origin_id:
                issues.append(ValidationIssue(
                    CHAIN_BROKEN,
                    f"truck {truck_id} day {day}: leg {nxt.leg_index} departs "
                    f"{nxt.origin_id!r} but leg {prev.leg_index} arrived at "
                    f"{prev.destination_id!r}"))
            if nxt.scheduled_departure_block < prev.scheduled_arrival_block:
                issues.append(ValidationIssue(
                    TIME_ORDER,
                    f"truck {truck_id} day {day}: leg {nxt.leg_index} departs "
                    f"before leg {prev.leg_index} arrives"))

    if not issues:
        for truck_id, day, leg_index in empty_window_legs(scenario):
            issues.append(ValidationIssue(
                EMPTY_WINDOW,
                f"truck {truck_id} day {day} leg {leg_index} has no charging "
                f"window", severity="warning"))
    return issues


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged if valid, else raise with every error.

    Warnings (e.g. empty charging windows) are reported by
    :func:`scenario_issues` but do not fail validation.
    """
    errors = [i for i in scenario_issues(scenario) if i.severity == "error"]
    if errors:
        raise ScenarioValidationError(errors)
    return scenario
