"""Problem-instance data types, validation, and the shared time discretization.

Every other module consumes the types defined here. Instances are frozen
dataclasses: once a scenario has passed validation it is immutable and safe
to share between threads.

Time convention: a leg holds only its clock minutes within its day, and
the :class:`TimeGrid` derives every block from them by exact integer
division, since a block is a whole number of minutes that divides the
day. Block indices count from the start of the analysis period (block 0 =
00:00 of day 0); a day is a contiguous range of ``blocks_per_day``
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "CODESIGN",
    "FIXED_INFRASTRUCTURE",
    "TimeGrid",
    "ChargerType",
    "Truck",
    "TripLeg",
    "PriceSchedule",
    "Scenario",
    "ValidationIssue",
    "ScenarioValidationError",
    "default_amortize_ratio",
    "scenario_issues",
    "validate_scenario",
    "scenario_variant",
    "tours",
    "charging_windows",
    "empty_window_legs",
]

# Design-mode identifiers.
CODESIGN = "codesign"
FIXED_INFRASTRUCTURE = "fixed"

# Issue codes used by scenario validation.
CHAIN_BROKEN = "ChainBroken"
TIME_OFF_GRID = "TimeOffGrid"
UNKNOWN_REFERENCE = "UnknownReference"
NEGATIVE_QUANTITY = "NegativeQuantity"
TIME_ORDER = "TimeOrder"
BATTERY_RANGE = "BatteryRange"
DUPLICATE_ID = "DuplicateId"
EMPTY_WINDOW = "EmptyWindow"  # warning, not an error

SERVICE_YEARS = 10.0  # charger service life that capital is prorated over


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One finding of scenario validation, of the model build or of plan
    replay; ``severity`` is ``"error"`` or ``"warning"``."""

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
    """Uniform discretization of the analysis period into whole blocks.

    The constructor raises ValueError unless ``block_minutes`` divides the
    1440 minutes of a day and ``num_days`` is a positive integer; blocks
    per day and the block length in hours (tau) are derived from them.
    """

    block_minutes: int
    num_days: int

    def __post_init__(self) -> None:
        if (not isinstance(self.block_minutes, int) or self.block_minutes <= 0
                or 1440 % self.block_minutes != 0):
            raise ValueError(
                f"block_minutes must divide 24h evenly, got {self.block_minutes}")
        if not isinstance(self.num_days, int) or self.num_days <= 0:
            raise ValueError(
                f"num_days must be a positive integer, got {self.num_days}")

    @property
    def block_duration_hours(self) -> float:
        return self.block_minutes / 60.0

    @property
    def blocks_per_day(self) -> int:
        return 1440 // self.block_minutes

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

    def slack_blocks(self, slack_minutes: int) -> int:
        """Departure slack in whole blocks; ValueError if it does not divide."""
        blocks, rest = divmod(slack_minutes, self.block_minutes)
        if rest:
            raise ValueError(
                f"slack of {slack_minutes} min is not a whole number of "
                f"{self.block_minutes}-minute blocks")
        return int(blocks)

    # Departures round down, arrivals and travel times up, so no leg's
    # charging window gets longer than its clock times allow.
    def departure_block(self, leg: TripLeg) -> int:
        """Global block the leg departs in: its departure minute rounded down."""
        return self.day_start(leg.day) + leg.departure_clock_min // self.block_minutes

    def arrival_block(self, leg: TripLeg) -> int:
        """Global block the leg has arrived by: its arrival minute rounded up."""
        return self.day_start(leg.day) - (-leg.arrival_clock_min // self.block_minutes)

    def travel_blocks(self, leg: TripLeg) -> int:
        """The leg's driving time in whole blocks, rounded up."""
        return -(-(leg.arrival_clock_min - leg.departure_clock_min)
                 // self.block_minutes)


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

    ``departure_clock_min`` / ``arrival_clock_min`` are the scheduled
    minutes past midnight of ``day`` (1440 is the day's end). The
    scenario's :class:`TimeGrid` derives the leg's blocks from them.
    """

    truck_id: str
    day: int
    leg_index: int  # 1-based position within the truck's tour for the day
    origin_id: str
    destination_id: str
    departure_clock_min: int
    arrival_clock_min: int
    distance_km: float
    payload_tons: float


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


def default_amortize_ratio(scenario: Scenario) -> float:
    """Reporting convention: capital prorated to the analysis period."""
    return scenario.time_grid.num_days / (SERVICE_YEARS * 365.0)


def tours(scenario: Scenario) -> dict[tuple[str, int], list[TripLeg]]:
    """Group legs by (truck, day), ordered by leg_index."""
    grouped: dict[tuple[str, int], list[TripLeg]] = {}
    for leg in scenario.legs:
        grouped.setdefault((leg.truck_id, leg.day), []).append(leg)
    for legs in grouped.values():
        legs.sort(key=lambda leg: leg.leg_index)
    return dict(sorted(grouped.items()))


def charging_windows(scenario: Scenario) -> dict[tuple[str, int, int], range]:
    """Blocks during which each leg may charge, keyed by (truck, day, leg).

    A leg's window opens at the previous leg's scheduled arrival (day start
    for the first leg) and closes ``slack_blocks - 1`` after the scheduled
    departure; charging occupies whole blocks, so a leg that charges in the
    window's last block departs exactly at scheduled departure + slack.
    Windows are clipped to the leg's day.
    An empty range means the leg cannot charge.
    """
    grid = scenario.time_grid
    beta = scenario.slack_blocks
    windows: dict[tuple[str, int, int], range] = {}
    for (truck_id, day), legs in tours(scenario).items():
        day_start = grid.day_start(day)
        day_end = grid.day_end(day)
        opens = [day_start] + [max(grid.arrival_block(prev), day_start)
                               for prev in legs[:-1]]
        for leg, open_block in zip(legs, opens):
            close_block = min(grid.departure_block(leg) + beta - 1, day_end)
            windows[(truck_id, day, leg.leg_index)] = range(
                open_block, max(close_block + 1, open_block))
    return windows


def empty_window_legs(scenario: Scenario) -> list[tuple[str, int, int]]:
    """Keys of legs whose charging window is empty (reported, never hidden)."""
    return [key for key, win in charging_windows(scenario).items() if len(win) == 0]


def _positive(x: float) -> bool:
    """True for a finite x > 0; NaN and the infinities fail."""
    return 0 < x < math.inf


def _nonnegative(x: float) -> bool:
    """True for a finite x >= 0; NaN and the infinities fail."""
    return 0 <= x < math.inf


def scenario_issues(scenario: Scenario) -> list[ValidationIssue]:
    """Enumerate every invariant violation; never stops at the first."""
    issues: list[ValidationIssue] = []
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
        if not _positive(t.consumption_kwh_per_km_ton):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"truck {t.id}: consumption must be positive and finite"))
        if not _positive(t.battery_capacity_kwh):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"truck {t.id}: battery capacity must be positive and finite"))
        if not (0 <= t.initial_soe_kwh <= t.battery_capacity_kwh):
            issues.append(ValidationIssue(
                BATTERY_RANGE,
                f"truck {t.id}: initial SOE {t.initial_soe_kwh} outside "
                f"[0, {t.battery_capacity_kwh}]"))
        if not _nonnegative(t.tare_tons):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"truck {t.id}: tare must be nonnegative and finite"))

    for c in scenario.charger_catalog:
        if not _positive(c.rated_power_kw):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"charger {c.id}: rated power must be positive and finite"))
        if not _nonnegative(c.capital_cost):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"charger {c.id}: capital cost must be nonnegative and finite"))
        if not (0 < c.efficiency <= 1):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"charger {c.id}: efficiency must be in (0, 1]"))

    prices = scenario.price_schedule
    if not _nonnegative(prices.peak_price_per_kw):
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "peak price must be nonnegative and finite"))
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
        if not all(0 <= p < math.inf for p in row):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY, f"price row {r} has negative or non-finite entries"))

    if not _nonnegative(scenario.alpha):
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "alpha must be nonnegative and finite"))
    if scenario.slack_blocks < 0:
        issues.append(ValidationIssue(
            NEGATIVE_QUANTITY, "slack_blocks must be nonnegative"))
    if scenario.design_mode not in (CODESIGN, FIXED_INFRASTRUCTURE):
        issues.append(ValidationIssue(
            UNKNOWN_REFERENCE, f"unknown design_mode {scenario.design_mode!r}"))
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
        if not (_nonnegative(leg.distance_km) and _nonnegative(leg.payload_tons)):
            issues.append(ValidationIssue(
                NEGATIVE_QUANTITY,
                f"{tag}: distance and payload must be nonnegative and finite"))
        departure, arrival = grid.departure_block(leg), grid.arrival_block(leg)
        if arrival < departure:
            issues.append(ValidationIssue(
                TIME_ORDER, f"{tag}: arrival block precedes departure block"))
        if leg.distance_km > 0 and grid.travel_blocks(leg) <= 0:
            issues.append(ValidationIssue(
                TIME_ORDER, f"{tag}: positive distance requires travel_blocks > 0"))
        if 0 <= leg.day < grid.num_days:
            day_lo = grid.day_start(leg.day)
            day_hi = grid.day_end(leg.day) + 1  # arrival may touch the boundary
            if not (day_lo <= departure <= grid.day_end(leg.day)):
                issues.append(ValidationIssue(
                    TIME_OFF_GRID, f"{tag}: departure block outside its day"))
            if not (day_lo <= arrival <= day_hi):
                issues.append(ValidationIssue(
                    TIME_OFF_GRID, f"{tag}: arrival block outside its day"))

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
            if grid.departure_block(nxt) < grid.arrival_block(prev):
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


def scenario_variant(scenario: Scenario, design: str, fixed_counts=None,
                     alpha: float | None = None, slack_minutes=None) -> Scenario:
    """The scenario under ``design`` (``fixed_counts`` only for the fixed design)
    and, if given, another alpha and slack; validate it before use. A fixed
    design without counts, or a slack of no whole blocks, raises ValueError."""
    if design == FIXED_INFRASTRUCTURE and fixed_counts is None:
        raise ValueError("a fixed design needs fixed_counts")
    updates = {"design_mode": design,
               "fixed_counts": fixed_counts if design == FIXED_INFRASTRUCTURE else None}
    if alpha is not None:
        updates["alpha"] = alpha
    if slack_minutes is not None:
        updates["slack_blocks"] = scenario.time_grid.slack_blocks(slack_minutes)
    return replace(scenario, **updates)
