"""Rule-based infrastructure designs and the co-design value comparison.

The real-world planning baselines these policies stand in for are not
published anywhere, so each policy here is an explicit, reproducible
definition; headline savings against them are scenario-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .builder import energy_consumption
from .domain import (
    CODESIGN,
    FIXED_INFRASTRUCTURE,
    Scenario,
    charging_windows,
    tours,
    validate_scenario,
)
from .run import SolveOutcome, solve_scenario
from .scenario_io import load_design
from .validator import PlanReport

__all__ = [
    "MainDepotOnly",
    "PeakDemandCover",
    "ExplicitDesign",
    "parse_policy",
    "rule_based_design",
    "DesignComparison",
    "compare_designs",
]


@dataclass(frozen=True, slots=True)
class MainDepotOnly:
    """N chargers of one type at the busiest location, nothing anywhere else."""

    count: int
    charger_type_id: int


@dataclass(frozen=True, slots=True)
class PeakDemandCover:
    """Smallest per-location counts covering a naive charge-on-arrival policy."""

    charger_type_id: int


@dataclass(frozen=True, slots=True)
class ExplicitDesign:
    """User-supplied counts, e.g. loaded from a design file."""

    counts: dict[str, dict[int, int]] | None = None
    path: str | None = None


def parse_policy(text: str):
    """CLI shorthand: main-depot-only:N:R, peak-cover:R, explicit:PATH."""
    head, _, rest = text.partition(":")
    if head == "main-depot-only":
        count, _, type_id = rest.partition(":")
        return MainDepotOnly(count=int(count), charger_type_id=int(type_id))
    if head == "peak-cover":
        return PeakDemandCover(charger_type_id=int(rest))
    if head == "explicit":
        return ExplicitDesign(path=rest)
    raise ValueError(f"unknown policy {text!r}")


def _busiest_location(scenario: Scenario) -> str:
    departures: dict[str, int] = {}
    for leg in scenario.legs:
        departures[leg.origin_id] = departures.get(leg.origin_id, 0) + 1
    if not departures:
        return scenario.location_ids[0]
    # Most departures; ties go to the lexicographically smallest id.
    return min(departures, key=lambda loc: (-departures[loc], loc))


def _naive_cover_counts(scenario: Scenario, type_id: int) -> dict[str, dict[int, int]]:
    """Charge-immediately-on-arrival occupancy, sized to its own peak.

    Every truck starts charging at the opening of each leg's window and
    keeps the charger until the battery is full or the window closes; the
    per-location count is the maximum simultaneous occupancy that produces.
    """
    charger = scenario.charger(type_id)
    tau = scenario.time_grid.block_duration_hours
    per_block_energy = tau * charger.rated_power_kw
    windows = charging_windows(scenario)
    occupancy: dict[tuple[str, int], int] = {}

    for (truck_id, day), legs in tours(scenario).items():
        truck = scenario.truck(truck_id)
        soe = truck.initial_soe_kwh
        for leg in legs:
            window = windows[(truck_id, day, leg.leg_index)]
            missing = truck.battery_capacity_kwh - soe
            blocks_wanted = 0 if missing <= 1e-9 else \
                math.ceil(missing / per_block_energy - 1e-9)
            used = min(blocks_wanted, len(window))
            for block in list(window)[:used]:
                key = (leg.origin_id, block)
                occupancy[key] = occupancy.get(key, 0) + 1
            soe = min(soe + used * per_block_energy, truck.battery_capacity_kwh)
            soe -= energy_consumption(leg, truck)

    counts: dict[str, dict[int, int]] = {}
    for (location, _), n in occupancy.items():
        entry = counts.setdefault(location, {type_id: 0})
        entry[type_id] = max(entry[type_id], n)
    return counts


def rule_based_design(scenario: Scenario, policy) -> dict[str, dict[int, int]]:
    """Materialize a policy into fixed charger counts per location and type."""
    if isinstance(policy, MainDepotOnly):
        if policy.count < 0:
            raise ValueError("charger count must be nonnegative")
        scenario.charger(policy.charger_type_id)  # existence check
        return {_busiest_location(scenario): {policy.charger_type_id: policy.count}}
    if isinstance(policy, PeakDemandCover):
        scenario.charger(policy.charger_type_id)
        return _naive_cover_counts(scenario, policy.charger_type_id)
    if isinstance(policy, ExplicitDesign):
        counts = policy.counts
        if counts is None:
            if policy.path is None:
                raise ValueError("explicit design needs counts or a file path")
            counts = load_design(policy.path)
        for loc, per in counts.items():
            for tid, n in per.items():
                if n < 0:
                    raise ValueError(
                        f"explicit design: negative count at ({loc}, {tid})")
        return counts
    raise TypeError(f"unknown policy object {policy!r}")


@dataclass
class DesignComparison:
    """Co-design versus a fixed design under identical settings."""

    codesign: SolveOutcome
    fixed: SolveOutcome
    codesign_feasible: bool
    fixed_feasible: bool
    deltas: dict[str, float | None] | None

    @property
    def finding(self) -> str:
        if self.fixed_feasible and self.codesign_feasible:
            return "both designs feasible"
        if not self.fixed_feasible and self.codesign_feasible:
            return ("fixed design infeasible for this scenario; "
                    "co-design found a feasible plan")
        if not self.codesign_feasible:
            return "scenario infeasible even under co-design"
        return "co-design infeasible but fixed feasible (unexpected)"

    def to_dict(self) -> dict:
        def plan_costs(outcome: SolveOutcome):
            if outcome.plan is None:
                return None
            c = outcome.plan.costs
            return {"energy": c.energy, "infrastructure": c.infrastructure,
                    "peak": c.peak, "total": c.total}

        return {
            "finding": self.finding,
            "codesign_feasible": self.codesign_feasible,
            "fixed_feasible": self.fixed_feasible,
            "codesign": {
                "status": self.codesign.solution.status.value,
                "objective": self.codesign.solution.objective,
                "gap": self.codesign.solution.gap,
                "costs": plan_costs(self.codesign),
                "charger_counts": _counts_doc(self.codesign.plan),
            },
            "fixed": {
                "status": self.fixed.solution.status.value,
                "objective": self.fixed.solution.objective,
                "gap": self.fixed.solution.gap,
                "costs": plan_costs(self.fixed),
                "charger_counts": _counts_doc(self.fixed.plan),
            },
            "deltas_pct": None if self.deltas is None else {
                k: (None if v is None else 100.0 * v)
                for k, v in self.deltas.items()
            },
        }


def _counts_doc(plan: PlanReport | None):
    if plan is None:
        return None
    return {loc: {str(t): n for t, n in sorted(per.items())}
            for loc, per in sorted(plan.charger_counts.items())}


def _delta(fixed_value: float, codesign_value: float) -> float | None:
    if abs(fixed_value) < 1e-12:
        return None
    return (fixed_value - codesign_value) / fixed_value


def compare_designs(
    scenario: Scenario,
    fixed_counts: dict[str, dict[int, int]],
    rel_gap: float = 1e-2,
) -> DesignComparison:
    """Solve co-design and fixed variants with identical settings.

    Deltas are relative savings, (fixed - codesign) / fixed, computed only
    when both designs are feasible; an infeasible fixed design is itself the
    reported finding.
    """
    codesign_scenario = validate_scenario(replace(
        scenario, design_mode=CODESIGN, fixed_counts=None))
    fixed_scenario = validate_scenario(replace(
        scenario, design_mode=FIXED_INFRASTRUCTURE, fixed_counts=fixed_counts))

    codesign = solve_scenario(codesign_scenario, rel_gap)
    fixed = solve_scenario(fixed_scenario, rel_gap)

    deltas = None
    if codesign.feasible and fixed.feasible:
        c, f = codesign.plan.costs, fixed.plan.costs
        deltas = {
            "total": _delta(f.total, c.total),
            "energy": _delta(f.energy, c.energy),
            "infrastructure": _delta(f.infrastructure, c.infrastructure),
            "peak": _delta(f.peak, c.peak),
        }
    return DesignComparison(
        codesign=codesign,
        fixed=fixed,
        codesign_feasible=codesign.feasible,
        fixed_feasible=fixed.feasible,
        deltas=deltas,
    )
