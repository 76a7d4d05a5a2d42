"""Rule-based infrastructure designs and the co-design value comparison.

A comparison is a one-cell sweep (``sweep.solve_cell``) over the co-design
and the fixed design at one alpha and slack; :func:`pair_designs` turns the
two outcomes into the compare document.

The real-world planning baselines these policies stand in for are not
published anywhere, so each policy here is an explicit, reproducible
definition; headline savings against them are scenario-dependent. An
explicit design is a design file, read by ``scenario_io.load_design``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .builder import energy_consumption
from .domain import CODESIGN, FIXED_INFRASTRUCTURE, Scenario, charging_windows, tours
from .run import SolveOutcome
from .scenario_io import design_counts_doc, load_design, write_json
from .solver import DEFAULT_REL_GAP
from .sweep import SweepSpec, solve_cell

__all__ = [
    "MainDepotOnly",
    "PeakDemandCover",
    "ExplicitDesign",
    "parse_policy",
    "rule_based_design",
    "pair_designs",
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
    """The counts of a design file (``{location: {type_id: count}}`` JSON)."""

    path: str


def parse_policy(text: str):
    """CLI shorthand: main-depot-only:N:R, peak-cover:R, explicit:PATH, with
    whole numbers N (chargers) and R (charger type)."""
    head, _, rest = text.partition(":")
    try:
        if head == "main-depot-only":
            count, _, type_id = rest.partition(":")
            return MainDepotOnly(count=int(count), charger_type_id=int(type_id))
        if head == "peak-cover":
            return PeakDemandCover(charger_type_id=int(rest))
        if head == "explicit":
            return ExplicitDesign(path=rest)
    except ValueError:  # N or R is not a whole number
        pass
    raise ValueError(f"bad policy {text!r}: expected main-depot-only:N:R, "
                     "peak-cover:R or explicit:PATH, with whole numbers N and R")


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
    if isinstance(policy, (MainDepotOnly, PeakDemandCover)):
        type_ids = [c.id for c in scenario.charger_catalog]
        if policy.charger_type_id not in type_ids:
            raise ValueError(
                f"charger type {policy.charger_type_id} is not in the scenario's "
                f"catalog (types {type_ids})")
    if isinstance(policy, MainDepotOnly):
        if policy.count < 0:
            raise ValueError("charger count must be nonnegative")
        return {_busiest_location(scenario): {policy.charger_type_id: policy.count}}
    if isinstance(policy, PeakDemandCover):
        return _naive_cover_counts(scenario, policy.charger_type_id)
    if isinstance(policy, ExplicitDesign):
        return load_design(policy.path)
    raise TypeError(f"unknown policy object {policy!r}")


def _outcome_doc(outcome: SolveOutcome) -> dict:
    plan = outcome.plan
    return {
        "status": outcome.solution.status.value,
        "objective": outcome.solution.objective,
        "gap": outcome.solution.gap,
        "costs": None if plan is None else asdict(plan.costs),
        "charger_counts": (None if plan is None
                           else design_counts_doc(plan.charger_counts)),
    }


def _delta_pct(fixed_value: float, codesign_value: float) -> float | None:
    if abs(fixed_value) < 1e-12:
        return None
    return 100.0 * ((fixed_value - codesign_value) / fixed_value)


def pair_designs(codesign: SolveOutcome, fixed: SolveOutcome) -> dict:
    """The compare document of a co-design and a fixed-design outcome at one
    alpha and slack.

    Deltas are relative savings, (fixed - codesign) / fixed, in percent,
    given only when both designs are feasible; an infeasible fixed design is
    itself the reported finding.
    """
    deltas = None
    if codesign.feasible and fixed.feasible:
        c, f = codesign.plan.costs, fixed.plan.costs
        deltas = {key: _delta_pct(getattr(f, key), getattr(c, key))
                  for key in ("total", "energy", "infrastructure", "peak")}
    if not codesign.feasible:
        finding = "scenario infeasible even under co-design"
    elif not fixed.feasible:
        finding = ("fixed design infeasible for this scenario; "
                   "co-design found a feasible plan")
    else:
        finding = "both designs feasible"
    return {
        "finding": finding,
        "codesign_feasible": codesign.feasible,
        "fixed_feasible": fixed.feasible,
        "codesign": _outcome_doc(codesign),
        "fixed": _outcome_doc(fixed),
        "deltas_pct": deltas,
    }


def compare_designs(scenario: Scenario, fixed_counts: dict[str, dict[int, int]],
                    rel_gap: float = DEFAULT_REL_GAP, out: str | Path | None = None) -> dict:
    """Co-design against ``fixed_counts`` at the scenario's alpha and slack: a
    one-cell sweep over both designs, each validated before either is solved.

    With ``out``, the document is also written there; as in ``run_sweep``,
    its directory is made once both variants pass and before either solve.
    """
    spec = SweepSpec(
        alphas=[scenario.alpha],
        slack_minutes=[scenario.slack_blocks * scenario.time_grid.block_minutes],
        designs=[CODESIGN, FIXED_INFRASTRUCTURE], fixed_counts=fixed_counts,
        rel_gap=rel_gap)
    (_, codesign), (_, fixed) = spec.variants(scenario)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    doc = pair_designs(solve_cell(codesign, spec), solve_cell(fixed, spec))
    if out is not None:
        write_json(doc, out)
    return doc
