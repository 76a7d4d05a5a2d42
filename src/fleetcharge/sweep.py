"""Full-factorial sweeps over peak weight, time slack, and design mode.

Each cell is an independent solve whose verified plan lands in a JSON
report; three aggregate CSVs collect infrastructure, costs, and daily power
curves across cells. Cells run one after another and are written in cell
order, so outputs are byte-identical for identical inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .domain import CODESIGN, FIXED_INFRASTRUCTURE, Scenario, validate_scenario
from .run import SolveOutcome, solve_scenario
from .validator import _location_peak_kw, write_plan_json

__all__ = ["SweepSpec", "SweepCell", "run_sweep", "default_amortize_ratio"]

SMOOTH_WINDOW = 4  # centered moving average width, in blocks
SERVICE_YEARS = 10.0  # charger service life that capital is prorated over


def default_amortize_ratio(scenario: Scenario) -> float:
    """Reporting convention: capital prorated to the analysis period."""
    return scenario.time_grid.num_days / (SERVICE_YEARS * 365.0)


@dataclass(frozen=True, slots=True)
class SweepCell:
    alpha: float
    slack_minutes: int
    design: str

    def tag(self) -> str:
        return f"a{self.alpha:g}_s{self.slack_minutes}_{self.design}"


@dataclass
class SweepSpec:
    alphas: list[float]
    slack_minutes: list[int]
    designs: list[str]
    fixed_counts: dict[str, dict[int, int]] | None = None
    rel_gap: float = 1e-2
    node_limit: int | None = None
    time_limit: float | None = None
    out_dir: str | Path = "sweep_out"

    def __post_init__(self) -> None:
        if not self.alphas or not self.slack_minutes or not self.designs:
            raise ValueError("alpha, slack, and design lists must be nonempty")
        for design in self.designs:
            if design not in (CODESIGN, FIXED_INFRASTRUCTURE):
                raise ValueError(f"unknown design mode {design!r}")
        if FIXED_INFRASTRUCTURE in self.designs and self.fixed_counts is None:
            raise ValueError("fixed design cells need fixed_counts")

    def cells(self) -> list[SweepCell]:
        return [
            SweepCell(alpha, slack, design)
            for alpha, slack, design in itertools.product(
                self.alphas, self.slack_minutes, self.designs)
        ]


def _cell_scenario(scenario: Scenario, spec: SweepSpec, cell: SweepCell) -> Scenario:
    variant = replace(
        scenario,
        alpha=cell.alpha,
        slack_blocks=scenario.time_grid.slack_blocks(cell.slack_minutes),
        design_mode=cell.design,
        fixed_counts=spec.fixed_counts if cell.design == FIXED_INFRASTRUCTURE else None,
    )
    return validate_scenario(variant)


def _smooth(values: list[float], window: int = SMOOTH_WINDOW) -> list[float]:
    """Centered moving average; edges truncate to the available blocks."""
    half_lo = window // 2
    half_hi = window - half_lo - 1
    out = []
    for t in range(len(values)):
        lo = max(0, t - half_lo)
        hi = min(len(values), t + half_hi + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def run_sweep(scenario: Scenario, spec: SweepSpec) -> dict:
    """One solve per cell; per-cell JSON plans plus three aggregate CSVs.

    Cell failures (infeasible cells, solver limits) are recorded in the
    summary and the sweep continues. Returns the summary document, which is
    also written to ``summary.json``.
    """
    for slack in spec.slack_minutes:
        scenario.time_grid.slack_blocks(slack)  # reject before any cell runs
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = spec.cells()
    ratio = default_amortize_ratio(scenario)

    def evaluate(cell: SweepCell) -> tuple[SweepCell, SolveOutcome | None, str | None]:
        try:
            variant = _cell_scenario(scenario, spec, cell)
            outcome = solve_scenario(
                variant, rel_gap=spec.rel_gap,
                node_limit=spec.node_limit, time_limit=spec.time_limit)
            return cell, outcome, None
        except Exception as exc:  # per-cell failure; the sweep continues
            return cell, None, f"{type(exc).__name__}: {exc}"

    results = [evaluate(cell) for cell in cells]

    summary: dict = {"cells": [], "failures": []}
    infra_rows: list[list] = []
    cost_rows: list[list] = []
    curve_rows: list[list] = []
    type_ids = [c.id for c in scenario.charger_catalog]

    for cell, outcome, error in results:
        entry: dict = {
            "alpha": cell.alpha,
            "slack_minutes": cell.slack_minutes,
            "design": cell.design,
        }
        if error is not None:
            entry["status"] = "error"
            entry["error"] = error
            summary["failures"].append(entry)
            summary["cells"].append(entry)
            continue

        solution = outcome.solution
        entry["status"] = solution.status.value
        # No incumbent leaves an infinite gap, which JSON cannot hold.
        entry["gap"] = solution.gap if solution.gap is not None \
            and math.isfinite(solution.gap) else None
        entry["objective"] = solution.objective
        if outcome.plan is None:
            cost_rows.append(
                [cell.alpha, cell.slack_minutes, cell.design,
                 solution.status.value, "", "", "", "", "", "", "", ""])
            summary["failures"].append(dict(entry))
            summary["cells"].append(entry)
            continue

        plan = outcome.plan
        plan_path = out_dir / f"plan_{cell.tag()}.json"
        write_plan_json(plan, plan_path, amortize_ratio=ratio)
        entry["plan"] = plan_path.name
        summary["cells"].append(entry)

        for location in sorted(plan.charger_counts):
            for type_id, count in sorted(plan.charger_counts[location].items()):
                infra_rows.append(
                    [cell.alpha, cell.slack_minutes, cell.design,
                     location, type_id, count])

        costs = plan.costs
        cost_rows.append([
            cell.alpha, cell.slack_minutes, cell.design, solution.status.value,
            _fmt(solution.gap), _fmt(solution.objective), _fmt(costs.energy),
            _fmt(costs.infrastructure), _fmt(costs.infrastructure * ratio),
            _fmt(costs.peak), _fmt(costs.total),
            _fmt(costs.energy + costs.infrastructure * ratio + costs.peak),
        ])

        curve_rows.extend(_curve_rows(scenario, cell, plan, type_ids))

    _write_csv(out_dir / "infrastructure.csv",
               ["alpha", "slack_minutes", "design", "location", "charger_type",
                "count"], infra_rows)
    _write_csv(out_dir / "costs.csv",
               ["alpha", "slack_minutes", "design", "status", "gap", "objective",
                "energy", "infrastructure", "infrastructure_amortized", "peak",
                "total", "total_amortized"], cost_rows)
    _write_csv(out_dir / "power_curves.csv",
               ["alpha", "slack_minutes", "design", "location", "block_of_day"]
               + [f"kw_type_{tid}" for tid in type_ids]
               + [f"kw_type_{tid}_smooth" for tid in type_ids]
               + ["kw_total", "kw_total_smooth", "max_peak_kw", "installed_kw"],
               curve_rows)

    summary["amortize_ratio"] = ratio
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _curve_rows(scenario: Scenario, cell: SweepCell, plan, type_ids) -> list[list]:
    """Average daily power per location and type, raw and smoothed."""
    grid = scenario.time_grid
    bpd, days = grid.blocks_per_day, grid.num_days
    rows = []
    for location in scenario.location_ids:
        by_type = plan.power_by_type.get(location, {})
        daily: dict[int, list[float]] = {}
        for tid in type_ids:
            curve = by_type.get(tid, [0.0] * grid.total_blocks)
            daily[tid] = [
                sum(curve[d * bpd + t] for d in range(days)) / days
                for t in range(bpd)
            ]
        total = [sum(daily[tid][t] for tid in type_ids) for t in range(bpd)]
        smooth_by_type = {tid: _smooth(daily[tid]) for tid in type_ids}
        smooth_total = _smooth(total)
        max_peak = _location_peak_kw(by_type)
        installed = sum(
            scenario.charger(tid).rated_power_kw
            * plan.charger_counts.get(location, {}).get(tid, 0)
            for tid in type_ids)
        for t in range(bpd):
            rows.append(
                [cell.alpha, cell.slack_minutes, cell.design, location, t]
                + [_fmt(daily[tid][t]) for tid in type_ids]
                + [_fmt(smooth_by_type[tid][t]) for tid in type_ids]
                + [_fmt(total[t]), _fmt(smooth_total[t]), _fmt(max_peak),
                   _fmt(installed)])
    return rows


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
