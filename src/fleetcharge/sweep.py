"""Full-factorial sweeps over peak weight, time slack, and design mode.

Every cell is validated before the first solve; each is then an independent
solve, :func:`solve_cell`, whose verified plan lands in a JSON report; three
aggregate CSVs collect infrastructure, costs, and daily power curves across
cells. ``baseline.compare_designs`` solves its two designs as one cell each
the same way. Cells run in order and are written in cell order, so outputs
are byte-identical for identical inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import Scenario, default_amortize_ratio, scenario_variant, validate_scenario
from .run import INTERNAL_FAILURES, SolveOutcome, solve_scenario
from .scenario_io import write_csv, write_json
from .solver import DEFAULT_REL_GAP, check_limits
from .validator import location_total_kw, write_plan_json

__all__ = ["SweepSpec", "SweepCell", "solve_cell", "run_sweep"]

SMOOTH_WINDOW = 4  # centered moving average width, in blocks


@dataclass(frozen=True, slots=True)
class SweepCell:
    alpha: float
    slack_minutes: int
    design: str

    def tag(self) -> str:
        return f"a{self.alpha:g}_s{self.slack_minutes}_{self.design}"


@dataclass
class SweepSpec:
    """A grid of cells under one gap and limits; :meth:`variants` checks each."""

    alphas: list[float]
    slack_minutes: list[int]
    designs: list[str]
    fixed_counts: dict[str, dict[int, int]] | None = None
    rel_gap: float = DEFAULT_REL_GAP
    node_limit: int | None = None
    time_limit: float | None = None
    out_dir: str | Path = "sweep_out"

    def __post_init__(self) -> None:
        if not self.alphas or not self.slack_minutes or not self.designs:
            raise ValueError("alpha, slack, and design lists must be nonempty")
        check_limits(self.rel_gap, self.node_limit, self.time_limit)
        tagged: dict[str, SweepCell] = {}
        for cell in self.cells():  # each cell writes plan_<tag>.json
            other = tagged.setdefault(cell.tag(), cell)
            if other is not cell:
                raise ValueError(f"cells {other} and {cell} share the tag {cell.tag()!r}")

    def cells(self) -> list[SweepCell]:
        return [
            SweepCell(alpha, slack, design)
            for alpha, slack, design in itertools.product(
                self.alphas, self.slack_minutes, self.designs)
        ]

    def variants(self, scenario: Scenario) -> list[tuple[SweepCell, Scenario]]:
        """Each cell with its validated scenario variant; a bad cell raises
        ValueError before any is returned."""
        return [(c, validate_scenario(scenario_variant(
            scenario, c.design, self.fixed_counts, c.alpha, c.slack_minutes)))
            for c in self.cells()]


def _smooth(curves: np.ndarray) -> np.ndarray:
    """Centered moving average of each row over ``SMOOTH_WINDOW`` blocks;
    edges average over the available blocks only.

    Each window sums its terms in block order from 0.0; the zeros padded
    past the edges add exactly nothing.
    """
    half_lo = SMOOTH_WINDOW // 2
    half_hi = SMOOTH_WINDOW - half_lo - 1
    blocks = curves.shape[1]
    padded = np.pad(curves, ((0, 0), (half_lo, half_hi)))
    total = np.zeros(curves.shape)
    for k in range(SMOOTH_WINDOW):
        total += padded[:, k:k + blocks]
    t = np.arange(blocks)
    return total / (np.minimum(blocks, t + half_hi + 1) - np.maximum(0, t - half_lo))


def _fmt(x: float) -> str:
    return repr(float(x))


def solve_cell(variant: Scenario, spec: SweepSpec) -> SolveOutcome:
    """One validated variant from :meth:`SweepSpec.variants`, solved under
    the spec's gap and limits."""
    return solve_scenario(variant, rel_gap=spec.rel_gap,
                          node_limit=spec.node_limit, time_limit=spec.time_limit)


def run_sweep(scenario: Scenario, spec: SweepSpec) -> dict:
    """One solve per cell; per-cell JSON plans plus three aggregate CSVs.

    A bad cell raises ValueError before any solve or write. A solve's failures
    (infeasibility, limits, exceptions) are recorded in the summary and the
    sweep goes on; a cell that raised carries the exception's class name as
    ``error_class``. Returns the summary document, also written to
    ``summary.json``. Once every output is written, the first internal
    failure (``run.INTERNAL_FAILURES``) a cell raised is raised again, since
    it is a bug and no property of the cell.
    """
    variants = spec.variants(scenario)
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ratio = default_amortize_ratio(scenario)

    summary: dict = {"cells": [], "failures": []}
    infra_rows: list[list] = []
    cost_rows: list[list] = []
    curve_rows: list[list] = []
    type_ids = [c.id for c in scenario.charger_catalog]
    internal: list[Exception] = []

    for cell, variant in variants:
        entry: dict = {
            "alpha": cell.alpha,
            "slack_minutes": cell.slack_minutes,
            "design": cell.design,
        }
        try:
            outcome = solve_cell(variant, spec)
        except Exception as error:  # the solve failed; the sweep continues
            entry["status"] = "error"
            entry["error"] = f"{type(error).__name__}: {error}"
            entry["error_class"] = type(error).__name__
            if isinstance(error, INTERNAL_FAILURES):
                internal.append(error)
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
        write_plan_json(plan, plan_path)
        entry["plan"] = plan_path.name
        summary["cells"].append(entry)

        for location in sorted(plan.charger_counts):
            for type_id, count in sorted(plan.charger_counts[location].items()):
                infra_rows.append(
                    [cell.alpha, cell.slack_minutes, cell.design,
                     location, type_id, count])

        costs, amortized = plan.costs, plan.costs.amortized(ratio)
        cost_rows.append([
            cell.alpha, cell.slack_minutes, cell.design, solution.status.value,
            _fmt(solution.gap), _fmt(solution.objective), _fmt(costs.energy),
            _fmt(costs.infrastructure), _fmt(amortized.infrastructure),
            _fmt(costs.peak), _fmt(costs.total), _fmt(amortized.total),
        ])

        curve_rows.extend(_curve_rows(scenario, cell, plan, type_ids))

    write_csv(out_dir / "infrastructure.csv",
              ["alpha", "slack_minutes", "design", "location", "charger_type",
               "count"], infra_rows)
    write_csv(out_dir / "costs.csv",
              ["alpha", "slack_minutes", "design", "status", "gap", "objective",
               "energy", "infrastructure", "infrastructure_amortized", "peak",
               "total", "total_amortized"], cost_rows)
    write_csv(out_dir / "power_curves.csv",
              ["alpha", "slack_minutes", "design", "location", "block_of_day"]
              + [f"kw_type_{tid}" for tid in type_ids]
              + [f"kw_type_{tid}_smooth" for tid in type_ids]
              + ["kw_total", "kw_total_smooth", "max_peak_kw", "installed_kw"],
              curve_rows)

    summary["amortize_ratio"] = ratio
    write_json(summary, out_dir / "summary.json")
    if internal:
        raise internal[0]
    return summary


def _curve_rows(scenario: Scenario, cell: SweepCell, plan, type_ids) -> list[list]:
    """Average daily power per location and type, raw and smoothed.

    Every sum starts from 0.0 and adds days, types and window terms in
    order, so each value is what a loop over them gives. The values are
    Python floats, which ``csv`` writes as their ``repr``.
    """
    grid = scenario.time_grid
    bpd, days = grid.blocks_per_day, grid.num_days
    rows = []
    for location in scenario.location_ids:
        by_type = plan.power_by_type.get(location, {})
        curves = np.zeros((len(type_ids), days, bpd))
        for k, tid in enumerate(type_ids):
            if tid in by_type:
                curves[k] = np.reshape(by_type[tid], (days, bpd))
        daily = np.zeros((len(type_ids), bpd))
        for d in range(days):
            daily += curves[:, d]
        daily /= days
        total = np.zeros(bpd)
        for curve in daily:
            total += curve
        smooth = _smooth(np.vstack([daily, total]))
        max_peak = float(max(location_total_kw(by_type), default=0.0))
        installed = float(sum(
            scenario.charger(tid).rated_power_kw
            * plan.charger_counts.get(location, {}).get(tid, 0)
            for tid in type_ids))
        # Per block: each type raw, each type smoothed, then the totals.
        per_block = np.vstack([daily, smooth[:-1], total, smooth[-1]]).T.tolist()
        for t, values in enumerate(per_block):
            rows.append([cell.alpha, cell.slack_minutes, cell.design, location, t,
                         *values, max_peak, installed])
    return rows
