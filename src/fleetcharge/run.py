"""Build, solve, decode, verify: the one path every front end goes through.

A plan is only ever returned after the independent validator replays it
clean, so nothing downstream can emit an unverified schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import BuildResult, build_problem
from .domain import Scenario, ValidationIssue
from .solver import (DEFAULT_REL_GAP, NumericalFailure, Solution, SolveStatus,
                     branch_and_bound, check_limits)
from .validator import PlanReport, decode_plan, replay

__all__ = ["SolveOutcome", "solve_scenario", "PlanVerificationError", "INTERNAL_FAILURES"]


class PlanVerificationError(RuntimeError):
    """The decoded plan failed the independent replay; indicates a bug.

    ``violations`` is the list of findings that :func:`replay` returned.
    """

    def __init__(self, violations: list[ValidationIssue]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:8])
        super().__init__(f"solved plan failed verification: {lines}")


# A failure of the solver or of the decoded plan's replay: a bug to report,
# never a property of the input.
INTERNAL_FAILURES = (NumericalFailure, PlanVerificationError)


@dataclass
class SolveOutcome:
    solution: Solution
    build: BuildResult
    plan: PlanReport | None

    @property
    def feasible(self) -> bool:
        return self.plan is not None


def solve_scenario(
    scenario: Scenario,
    rel_gap: float = DEFAULT_REL_GAP,
    node_limit: int | None = None,
    time_limit: float | None = None,
    amortize_objective_ratio: float | None = None,
    trace: list[str] | None = None,
) -> SolveOutcome:
    """Solve one scenario end to end and verify the plan before returning.

    Scenarios the structural scan proves unreachable short-circuit to
    INFEASIBLE without a solver run; the diagnostics say why. A limit that
    :func:`check_limits` rejects raises ValueError either way.
    """
    check_limits(rel_gap, node_limit, time_limit)
    build = build_problem(scenario, amortize_ratio=amortize_objective_ratio)
    if build.guaranteed_infeasible:
        return SolveOutcome(
            solution=Solution(status=SolveStatus.INFEASIBLE),
            build=build,
            plan=None,
        )
    solution = branch_and_bound(
        build.model,
        rel_gap_target=rel_gap,
        node_limit=node_limit,
        time_limit=time_limit,
        trace=trace,
    )
    if not solution.is_feasible:
        return SolveOutcome(solution=solution, build=build, plan=None)

    plan = decode_plan(scenario, build.catalog, solution)
    violations = replay(scenario, plan)
    if violations:
        raise PlanVerificationError(violations)
    return SolveOutcome(solution=solution, build=build, plan=plan)
