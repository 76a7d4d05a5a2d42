"""Build, solve, decode, verify: the one path every front end goes through.

A plan is only returned once the validator replays it clean and its costs
equal the objective, so nothing downstream can emit an unverified schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .builder import BuildResult, build_problem
from .domain import Scenario, ValidationIssue
from .solver import DEFAULT_REL_GAP, NumericalFailure, Solution, branch_and_bound
from .validator import PlanReport, decode_plan, replay

__all__ = ["SolveOutcome", "solve_scenario", "PlanVerificationError", "INTERNAL_FAILURES"]


class PlanVerificationError(RuntimeError):
    """The decoded plan failed the replay or the cost check; indicates a bug.

    ``violations`` is the list of findings (:func:`replay`'s, ``CostMismatch``).
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
    amortize_objective: bool = False,
    trace: list[str] | None = None,
) -> SolveOutcome:
    """Solve one scenario end to end; a plan that fails replay, or whose
    costs miss the objective by over 1e-9, raises PlanVerificationError.
    With ``amortize_objective``, capital enters the objective at the
    scenario's amortized share, and the plan's costs are checked at it.

    Every verdict, INFEASIBLE included, is the search's; the build's
    diagnostics only explain it. A negative or non-finite gap or limit
    raises :func:`branch_and_bound`'s ValueError.
    """
    build = build_problem(scenario, amortize=amortize_objective)
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
    costs = plan.costs.amortized(plan.amortize_ratio) if amortize_objective \
        else plan.costs
    if not math.isclose(costs.total, solution.objective, rel_tol=1e-9, abs_tol=1e-9):
        violations.append(ValidationIssue("CostMismatch", f"plan costs {costs.total!r}, "
                                          f"objective {solution.objective!r}"))
    if violations:
        raise PlanVerificationError(violations)
    return SolveOutcome(solution=solution, build=build, plan=plan)
