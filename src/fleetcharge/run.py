"""Build, solve, decode, verify: the one path every front end goes through.

A plan is only ever returned after the independent validator replays it
clean, so nothing downstream can emit an unverified schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import BuildResult, build_problem
from .domain import Scenario
from .solver import Solution, SolveStatus, branch_and_bound
from .validator import PlanReport, ReplayResult, decode_plan, replay

__all__ = ["SolveOutcome", "solve_scenario", "PlanVerificationError"]


class PlanVerificationError(RuntimeError):
    """The decoded plan failed the independent replay; indicates a bug."""

    def __init__(self, replay_result: ReplayResult):
        self.replay_result = replay_result
        lines = "; ".join(str(v) for v in replay_result.violations[:8])
        super().__init__(f"solved plan failed verification: {lines}")


@dataclass
class SolveOutcome:
    solution: Solution
    build: BuildResult
    plan: PlanReport | None

    @property
    def feasible(self) -> bool:
        return self.plan is not None

    @property
    def limit_hit(self) -> bool:
        return self.solution.status == SolveStatus.FEASIBLE


def solve_scenario(
    scenario: Scenario,
    rel_gap: float = 1e-2,
    node_limit: int | None = None,
    time_limit: float | None = None,
    amortize_objective_ratio: float | None = None,
    trace: list[str] | None = None,
) -> SolveOutcome:
    """Solve one scenario end to end and verify the plan before returning.

    Scenarios the structural scan proves unreachable short-circuit to
    INFEASIBLE without a solver run; the diagnostics say why.
    """
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
    verdict = replay(scenario, plan)
    if not verdict.clean:
        raise PlanVerificationError(verdict)
    return SolveOutcome(solution=solution, build=build, plan=plan)
