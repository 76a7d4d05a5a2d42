"""Branch-and-bound against HiGHS on synthetic fleets.

Needs scipy (the ``test`` extra); the module is skipped without it. Each
case builds a ``generate_synthetic`` scenario, solves it end to end with
the warm-started in-repo branch-and-bound and compares the objective with
HiGHS on the same model. HiGHS must also give the same optimum on the
plain formulation, so no strengthening row cuts off an integer optimum.
"""

from dataclasses import replace

import pytest

pytest.importorskip("scipy")

import fleetcharge as fc  # noqa: E402
from fleetcharge.solver import SolveStatus, check_solution  # noqa: E402

from highs_reference import highs_solve  # noqa: E402

REL_GAP = 0.01


@pytest.mark.parametrize("design", [fc.CODESIGN, fc.FIXED_INFRASTRUCTURE])
@pytest.mark.parametrize("slack_minutes", [0, 15])
@pytest.mark.parametrize("trucks", [2, 3, 4])
def test_branch_and_bound_matches_highs(trucks, slack_minutes, design):
    base = fc.generate_synthetic(1, n_trucks=trucks, n_locations=3, n_days=1)
    fixed = fc.rule_based_design(base, fc.MainDepotOnly(2, 2))
    scenario = fc.validate_scenario(replace(
        base,
        slack_blocks=base.time_grid.slack_blocks(slack_minutes),
        design_mode=design,
        fixed_counts=fixed if design == fc.FIXED_INFRASTRUCTURE else None,
    ))
    outcome = fc.solve_scenario(scenario, rel_gap=REL_GAP)
    reference, point = highs_solve(outcome.build.model)
    plain, _ = highs_solve(fc.build_problem(scenario, strengthen=False).model)

    if reference is None:
        assert plain is None
        assert outcome.solution.status == SolveStatus.INFEASIBLE
        return
    assert reference == pytest.approx(plain, rel=1e-8)
    assert check_solution(outcome.build.model, point) == []
    assert outcome.solution.status == SolveStatus.OPTIMAL
    ours = outcome.solution.objective
    # Ours is a feasible point within the proven gap; HiGHS's is optimal.
    assert ours >= reference - 1e-6 * abs(reference)
    assert ours - reference <= REL_GAP * abs(ours)
    assert fc.replay(scenario, outcome.plan).clean


@pytest.mark.parametrize("design", [fc.CODESIGN, fc.FIXED_INFRASTRUCTURE])
@pytest.mark.parametrize("alpha", [0.5, 4.0])
@pytest.mark.parametrize("locations", [3, 5])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_fast_charger_cover_keeps_the_optimum(seed, locations, alpha, design):
    """Five-truck cells at slack 0, where the builder writes fast-charger
    cover rows and raises the peak floor. The fixed design is
    ``peak-cover:2``, whose model carries the same rows."""
    base = fc.generate_synthetic(seed, n_trucks=5, n_locations=locations, n_days=1)
    fixed = fc.rule_based_design(base, fc.PeakDemandCover(2))
    scenario = fc.validate_scenario(replace(
        base, alpha=alpha, slack_blocks=0, design_mode=design,
        fixed_counts=fixed if design == fc.FIXED_INFRASTRUCTURE else None))
    outcome = fc.solve_scenario(scenario, rel_gap=1e-6)
    model = outcome.build.model
    assert any(name.startswith("fast_required[") for name in model.row_names)

    reference, point = highs_solve(model)
    plain, _ = highs_solve(fc.build_problem(scenario, strengthen=False).model)
    if reference is None:
        assert plain is None
        assert outcome.solution.status == SolveStatus.INFEASIBLE
        return
    assert reference == pytest.approx(plain, rel=1e-8)
    assert check_solution(model, point) == []
    assert outcome.solution.status == SolveStatus.OPTIMAL
    assert outcome.solution.objective == pytest.approx(reference, rel=1e-6)
