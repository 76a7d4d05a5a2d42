"""Shared fixtures: bundled scenarios and a memoized solve service.

Solves of the depot fixture dominate the suite's runtime, so they are
cached per (alpha, slack, design) for the whole session.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# The suite runs on one BLAS thread. The thread count sets the order of
# BLAS sums, which moves simplex ties, so the pivot and node counts that
# tests pin hold only at a fixed count. BLAS reads it when numpy loads,
# which no import above does.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

import fleetcharge as fc  # noqa: E402
from fleetcharge.domain import scenario_variant  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

REL_GAP = 1e-3


@pytest.fixture(scope="session")
def depot_scenario() -> fc.Scenario:
    return fc.load_scenario(FIXTURES / "depot_fixture.json")


@pytest.fixture(scope="session")
def two_truck_scenario() -> fc.Scenario:
    return fc.load_scenario(FIXTURES / "two_truck.json")


@pytest.fixture(scope="session")
def remote_scenario() -> fc.Scenario:
    return fc.load_scenario(FIXTURES / "remote_variant.json")


class SolveLab:
    """Memoized solves of one scenario across parameter variants."""

    def __init__(self, scenario: fc.Scenario):
        self.scenario = scenario
        self.cache: dict = {}

    def variant(self, alpha=None, slack_blocks=None, design=None,
                fixed_counts=None) -> fc.Scenario:
        """The validated ``scenario_variant``; no design keeps the scenario's."""
        base = self.scenario
        if design is None:
            design, fixed_counts = base.design_mode, base.fixed_counts
        slack = None if slack_blocks is None else slack_blocks * base.time_grid.block_minutes
        return fc.validate_scenario(scenario_variant(base, design, fixed_counts, alpha, slack))

    def solve(self, alpha=None, slack_blocks=None, design=None,
              fixed_counts=None, rel_gap=REL_GAP) -> fc.SolveOutcome:
        scenario = self.variant(alpha, slack_blocks, design, fixed_counts)
        key = (scenario.alpha, scenario.slack_blocks, scenario.design_mode,
               None if fixed_counts is None else str(sorted(fixed_counts.items())),
               rel_gap)
        if key in self.cache:
            return self.cache[key]
        outcome = fc.solve_scenario(scenario, rel_gap=rel_gap)
        self.cache[key] = outcome
        return outcome


@pytest.fixture(scope="session")
def depot_lab(depot_scenario) -> SolveLab:
    return SolveLab(depot_scenario)


@pytest.fixture(scope="session")
def two_truck_outcome(two_truck_scenario) -> fc.SolveOutcome:
    return fc.solve_scenario(two_truck_scenario, rel_gap=1e-6)


@pytest.fixture(scope="session")
def depot_base_outcome(depot_lab) -> fc.SolveOutcome:
    """The canonical co-design solve of the bundled fixture."""
    return depot_lab.solve()
