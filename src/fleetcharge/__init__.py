"""Joint charging-infrastructure sizing and charge scheduling for electric
truck fleets: exact MILP formulation, an in-repo solver, an independent plan
validator, rule-based baselines, and scenario sweep tooling.

Each public name loads its submodule on first use (PEP 562), so loading,
validating or generating a scenario imports neither numpy nor the solver.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it.
_EXPORTS = {
    "baseline": ("ExplicitDesign", "MainDepotOnly", "PeakDemandCover",
                 "compare_designs", "parse_policy", "rule_based_design"),
    "builder": ("BuildResult", "VariableCatalog", "build_problem", "energy_consumption"),
    "domain": ("CODESIGN", "FIXED_INFRASTRUCTURE", "ChargerType", "PriceSchedule", "Scenario",
               "ScenarioValidationError", "TimeGrid", "TripLeg", "Truck", "charging_windows",
               "default_amortize_ratio", "scenario_issues", "tours", "validate_scenario"),
    "generator": ("default_charger_catalog", "generate_synthetic"),
    "model": ("LinearModel",),
    "run": ("SolveOutcome", "solve_scenario"),
    "scenario_io": ("load_scenario", "save_scenario", "scenario_from_dict",
                    "scenario_to_dict"),
    "schema_check": ("SchemaError",),
    "solver": ("Solution", "SolveStatus", "branch_and_bound"),
    "sweep": ("SweepSpec", "run_sweep"),
    "validator": ("CostBreakdown", "PlanReport", "decode_plan", "location_peaks_kw",
                  "recompute_costs", "replay"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule itself, on first
    access. A name is then stored here, so later lookups skip this."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))
