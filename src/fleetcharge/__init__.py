"""Joint charging-infrastructure sizing and charge scheduling for electric
truck fleets: exact MILP formulation, an in-repo solver, an independent plan
validator, rule-based baselines, and scenario sweep tooling."""

from .baseline import (
    ExplicitDesign,
    MainDepotOnly,
    PeakDemandCover,
    compare_designs,
    parse_policy,
    rule_based_design,
)
from .builder import (
    BuildResult,
    VariableCatalog,
    build_problem,
    energy_consumption,
)
from .domain import (
    CODESIGN,
    FIXED_INFRASTRUCTURE,
    ChargerType,
    PriceSchedule,
    Scenario,
    ScenarioValidationError,
    TimeGrid,
    TripLeg,
    Truck,
    charging_windows,
    scenario_issues,
    tours,
    validate_scenario,
)
from .generator import default_charger_catalog, generate_synthetic
from .model import LinearModel
from .run import SolveOutcome, solve_scenario
from .scenario_io import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .schema_check import SchemaError
from .solver import (
    Solution,
    SolveStatus,
    branch_and_bound,
)
from .sweep import SweepSpec, default_amortize_ratio, run_sweep
from .validator import (
    CostBreakdown,
    PlanReport,
    decode_plan,
    location_peaks_kw,
    recompute_costs,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "CODESIGN",
    "FIXED_INFRASTRUCTURE",
    "BuildResult",
    "ChargerType",
    "CostBreakdown",
    "ExplicitDesign",
    "LinearModel",
    "MainDepotOnly",
    "PeakDemandCover",
    "PlanReport",
    "PriceSchedule",
    "Scenario",
    "ScenarioValidationError",
    "SchemaError",
    "Solution",
    "SolveOutcome",
    "SolveStatus",
    "SweepSpec",
    "TimeGrid",
    "TripLeg",
    "Truck",
    "VariableCatalog",
    "branch_and_bound",
    "build_problem",
    "charging_windows",
    "compare_designs",
    "decode_plan",
    "default_amortize_ratio",
    "default_charger_catalog",
    "energy_consumption",
    "generate_synthetic",
    "load_scenario",
    "location_peaks_kw",
    "parse_policy",
    "recompute_costs",
    "replay",
    "rule_based_design",
    "run_sweep",
    "save_scenario",
    "scenario_from_dict",
    "scenario_issues",
    "scenario_to_dict",
    "solve_scenario",
    "tours",
    "validate_scenario",
]
