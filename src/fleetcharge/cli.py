"""Command-line front end.

Subcommands: validate, solve, sweep, compare, generate. Exit codes:
0 success, 1 infeasibility or violations found, 2 usage or configuration
error, 3 solver limit hit, 4 internal solver or verification failure.
Errors also land as a JSON report on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .baseline import compare_designs, parse_policy, rule_based_design
from .domain import (
    CODESIGN,
    FIXED_INFRASTRUCTURE,
    ScenarioValidationError,
    scenario_issues,
    validate_scenario,
)
from .generator import generate_synthetic
from .run import PlanVerificationError, solve_scenario
from .scenario_io import load_design, load_scenario, save_scenario
from .solver import NumericalFailure, SolveStatus
from .sweep import SweepSpec, default_amortize_ratio, run_sweep
from .validator import write_plan_json, write_power_curves_csv

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_FAILURE = 4


def _error_report(code: str, message: str, details=None) -> None:
    doc = {"error": {"code": code, "message": message}}
    if details:
        doc["error"]["details"] = details
    print(json.dumps(doc, indent=2), file=sys.stderr)


def _failure_report(exc: Exception) -> int:
    """Report an internal solver or plan-verification failure as data."""
    if isinstance(exc, PlanVerificationError):
        _error_report("PlanVerificationFailed", str(exc),
                      [str(v) for v in exc.replay_result.violations])
    else:
        _error_report("SolverFailure", str(exc))
    return EXIT_FAILURE


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _apply_overrides(scenario, args, design: str, fixed_counts):
    updates = {}
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if getattr(args, "slack_min", None) is not None:
        updates["slack_blocks"] = scenario.time_grid.slack_blocks(args.slack_min)
    if getattr(args, "window_mode", None):
        updates["window_mode"] = args.window_mode
    updates["design_mode"] = design
    updates["fixed_counts"] = fixed_counts if design == FIXED_INFRASTRUCTURE else None
    return validate_scenario(replace(scenario, **updates))


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario, validate=False)
    except Exception as exc:
        _error_report("LoadError", str(exc))
        return EXIT_USAGE
    issues = scenario_issues(scenario)
    for issue in issues:
        print(f"{issue.severity}: {issue}")
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        _error_report("ValidationFailed", f"{len(errors)} violations",
                      [str(i) for i in errors])
        return EXIT_INFEASIBLE
    print(f"scenario ok: {len(scenario.trucks)} trucks, "
          f"{len(scenario.legs)} legs, {scenario.time_grid.num_days} day(s)")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        fixed_counts = load_design(args.fixed_file) if args.fixed_file else None
        if args.design == FIXED_INFRASTRUCTURE and fixed_counts is None:
            raise ValueError("--design fixed requires --fixed-file")
        scenario = _apply_overrides(scenario, args, args.design, fixed_counts)
    except (ValueError, ScenarioValidationError, OSError) as exc:
        _error_report("ConfigError", str(exc))
        return EXIT_USAGE

    ratio = default_amortize_ratio(scenario)
    trace: list[str] | None = [] if args.trace else None
    try:
        outcome = solve_scenario(
            scenario,
            rel_gap=args.gap,
            node_limit=args.node_limit,
            time_limit=args.time_limit,
            amortize_objective_ratio=ratio if args.amortize_objective else None,
            trace=trace,
        )
    except (NumericalFailure, PlanVerificationError) as exc:
        return _failure_report(exc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if trace is not None:
        (out_dir / "solver_trace.log").write_text("\n".join(trace) + "\n")
    if args.dump_lp:
        (out_dir / "model.lp").write_text(outcome.build.model.to_lp_format())
    for diag in outcome.build.diagnostics:
        print(f"note: [{diag.code}] {diag.message}")

    if outcome.plan is None:
        _error_report("Infeasible" if outcome.solution.status
                      in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)
                      else "NoIncumbent",
                      f"solver status: {outcome.solution.status.value}")
        return EXIT_LIMIT if outcome.limit_hit else EXIT_INFEASIBLE

    write_plan_json(outcome.plan, out_dir / "plan.json", amortize_ratio=ratio)
    write_power_curves_csv(scenario, outcome.plan, out_dir / "power_curves.csv")
    costs = outcome.plan.costs
    print(f"status={outcome.solution.status.value} "
          f"objective={outcome.solution.objective:.6f} "
          f"gap={outcome.solution.gap:.4%} nodes={outcome.solution.node_count}")
    print(f"costs: energy={costs.energy:.3f} infrastructure={costs.infrastructure:.3f} "
          f"peak={costs.peak:.3f} total={costs.total:.3f}")
    print(f"wrote {out_dir / 'plan.json'}")
    return EXIT_LIMIT if outcome.limit_hit else EXIT_OK


def cmd_sweep(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        designs = [d.strip() for d in args.design.split(",") if d.strip()]
        fixed_counts = load_design(args.fixed_file) if args.fixed_file else None
        spec = SweepSpec(
            alphas=_float_list(args.alpha),
            slack_minutes=_int_list(args.slack_min),
            designs=designs,
            fixed_counts=fixed_counts,
            rel_gap=args.gap,
            node_limit=args.node_limit,
            time_limit=args.time_limit,
            out_dir=args.out,
        )
    except (ValueError, ScenarioValidationError, OSError) as exc:
        _error_report("ConfigError", str(exc))
        return EXIT_USAGE

    try:
        summary = run_sweep(scenario, spec)
    except ValueError as exc:
        _error_report("ConfigError", str(exc))
        return EXIT_USAGE
    statuses = [cell.get("status") for cell in summary["cells"]]
    print(f"sweep complete: {len(statuses)} cells -> {Path(args.out)}")
    for cell in summary["cells"]:
        label = f"alpha={cell['alpha']} slack={cell['slack_minutes']} {cell['design']}"
        print(f"  {label}: {cell['status']}")
    if any(s in ("infeasible", "unbounded", "error") for s in statuses):
        return EXIT_INFEASIBLE
    if any(s == "feasible" for s in statuses):  # stopped on a limit
        return EXIT_LIMIT
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        policy = parse_policy(args.policy)
        fixed_counts = rule_based_design(scenario, policy)
        if args.slack_min is not None or args.alpha is not None:
            scenario = _apply_overrides(
                scenario, args, scenario.design_mode, scenario.fixed_counts)
    except (ValueError, ScenarioValidationError, OSError) as exc:
        _error_report("ConfigError", str(exc))
        return EXIT_USAGE

    try:
        comparison = compare_designs(scenario, fixed_counts, rel_gap=args.gap)
    except (NumericalFailure, PlanVerificationError) as exc:
        return _failure_report(exc)
    doc = comparison.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    print(text)
    if not (comparison.codesign_feasible and comparison.fixed_feasible):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        scenario = generate_synthetic(
            seed=args.seed,
            n_trucks=args.trucks,
            n_locations=args.locations,
            n_days=args.days,
            tightness=args.tightness,
            block_minutes=args.tau_min,
        )
    except (ValueError, ScenarioValidationError) as exc:
        _error_report("ConfigError", str(exc))
        return EXIT_USAGE
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out)
    print(f"wrote {out}: {len(scenario.trucks)} trucks, {len(scenario.legs)} legs")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetcharge",
        description=(
            "Joint charging-infrastructure sizing and charge scheduling for "
            "electric truck fleets. Costs are in abstract cost units "
            "(thousand-euro scale by convention)."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("--scenario", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="solve one scenario")
    p_solve.add_argument("--scenario", required=True)
    p_solve.add_argument("--alpha", type=float, default=None,
                         help="peak-cost weight override")
    p_solve.add_argument("--slack-min", type=int, default=None,
                         help="departure slack in minutes (whole blocks)")
    p_solve.add_argument("--design", choices=[CODESIGN, FIXED_INFRASTRUCTURE],
                         default=CODESIGN)
    p_solve.add_argument("--fixed-file", default=None,
                         help="explicit design JSON for --design fixed")
    p_solve.add_argument("--window-mode", default=None,
                         choices=["previous_arrival", "same_leg_arrival"])
    p_solve.add_argument("--gap", type=float, default=0.01)
    p_solve.add_argument("--node-limit", type=int, default=None)
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument("--amortize-objective", action="store_true",
                         help="amortize capital inside the objective too")
    p_solve.add_argument("--dump-lp", action="store_true",
                         help="write the model in LP text format")
    p_solve.add_argument("--trace", action="store_true",
                         help="write per-node search progress to solver_trace.log")
    p_solve.add_argument("--out", default="solve_out")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="full-factorial parameter sweep")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--alpha", required=True,
                         help="comma-separated peak weights, e.g. 0.5,1,2")
    p_sweep.add_argument("--slack-min", required=True,
                         help="comma-separated slack minutes, e.g. 0,15,30")
    p_sweep.add_argument("--design", default=CODESIGN,
                         help="comma-separated design modes: codesign,fixed")
    p_sweep.add_argument("--fixed-file", default=None)
    p_sweep.add_argument("--gap", type=float, default=0.01)
    p_sweep.add_argument("--node-limit", type=int, default=None)
    p_sweep.add_argument("--time-limit", type=float, default=None)
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser("compare",
                               help="co-design vs a rule-based design")
    p_compare.add_argument("--scenario", required=True)
    p_compare.add_argument("--policy", required=True,
                           help="main-depot-only:N:R | peak-cover:R | explicit:PATH")
    p_compare.add_argument("--alpha", type=float, default=None)
    p_compare.add_argument("--slack-min", type=int, default=None)
    p_compare.add_argument("--gap", type=float, default=0.01)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(func=cmd_compare)

    p_generate = sub.add_parser("generate", help="write a synthetic scenario")
    p_generate.add_argument("--seed", type=int, required=True)
    p_generate.add_argument("--trucks", type=int, default=3)
    p_generate.add_argument("--locations", type=int, default=5)
    p_generate.add_argument("--days", type=int, default=2)
    p_generate.add_argument("--tightness", type=float, default=0.5)
    p_generate.add_argument("--tau-min", type=int, default=15,
                            help="block duration in minutes")
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
