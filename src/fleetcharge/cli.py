"""Command-line front end.

Subcommands: validate, solve, sweep, compare, generate. Exit codes: 0
success, 1 infeasibility or violations found, 2 usage or configuration
error, 3 solver limit hit, 4 internal solver or verification failure.
``solve``, ``sweep`` and ``compare`` follow one rule: 4 over 1 over 3 over
0. Every command reports a bad input or an output path it cannot write as
a ``ConfigError`` (2). :func:`main` alone turns an exception into a JSON
report on stderr; a flag argparse rejects prints argparse's usage instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# The solving commands import numpy and the solver in their own bodies,
# so ``validate`` and ``generate`` never load them.
from .domain import (
    CODESIGN,
    FIXED_INFRASTRUCTURE,
    scenario_issues,
    scenario_variant,
    validate_scenario,
)
from .generator import generate_synthetic
from .scenario_io import json_text, load_design, load_scenario, save_scenario

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_FAILURE = 4

# Bad input files and arguments, and an output location that cannot be
# written; each is reported as a ConfigError. Schema and scenario
# validation failures are ValueErrors whose text names what is wrong.
CONFIG_ERRORS = (ValueError, OSError)


def _error_report(code: str, message: str, details=None) -> None:
    doc = {"error": {"code": code, "message": message}}
    if details:
        doc["error"]["details"] = details
    print(json.dumps(doc, indent=2), file=sys.stderr)


def _config_report(exc: Exception) -> int:
    """Report bad input as a ConfigError."""
    _error_report("ConfigError", str(exc))
    return EXIT_USAGE


def _failure_report(exc: Exception) -> int:
    """Report an internal solver or plan-verification failure as data."""
    from .run import PlanVerificationError

    if isinstance(exc, PlanVerificationError):
        _error_report("PlanVerificationFailed", str(exc),
                      [str(v) for v in exc.violations])
    else:
        _error_report("SolverFailure", str(exc))
    return EXIT_FAILURE


def _exit_code(statuses: list[str]) -> int:
    """The exit code of a run whose solves ended in ``statuses`` (a sweep
    cell that raised is ``"error"``). An internal failure raises instead,
    and :func:`main` gives it exit 4."""
    if any(s in ("infeasible", "error") for s in statuses):
        return EXIT_INFEASIBLE
    if "feasible" in statuses:  # stopped on a limit
        return EXIT_LIMIT
    return EXIT_OK


def _nonnegative(kind):
    """An argparse ``type=`` that reads ``kind(text)`` and rejects values
    that are negative, NaN or infinite."""
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and nonnegative, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type on a ValueError
    return parse


def _rel_gap(args) -> float:
    """``--gap``, or the solver's default when it is not given."""
    from .solver import DEFAULT_REL_GAP

    return DEFAULT_REL_GAP if args.gap is None else args.gap


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario, validate=False)
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
    from .run import solve_scenario
    from .solver import SolveStatus
    from .validator import write_plan_json, write_power_curves_csv

    scenario = load_scenario(args.scenario)
    design = args.design or scenario.design_mode
    fixed_counts = load_design(args.fixed_file) if args.fixed_file else scenario.fixed_counts
    scenario = validate_scenario(scenario_variant(
        scenario, design, fixed_counts, args.alpha, args.slack_min))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the solve

    trace: list[str] | None = [] if args.trace else None
    outcome = solve_scenario(scenario, rel_gap=_rel_gap(args), node_limit=args.node_limit,
                             time_limit=args.time_limit,
                             amortize_objective=args.amortize_objective, trace=trace)

    if trace is not None:
        (out_dir / "solver_trace.log").write_text("\n".join(trace) + "\n")
    if args.dump_lp:
        (out_dir / "model.lp").write_text(outcome.build.model.to_lp_format())
    for diag in outcome.build.diagnostics:
        print(f"note: {diag}")

    status = outcome.solution.status
    if outcome.plan is None:
        _error_report("Infeasible" if status == SolveStatus.INFEASIBLE
                      else "NoIncumbent", f"solver status: {status.value}")
        return _exit_code([status.value])

    write_plan_json(outcome.plan, out_dir / "plan.json")
    write_power_curves_csv(scenario, outcome.plan, out_dir / "power_curves.csv")
    costs = outcome.plan.costs
    print(f"status={status.value} "
          f"objective={outcome.solution.objective:.6f} "
          f"gap={outcome.solution.gap:.4%} nodes={outcome.solution.node_count}")
    print(f"costs: energy={costs.energy:.3f} infrastructure={costs.infrastructure:.3f} "
          f"peak={costs.peak:.3f} total={costs.total:.3f}")
    print(f"wrote {out_dir / 'plan.json'}")
    return _exit_code([status.value])


def cmd_sweep(args) -> int:
    from .sweep import SweepSpec, run_sweep

    scenario = load_scenario(args.scenario)
    designs = [d.strip() for d in args.design.split(",") if d.strip()]
    fixed_counts = load_design(args.fixed_file) if args.fixed_file else scenario.fixed_counts
    spec = SweepSpec(
        alphas=_float_list(args.alpha),
        slack_minutes=_int_list(args.slack_min),
        designs=designs,
        fixed_counts=fixed_counts,
        rel_gap=_rel_gap(args),
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        out_dir=args.out,
    )
    summary = run_sweep(scenario, spec)
    statuses = [cell["status"] for cell in summary["cells"]]
    print(f"sweep complete: {len(statuses)} cells -> {Path(args.out)}")
    for cell in summary["cells"]:
        label = f"alpha={cell['alpha']} slack={cell['slack_minutes']} {cell['design']}"
        print(f"  {label}: {cell['status']}")
    return _exit_code(statuses)


def cmd_compare(args) -> int:
    from .baseline import compare_designs, parse_policy, rule_based_design

    scenario = load_scenario(args.scenario)
    policy = parse_policy(args.policy)
    fixed_counts = rule_based_design(scenario, policy)
    scenario = scenario_variant(scenario, CODESIGN, None, args.alpha, args.slack_min)
    doc = compare_designs(scenario, fixed_counts, rel_gap=_rel_gap(args),
                          out=args.out or None)
    if args.out:
        print(f"wrote {Path(args.out)}")
    print(json_text(doc))
    return _exit_code([doc["codesign"]["status"], doc["fixed"]["status"]])


def cmd_generate(args) -> int:
    scenario = generate_synthetic(
        seed=args.seed,
        n_trucks=args.trucks,
        n_locations=args.locations,
        n_days=args.days,
        tightness=args.tightness,
        block_minutes=args.tau_min,
    )
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
                         default=None, help="design mode (default: the scenario's)")
    p_solve.add_argument("--fixed-file", default=None,
                         help="explicit design JSON for --design fixed "
                              "(default: the scenario's fixed_counts)")
    p_solve.add_argument("--gap", type=_nonnegative(float), default=None)
    p_solve.add_argument("--node-limit", type=_nonnegative(int), default=None)
    p_solve.add_argument("--time-limit", type=_nonnegative(float), default=None)
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
    p_sweep.add_argument("--fixed-file", default=None,
                         help="explicit design JSON for fixed cells "
                              "(default: the scenario's fixed_counts)")
    p_sweep.add_argument("--gap", type=_nonnegative(float), default=None)
    p_sweep.add_argument("--node-limit", type=_nonnegative(int), default=None)
    p_sweep.add_argument("--time-limit", type=_nonnegative(float), default=None)
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser("compare",
                               help="co-design vs a rule-based design")
    p_compare.add_argument("--scenario", required=True)
    p_compare.add_argument("--policy", required=True,
                           help="main-depot-only:N:R | peak-cover:R | explicit:PATH")
    p_compare.add_argument("--alpha", type=float, default=None)
    p_compare.add_argument("--slack-min", type=int, default=None)
    p_compare.add_argument("--gap", type=_nonnegative(float), default=None)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(func=cmd_compare)

    p_generate = sub.add_parser("generate", help="write a synthetic scenario")
    p_generate.add_argument("--seed", type=int, required=True)
    p_generate.add_argument("--trucks", type=int, default=3)
    p_generate.add_argument("--locations", type=int, default=5)
    p_generate.add_argument("--days", type=int, default=2)
    p_generate.add_argument("--tightness", type=float, default=0.5)
    p_generate.add_argument("--tau-min", type=int, default=15,
                            help="block duration in minutes: divides 1440, at most 30")
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except CONFIG_ERRORS as exc:
        return _config_report(exc)
    except RuntimeError as exc:  # both internal failures subclass it
        from .run import INTERNAL_FAILURES

        if not isinstance(exc, INTERNAL_FAILURES):
            raise
        return _failure_report(exc)


if __name__ == "__main__":
    sys.exit(main())
