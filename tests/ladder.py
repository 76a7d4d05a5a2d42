"""The solver ladder: fixed rungs of scenarios, each solved in a fresh
process, recorded in one JSON file.

Run from the repository root:

    python tests/ladder.py --out BENCH_<n>.json     # every rung, about 4 min
    python tests/ladder.py --out ladder.json depot-slack-0 depot

Rung names on the command line select a subset. Each rung runs in its own
interpreter on one BLAS thread (the thread count moves simplex ties, and so
the search) under a wall-time limit of ``TIME_LIMIT_S``. Per rung the
record holds the model size, the status, the objective as a float and in
hex, the gap, the stop reason, the solve's counts (nodes, LP solves,
pivots, refactorizations, factor hand-offs), the build and solve wall times
and the process's peak resident memory, read before any HiGHS run. When
scipy imports, it adds HiGHS's MILP time and objective
(``highs_reference.highs_solve``) and the iteration count of
``linprog(method="highs-ds")`` on the root LP without presolve
(``highs_reference.highs_lp``).

A branch-and-bound rung solves at ``rel_gap_target`` 1e-2 unless its name
says otherwise. ``generate_synthetic(1, n)`` gives one slack block, as does
the depot fixture; a fixed rung takes the ``peak-cover:2`` design of the
scenario before its slack is set. The ladder is a record, not a gate, and
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPOT_FIXTURE = ROOT / "tests" / "fixtures" / "depot_fixture.json"
TIME_LIMIT_S = 600.0  # wall time per rung
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Rung:
    trucks: int | None = None  # None: the depot fixture
    slack_blocks: int | None = None  # None: the scenario's own
    fixed: bool = False  # the peak-cover:2 design
    root: bool = False  # the root LP only, no search
    gap: float = 1e-2

    def scenario(self):
        import fleetcharge as fc
        from fleetcharge.domain import scenario_variant

        base = (fc.load_scenario(DEPOT_FIXTURE) if self.trucks is None
                else fc.generate_synthetic(1, n_trucks=self.trucks))
        design, counts = base.design_mode, base.fixed_counts
        if self.fixed:
            design = fc.FIXED_INFRASTRUCTURE
            counts = fc.rule_based_design(base, fc.PeakDemandCover(2))
        slack = (None if self.slack_blocks is None
                 else self.slack_blocks * base.time_grid.block_minutes)
        return fc.validate_scenario(scenario_variant(base, design, counts, slack_minutes=slack))


RUNGS = {
    # The branch-and-bound table of ROADMAP "Where it stands".
    "depot-slack-0": Rung(slack_blocks=0),
    "depot": Rung(),
    "5-trucks": Rung(5),
    "5-trucks-slack-0": Rung(5, slack_blocks=0),
    "8-trucks": Rung(8),
    "8-trucks-slack-0": Rung(8, slack_blocks=0),
    "12-trucks": Rung(12),
    "12-trucks-slack-0": Rung(12, slack_blocks=0),
    "16-trucks": Rung(16),
    "20-trucks": Rung(20),
    "28-trucks": Rung(28),
    # Root LPs; the 8-truck one is pinned by the test suite too.
    "8-trucks-root": Rung(8, root=True),
    "12-trucks-root": Rung(12, root=True),
    "20-trucks-root": Rung(20, root=True),
    "28-trucks-root": Rung(28, root=True),
    # The depot fixture over slack in both designs (slack 0 and one block
    # of the co-design are above).
    "depot-slack-2": Rung(slack_blocks=2),
    "depot-slack-4": Rung(slack_blocks=4),
    "depot-fixed-slack-0": Rung(slack_blocks=0, fixed=True),
    "depot-fixed": Rung(fixed=True),
    "depot-fixed-slack-2": Rung(slack_blocks=2, fixed=True),
    "depot-fixed-slack-4": Rung(slack_blocks=4, fixed=True),
    "8-trucks-fixed-slack-4": Rung(8, slack_blocks=4, fixed=True),
    "12-trucks-gap-1e-4": Rung(12, gap=1e-4),
}


def _finite(x: float | None) -> float | None:
    """JSON holds no infinity: a missing or infinite figure is None."""
    return x if x is not None and math.isfinite(x) else None


def _highs_figures(model) -> dict:
    """HiGHS's MILP time and objective, and its dual simplex's iteration
    count on the root LP when that LP solves to optimality; empty when
    scipy does not import."""
    try:
        from highs_reference import highs_lp, highs_solve
    except ImportError:
        return {}
    start = time.perf_counter()
    objective, _ = highs_solve(model)
    figures = {"highs_milp_s": time.perf_counter() - start,
               "highs_milp_objective": objective}
    status, _, iterations = highs_lp(model, method="highs-ds")
    if status == "optimal":
        figures["highs_ds_root_iterations"] = iterations
    return figures


def run_rung(name: str) -> dict:
    """Build and solve one rung in this process."""
    import fleetcharge as fc
    from fleetcharge.solver import PreparedLP, branch_and_bound

    rung = RUNGS[name]
    scenario = rung.scenario()
    start = time.perf_counter()
    model = fc.build_problem(scenario).model
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    if rung.root:
        solution = PreparedLP(model).solve()
    else:
        solution = branch_and_bound(model, rel_gap_target=rung.gap)
    solve_s = time.perf_counter() - start
    objective = solution.objective
    record = {
        "kind": "root LP" if rung.root else "branch-and-bound",
        "rel_gap_target": None if rung.root else rung.gap,
        "rows": model.num_rows,
        "cols": model.num_cols,
        "status": solution.status.value,
        "objective": objective,
        "objective_hex": None if objective is None else float.hex(objective),
        "gap": _finite(solution.gap),
        "stop_reason": solution.stop_reason,
        "nodes": solution.node_count,
        **solution.counts,
        "build_s": build_s,
        "solve_s": solve_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(_highs_figures(model))
    return record


def run_fresh(name: str) -> dict:
    """One rung in a new interpreter, on one BLAS thread, under a limit."""
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run([sys.executable, __file__, "--rung", name], env=env,
                              capture_output=True, text=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"status": "time_limit"}
    if done.returncode != 0:
        return {"status": "error", "stderr": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout)


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rungs", nargs="*", metavar="RUNG",
                        help=f"rungs to run (default: all): {', '.join(RUNGS)}")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--rung", help=argparse.SUPPRESS)  # the fresh process
    args = parser.parse_args(argv)
    if args.rung:
        print(json.dumps(run_rung(args.rung)))
        return 0
    unknown = [name for name in args.rungs if name not in RUNGS]
    if unknown or not args.out:
        parser.error(f"unknown rungs {unknown}" if unknown else "--out is required")

    rungs = {}
    for name in args.rungs or RUNGS:
        rungs[name] = run_fresh(name)
        record = rungs[name]
        print(f"{name}: {record['status']} nodes={record.get('nodes')} "
              f"pivots={record.get('pivots')} solve_s={record.get('solve_s')}",
              file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "blas_threads": 1,
        "time_limit_s": TIME_LIMIT_S,
        "rungs": rungs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 1 if any(r["status"] in ("error", "time_limit") for r in rungs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
