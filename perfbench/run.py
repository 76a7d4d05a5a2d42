"""Solve benchmark for fleetcharge: one workload, one seed, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload depot-tree --seed 1 --seconds 30 --trace 0

Each operation is one ``fleetcharge.run_sweep`` call, timed from outside the
package, in a closed loop (one call at a time) for about ``--seconds``.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced operation, then traced ones, and prints the per-layer metrics.
The last line of stdout is the result; notes go to stderr, and records to
``.perfbench_out/``. See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import LAYER_METRICS, TIME_METRICS, Tracer, instrument, layer_metrics

# Fixed before numpy loads. One thread is at or below nproc on any machine,
# and the branch-and-bound tree depends on the count (the BLAS summation
# order moves simplex ties): depot-tree takes 182 nodes with one thread and
# 171 with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEPOT_FIXTURE = ROOT / "tests" / "fixtures" / "depot_fixture.json"

WORKLOADS = ("depot-tree", "fleet-scale", "sweep-small")
REL_GAP = 0.01
GAP_SLACK = 1e-6  # room for the HiGHS reference's own gap
# The synthetic instances do not follow --seed: across generator seeds the
# work itself varies by more than the benchmark's bounds (a sweep-small
# sweep takes 209-295 B&B nodes over seeds 1-8; fleet-scale models have
# 569-587 rows), so a per-seed instance would measure the seed, not the code.
INSTANCE_SEED = 1
SETUP_SAMPLES = 4
HOST_LOOP_STEPS = 2_000_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(fc, name: str, tracer):
    """The workload's scenario and its sweep grid (``SweepSpec`` fields)."""
    if name == "depot-tree":
        with tracer.span("scenario_io.load"):
            scenario = fc.load_scenario(DEPOT_FIXTURE)
        return scenario, {"alphas": [1.0], "slack_minutes": [0],
                          "designs": [fc.CODESIGN]}
    if name == "fleet-scale":
        with tracer.span("generator.generate"):
            scenario = fc.generate_synthetic(INSTANCE_SEED, n_trucks=5)
        slack = round(scenario.slack_blocks * scenario.time_grid.block_minutes)
        return scenario, {"alphas": [scenario.alpha], "slack_minutes": [slack],
                          "designs": [fc.CODESIGN]}
    with tracer.span("generator.generate"):
        scenario = fc.generate_synthetic(
            INSTANCE_SEED, n_trucks=2, n_locations=3, n_days=1)
    return scenario, {
        "alphas": [0.5, 1.0, 2.0, 4.0],
        "slack_minutes": [0, 15, 30],
        "designs": [fc.CODESIGN, fc.FIXED_INFRASTRUCTURE],
        "fixed_counts": fc.rule_based_design(scenario, fc.MainDepotOnly(2, 2)),
    }


def measure_setup(args, samples: int, warm_up: bool) -> list[float]:
    """Seconds from process start until the inputs are ready, in fresh
    processes. A warm-up probe compiles bytecode and fills the file cache,
    which later runs in a checkout do not pay, and is dropped."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(samples + warm_up):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
        times.append(ready - start)
    return times[warm_up:]


def run_op(fc, scenario, grid: dict, out_dir: Path, tracer=None) -> dict:
    """One timed ``run_sweep`` call, then what its checks need."""
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = fc.SweepSpec(rel_gap=REL_GAP, out_dir=out_dir, **grid)
    op = {"traced": tracer is not None, "root": None, "error": None}
    summary = None
    start = time.perf_counter()
    try:
        if tracer is None:
            summary = fc.run_sweep(scenario, spec)
        else:
            with instrument(tracer), tracer.span("run") as root:
                op["root"] = root["id"]
                with tracer.span("sweep.run_sweep"):
                    summary = fc.run_sweep(scenario, spec)
    except Exception as exc:  # a failed operation is counted, not fatal
        op["error"] = f"{type(exc).__name__}: {exc}"
    op["seconds"] = time.perf_counter() - start
    if summary is not None:
        op.update(observe(summary, out_dir))
    return op


def observe(summary: dict, out_dir: Path) -> dict:
    """Per-cell status, objective and node count, and the costs.csv digest."""
    nodes = []
    for entry in summary["cells"]:
        plan = out_dir / entry["plan"] if "plan" in entry else None
        nodes.append(json.loads(plan.read_text())["solver"]["nodes"]
                     if plan is not None and plan.is_file() else None)
    return {
        "status": [entry["status"] for entry in summary["cells"]],
        "objective": [entry.get("objective") for entry in summary["cells"]],
        "nodes": nodes,
        "costs_csv_sha256": hashlib.sha256(
            (out_dir / "costs.csv").read_bytes()).hexdigest(),
    }


def cell_models(fc, scenario, grid: dict) -> list:
    """The model of each sweep cell, built as ``run_sweep`` builds it, or
    None where that raises; the sweep records the same error for the cell,
    which then fails its check."""
    spec = fc.SweepSpec(rel_gap=REL_GAP, **grid)
    models = []
    for cell in spec.cells():
        try:
            variant = fc.validate_scenario(replace(
                scenario,
                alpha=cell.alpha,
                slack_blocks=round(cell.slack_minutes / scenario.time_grid.block_minutes),
                design_mode=cell.design,
                fixed_counts=(spec.fixed_counts
                              if cell.design == fc.FIXED_INFRASTRUCTURE else None),
            ))
            models.append(fc.build_problem(variant).model)
        except Exception:  # the benchmark reports the cell, it does not stop
            models.append(None)
    return models


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-9)


def failed_cells(op: dict, reference: list | None, n_cells: int) -> int:
    """Cells that raised, are not OPTIMAL, wrote no verified plan, or whose
    objective is outside the gap of the reference."""
    if op["error"] is not None or len(op["status"]) != n_cells:
        return n_cells
    failed = 0
    for i in range(n_cells):
        ok = op["status"][i] == "optimal" and op["nodes"][i] is not None
        if ok and reference is not None:
            ok = reference[i] is not None and \
                rel_diff(op["objective"][i], reference[i]) <= REL_GAP + GAP_SLACK
        failed += not ok
    return failed


def digest(paths) -> str:
    h = hashlib.sha256()
    for root in paths:
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() \
            else [root]
        for path in files:
            if path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(records: list[dict], key: str) -> list[str]:
    """Counts must repeat exactly between the run's operations and against
    earlier runs of the same source and workload in this checkout."""
    problems = []
    merged: dict = {}
    for record in records:
        for name, value in json.loads(json.dumps(record)).items():
            if name in merged and merged[name] != value:
                problems.append(f"{name} differs between operations: "
                                f"{merged[name]} then {value}")
            merged.setdefault(name, value)
    ledger_path = OUT / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    earlier = ledger.get(key, {})
    for name, value in merged.items():
        if name in earlier and earlier[name] != value:
            problems.append(f"{name} differs from an earlier run: "
                            f"{earlier[name]} then {value}")
    ledger[key] = {**earlier, **merged}
    scratch = ledger_path.with_suffix(".tmp")
    scratch.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(scratch, ledger_path)
    return problems


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_loop_seconds() -> float:
    """Wall time of a fixed pure-Python loop. It probes the machine's speed
    and is recorded, not reported, so that load drift between runs shows."""
    start = time.perf_counter()
    total = 0
    for k in range(HOST_LOOP_STEPS):
        total += k * k
    return time.perf_counter() - start


def environment(args, source_sha256: str, host_loop_s: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seed": None if args.workload == "depot-tree" else INSTANCE_SEED,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": source_sha256,
        "host_loop_s": host_loop_s,
    }


def traced_metrics(tracer, ops: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced operations, whose layer
    self times and ``run.self_s`` must add up to the traced operation.
    Stores each traced operation's metrics in it under ``layers``."""
    problems = []
    per_op = []
    for op in ops:
        if op["root"] is None:
            continue
        op["layers"] = layer_metrics(tracer.spans, op["root"])
        root = tracer.spans[op["root"]]
        total = root["end"] - root["start"]
        covered = sum(op["layers"][name] for name in TIME_METRICS)
        if abs(covered - total) > 1e-6:
            problems.append(f"layer self times sum to {covered} s, "
                            f"the traced operation took {total} s")
        per_op.append(op["layers"])
    metrics = {name: statistics.median(m[name] for m in per_op) for name in LAYER_METRICS}
    for name in ("scenario_io.load", "generator.generate"):
        metrics[f"{name}_s"] = sum(s["end"] - s["start"] for s in tracer.spans
                                   if s["name"] == name)
    plain = [op["seconds"] for op in ops if not op["traced"]]
    traced = [op["seconds"] for op in ops if op["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, problems


# Units of the metrics that are not times in seconds (names ending in _s).
UNITS = {
    "peak_rss_mb": "MB",
    "simplex.lp_solves": "count", "simplex.s_per_lp": "s",
    "builder.cols": "count", "builder.rows": "count",
    "branch_bound.nodes": "count", "sweep.cells": "count",
    "sweep.failed_cells": "count", "fail_rate": "ratio",
    "reference.obj_rel_diff": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if not name.endswith("_s"):
        raise KeyError(f"no unit for metric {name!r}")
    return "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fleetcharge" / "__init__.py").is_file():
        print(f"perfbench: no fleetcharge sources under {SRC}; "
              "run from a fleetcharge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fleetcharge as fc

    if args.setup_probe:
        make_workload(fc, args.workload, Tracer())
        print("ready", flush=True)
        return 0

    # Half the set-up probes run before the timed loop and half after it,
    # so they sample the same stretch of machine load as the operations.
    setup = measure_setup(args, SETUP_SAMPLES // 2, warm_up=True)
    host_loop_s = [host_loop_seconds()]
    tracer = Tracer()
    scenario, grid = make_workload(fc, args.workload, tracer)
    n_cells = len(fc.SweepSpec(rel_gap=REL_GAP, **grid).cells())
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    if args.trace:
        ops.append(run_op(fc, scenario, grid, out_dir / "sweep"))
    loop_start = time.perf_counter()
    for done in itertools.count(1):
        ops.append(run_op(fc, scenario, grid, out_dir / "sweep",
                          tracer if args.trace else None))
        elapsed = time.perf_counter() - loop_start
        # Start no operation that would likely end after --seconds, so a
        # 25 s solve and a 5 s sweep share one run length.
        if elapsed + elapsed / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_loop_s.append(host_loop_seconds())
    setup += measure_setup(args, SETUP_SAMPLES - len(setup), warm_up=False)

    # Checks, outside the timed region.
    import highs_ref

    models = cell_models(fc, scenario, grid)
    reference, highs_s = highs_ref.reference_objectives(models)
    if reference is None:
        check = "replay only (scipy is not importable): status OPTIMAL, clean replay"
    else:
        check = "HiGHS objective within the gap, status OPTIMAL, clean replay"
    print(f"perfbench: checking {check}", file=sys.stderr)
    for op in ops:
        op["failed"] = failed_cells(op, reference, n_cells)
    attempted = n_cells * len(ops)
    failed = sum(op["failed"] for op in ops)
    obj_rel_diff = max(
        (rel_diff(obj, ref) for op in ops if op["error"] is None
         for obj, ref in zip(op["objective"], reference or [])
         if obj is not None and ref is not None),
        default=0.0)

    source_sha256 = digest([SRC / "fleetcharge", DEPOT_FIXTURE, BENCH])
    counts = [{"builder.cols": [None if m is None else m.num_cols for m in models],
               "builder.rows": [None if m is None else m.num_rows for m in models]}]
    for op in ops:
        if op["error"] is None:
            counts.append({name: op[name] for name in
                           ("objective", "nodes", "costs_csv_sha256")})
    problems = []
    if args.trace:
        metrics, problems = traced_metrics(tracer, ops)
        for op in ops:
            if "layers" in op:
                counts.append({name: op["layers"][name] for name in
                               ("simplex.lp_solves", "branch_bound.nodes")})
        metrics.update({
            "sweep.cells": attempted,
            "sweep.failed_cells": failed,
            "fail_rate": failed / attempted,
            "reference.highs_s": highs_s,
            "reference.obj_rel_diff": obj_rel_diff,
        })
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(op["seconds"] / n_cells for op in ops),
            "sweep_s": statistics.median(op["seconds"] for op in ops),
            "peak_rss_mb": peak_rss_mb,
        }
    # The seed does not change the inputs, so counts must also repeat
    # between seeds.
    key = f"{args.workload} source={source_sha256}"
    determinism = check_determinism(counts, key)
    for problem in determinism:
        print(f"perfbench: solver defect, counts do not repeat: {problem}",
              file=sys.stderr)
    for problem in problems:
        print(f"perfbench: spans do not cover the operation: {problem}",
              file=sys.stderr)

    env = environment(args, source_sha256, host_loop_s)
    print(f"perfbench: environment {json.dumps(env)}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not determinism and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }
    record = {
        "environment": env,
        "check": check,
        "setup_samples_s": setup,
        "operations": [{k: v for k, v in op.items() if k != "root"} for op in ops],
        "reference_objectives": reference,
        "determinism_problems": determinism,
        "span_problems": problems,
        "result": result,
    }
    (out_dir / f"trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
