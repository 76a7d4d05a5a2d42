"""In-memory spans around fleetcharge's layer entry points.

A traced operation installs wrappers at the attributes the package's own
callers look up (``fleetcharge.run.build_problem``, ``PreparedLP.solve`` and
so on) and restores the originals afterwards, so no file of the package
changes. Spans are plain dicts (id, name, parent, start, end, plus a few
counts) kept in a list until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "instrument", "self_times", "layer_metrics", "LAYER_METRICS",
           "TIME_METRICS"]

# Span name -> the per-layer metric that its self time feeds.
SELF_TIME_METRIC = {
    "run": "run.self_s",
    "sweep.run_sweep": "sweep.self_s",
    "domain.validate": "domain.validate_s",
    "builder.build": "builder.build_s",
    "branch_bound.solve": "branch_bound.self_s",
    "simplex.prepare": "simplex.prepare_s",
    "validator.decode": "validator.decode_s",
    "validator.replay": "validator.replay_s",
    "validator.write": "validator.write_s",
}
LP_SPAN = "simplex.solve"  # split into simplex.root_s and simplex.node_s
# Self times that together make up a traced operation's wall time.
TIME_METRICS = (*SELF_TIME_METRIC.values(), "simplex.root_s", "simplex.node_s")
LAYER_METRICS = (
    *TIME_METRICS, "simplex.lp_solves", "simplex.s_per_lp",
    "builder.cols", "builder.rows",
    "branch_bound.nodes", "branch_bound.first_incumbent_s",
)


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class _IncumbentClock(list):
    """A ``trace=`` list for ``branch_and_bound`` that notes when the first
    logged node line shows an incumbent."""

    def __init__(self) -> None:
        super().__init__()
        self.first_incumbent: float | None = None

    def append(self, line: str) -> None:
        if self.first_incumbent is None and not line.endswith("incumbent -"):
            self.first_incumbent = time.perf_counter()
        super().append(line)


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result)
            return result
    return wrapper


def _traced_branch_and_bound(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(model, *args, **kwargs):
        clock = None
        if kwargs.get("trace") is None:
            clock = kwargs["trace"] = _IncumbentClock()
        with tracer.span("branch_bound.solve") as span:
            solution = fn(model, *args, **kwargs)
        span["nodes"] = solution.node_count
        found = clock.first_incumbent if clock is not None else None
        if found is None and solution.is_feasible:
            # Found by the last node solved, so no node line logged it.
            found = span["end"]
        span["first_incumbent_s"] = 0.0 if found is None else found - span["start"]
        return solution
    return wrapper


def _record_size(span: dict, build) -> None:
    span["cols"] = build.model.num_cols
    span["rows"] = build.model.num_rows


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    run_mod = importlib.import_module("fleetcharge.run")
    sweep_mod = importlib.import_module("fleetcharge.sweep")
    prepared_lp = importlib.import_module("fleetcharge.solver.simplex").PreparedLP
    targets = [
        (sweep_mod, "validate_scenario", "domain.validate", None),
        (run_mod, "build_problem", "builder.build", _record_size),
        (prepared_lp, "__init__", "simplex.prepare", None),
        (prepared_lp, "solve", LP_SPAN, None),
        (run_mod, "decode_plan", "validator.decode", None),
        (run_mod, "replay", "validator.replay", None),
        (sweep_mod, "write_plan_json", "validator.write", None),
    ]
    saved = []
    try:
        for owner, attr, name, after in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, name, original, after))
        original = run_mod.branch_and_bound
        saved.append((run_mod, "branch_and_bound", original))
        run_mod.branch_and_bound = _traced_branch_and_bound(tracer, original)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children run one after another on the parent's thread, so the time they
    cover is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    return {span["id"]: _duration(span) - covered[span["id"]] for span in spans}


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The root span and all its descendants (ids grow from parent to child)."""
    inside = {root_id}
    out = []
    for span in spans[root_id:]:
        if span["id"] == root_id or span["parent"] in inside:
            inside.add(span["id"])
            out.append(span)
    return out


def layer_metrics(spans: list[dict], root_id: int) -> dict[str, float]:
    """Per-layer self times and counts for one traced operation."""
    inside = subtree(spans, root_id)
    own = self_times(inside)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    rooted: set[int] = set()
    lp_times = []
    for span in inside:
        name = span["name"]
        if name in SELF_TIME_METRIC:
            metrics[SELF_TIME_METRIC[name]] += own[span["id"]]
        elif name == LP_SPAN:
            # The first LP under a branch-and-bound span is its root LP.
            stage = "node_s" if span["parent"] in rooted else "root_s"
            rooted.add(span["parent"])
            metrics[f"simplex.{stage}"] += own[span["id"]]
            lp_times.append(own[span["id"]])
        else:
            raise ValueError(f"span {name!r} has no layer metric")
        # Counts are missing from a span whose call raised.
        if name == "builder.build":
            metrics["builder.cols"] = max(metrics["builder.cols"], span.get("cols", 0))
            metrics["builder.rows"] = max(metrics["builder.rows"], span.get("rows", 0))
        if name == "branch_bound.solve":
            metrics["branch_bound.nodes"] += span.get("nodes", 0)
            metrics["branch_bound.first_incumbent_s"] += span.get(
                "first_incumbent_s", 0.0)
    metrics["simplex.lp_solves"] = len(lp_times)
    metrics["simplex.s_per_lp"] = statistics.fmean(lp_times) if lp_times else 0.0
    return metrics
