"""Exact branch-and-bound over LP relaxations.

Best-bound node selection through a sequence-stamped priority queue (the
stamp breaks ties deterministically), branching on the most fractional
integer column with ties to the lowest column index. Nodes carry bound
overrides and their parent's final LP basis (a small :class:`Basis`
record, never a basis inverse); each node LP goes through the shared
:class:`PreparedLP`, which warm-starts a dual simplex from that basis,
since a child differs from its parent in one column bound. The root LP
starts cold, from the slack basis.

A node's priority is its parent's relaxation objective, which lower-bounds
its subtree; with best-first order the popped priorities are nondecreasing,
so the last popped priority is the global proven bound.

When a relaxation comes back integral, the integer columns are fixed at
their rounded values and the LP re-solved once ("polish"), so incumbents
carry exactly integral values and an objective consistent with them. The
polish starts from the node's own basis.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from ..model import LinearModel
from .simplex import PreparedLP, check_solution
from .types import NumericalFailure, Solution, SolveStatus, relative_gap

__all__ = ["branch_and_bound", "INTEGRALITY_TOL", "DEFAULT_REL_GAP"]

INTEGRALITY_TOL = 1e-6
DEFAULT_REL_GAP = 1e-2  # the usual sub-1% reporting convention


def _most_fractional(
    values: np.ndarray, int_cols: list[int], priorities: list[int]
) -> int | None:
    """Branch column: highest priority class, then most fractional, then
    lowest index. Settling structural columns first stops the relaxation
    from re-smearing schedule columns after every branch."""
    best_col = None
    best_key = None
    for j in int_cols:
        frac = abs(values[j] - round(values[j]))
        if frac <= INTEGRALITY_TOL:
            continue
        key = (priorities[j], frac)
        if best_key is None or key > best_key:
            best_key = key
            best_col = j
    return best_col


def branch_and_bound(
    model: LinearModel,
    rel_gap_target: float = DEFAULT_REL_GAP,
    node_limit: int | None = None,
    time_limit: float | None = None,
    trace: list[str] | None = None,
) -> Solution:
    """Minimize the model to a proven relative gap.

    Returns OPTIMAL once gap <= rel_gap_target is proven, FEASIBLE with the
    achieved gap when a node or time limit interrupts, INFEASIBLE when no
    integer-feasible point exists, UNBOUNDED from the root relaxation.
    Deterministic: identical model and configuration give the identical
    node sequence and solution.
    """
    start = time.monotonic()
    prep = PreparedLP(model)
    int_cols = model.integer_cols

    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf
    proven_bound = -math.inf
    nodes = 0
    seq = 0
    heap: list = []
    # Node selection: until a first incumbent exists every node ties, so the
    # newest-first tie-break turns the search into a plunge that reaches an
    # integer leaf; afterwards keys are bounds quantized to a band, i.e.
    # best-bound ordering in which near-equal nodes keep diving. The proven
    # bound always uses raw values, so optimality claims are unaffected.
    tie_band = 1e-9

    def quantize(bound: float) -> float:
        if incumbent is None:
            return 0.0
        if not math.isfinite(bound):
            return bound
        return math.floor(bound / tie_band) * tie_band

    def rekey_heap() -> None:
        entries = [(quantize(e[2]), *e[1:]) for e in heap]
        heap.clear()
        heap.extend(entries)
        heapq.heapify(heap)

    def log(node_id: int, depth: int, bound) -> None:
        if trace is not None:
            inc = f"{incumbent_obj:.9g}" if incumbent is not None else "-"
            trace.append(
                f"node {node_id} depth {depth} bound {bound:.9g} incumbent {inc}")

    def finish(status: SolveStatus, wall_bound: float) -> Solution:
        wall = time.monotonic() - start
        if incumbent is None:
            if status == SolveStatus.INFEASIBLE:
                return Solution(status=status, node_count=nodes, wall_time=wall)
            return Solution(status=SolveStatus.FEASIBLE, node_count=nodes,
                            wall_time=wall, best_bound=wall_bound, gap=math.inf)
        problems = check_solution(model, incumbent)
        if problems:
            raise NumericalFailure(
                "incumbent failed the independent feasibility re-check: "
                + "; ".join(problems[:5]))
        bound = min(wall_bound, incumbent_obj)
        return Solution(
            status=status,
            values=incumbent,
            objective=incumbent_obj,
            best_bound=bound,
            gap=max(0.0, relative_gap(incumbent_obj, bound)),
            node_count=nodes,
            wall_time=wall,
        )

    lower = np.asarray(model.lower, dtype=float)
    upper = np.asarray(model.upper, dtype=float)
    heapq.heappush(heap, (-math.inf, -seq, -math.inf, lower, upper, 0, None))

    def open_bound() -> float:
        # The proven global bound is the raw minimum over open nodes.
        return min((entry[2] for entry in heap), default=math.inf)

    while heap:
        _, neg_id, raw_bound, lo, hi, depth, basis = heapq.heappop(heap)
        node_id = -neg_id
        proven_bound = min(raw_bound, open_bound())

        if incumbent is not None:
            if max(0.0, relative_gap(incumbent_obj, proven_bound)) <= rel_gap_target:
                return finish(SolveStatus.OPTIMAL, proven_bound)
            if raw_bound >= incumbent_obj - 1e-9 * max(1.0, abs(incumbent_obj)):
                continue  # fathomed by bound

        if (node_limit is not None and nodes >= node_limit) or (
                time_limit is not None and time.monotonic() - start > time_limit):
            return finish(SolveStatus.FEASIBLE, min(proven_bound, incumbent_obj))

        result = prep.solve(lo, hi, basis)
        nodes += 1
        if result.status == SolveStatus.INFEASIBLE:
            log(node_id, depth, math.inf)
            continue
        if result.status == SolveStatus.UNBOUNDED:
            return Solution(status=SolveStatus.UNBOUNDED, node_count=nodes,
                            wall_time=time.monotonic() - start)
        log(node_id, depth, result.objective)
        if depth == 0:
            # The root is alone in the tree, so its relaxation is the
            # global bound; it also sets the tie band's scale.
            proven_bound = max(proven_bound, result.objective)
            tie_band = max(1e-9, 0.02 * max(1.0, abs(result.objective)))

        if incumbent is not None and result.objective >= incumbent_obj \
                - 1e-9 * max(1.0, abs(incumbent_obj)):
            continue  # fathomed after solving

        branch_col = _most_fractional(result.values, int_cols,
                                       model.branch_priority)
        if branch_col is None:
            candidate = _polish(prep, model, int_cols, lo, hi, result)
            if candidate[1] < incumbent_obj:
                first = incumbent is None
                incumbent, incumbent_obj = candidate
                if first:
                    rekey_heap()  # switch from plunge to best-bound order
            continue

        frac = result.values[branch_col]
        lo_left, hi_left = lo.copy(), hi.copy()
        hi_left[branch_col] = math.floor(frac)
        lo_right, hi_right = lo.copy(), hi.copy()
        lo_right[branch_col] = math.ceil(frac)
        round_up = frac - math.floor(frac) >= 0.5
        children = [(lo_left, hi_left), (lo_right, hi_right)]
        if not round_up:
            children.reverse()
        # Newest-first tie-break pops the last push: put the rounding
        # direction last so plunges follow the relaxation's lead.
        child_key = quantize(result.objective)
        for child_lo, child_hi in children:
            seq += 1
            heapq.heappush(heap, (child_key, -seq, result.objective,
                                  child_lo, child_hi, depth + 1, result.basis))

    if incumbent is None:
        return finish(SolveStatus.INFEASIBLE, math.inf)
    # Tree exhausted: the incumbent is proven optimal.
    return finish(SolveStatus.OPTIMAL, incumbent_obj)


def _polish(
    prep: PreparedLP,
    model: LinearModel,
    int_cols: list[int],
    lo: np.ndarray,
    hi: np.ndarray,
    relaxed: Solution,
) -> tuple[np.ndarray, float]:
    """Fix integers at rounded values and re-solve for exact continuous parts."""
    values = relaxed.values
    lo2, hi2 = lo.copy(), hi.copy()
    for j in int_cols:
        v = float(round(values[j]))
        lo2[j] = v
        hi2[j] = v
    refined = prep.solve(lo2, hi2, relaxed.basis)
    if refined.status == SolveStatus.OPTIMAL:
        return refined.values, refined.objective
    snapped = values.copy()
    for j in int_cols:
        snapped[j] = round(snapped[j])
    return snapped, model.objective_value(snapped)
