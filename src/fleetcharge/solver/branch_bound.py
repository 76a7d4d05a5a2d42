"""Exact branch-and-bound over LP relaxations.

One node rule, through a sequence-stamped priority queue (the stamp breaks
ties deterministically, newest first). Until the first incumbent every key
is 0.0, so the search plunges depth-first and always dives into the up
child (the column's lower bound raised to the ceiling). Once an incumbent
exists the heap is re-keyed by each node's bound, its parent's relaxation
objective, and the search pops best bound first; the popped bound is then
the least open one, so it is the global proven bound. Branching is on the
most fractional integer column of the highest priority class, with ties to
the lowest column index.

Nodes carry bound overrides and their parent's final LP basis (a small
:class:`Basis` record, never a basis inverse); each node LP goes through
the shared :class:`PreparedLP`, which warm-starts a dual simplex from that
basis, since a child differs from its parent in one column bound. The root
LP starts cold, from the slack basis.

Only the most recent LP's kernel inverse (its :class:`Factor`) is kept,
and it is passed to the next solve, whatever node that is. The solve
decides whether to take it over (see :meth:`PreparedLP.solve`): it does
when it starts from that LP's very basis, as every child does when the
search dives, and then skips the refactorization. So at most one factor
is kept between solves and none is stored on the heap or returned; the
search sums the hand-offs its solves report.

When a relaxation comes back integral, the integer columns are fixed at
their rounded values and the LP re-solved once ("polish"), so incumbents
carry exactly integral values and an objective consistent with them. The
polish starts from the node's own basis and takes over its factor. A
polish LP that does not end OPTIMAL raises :class:`NumericalFailure`: the
relaxation already found an integral point there, so dropping it could
end the search with an INFEASIBLE it never proved.

A ``trace`` list gets one line per solved node, ``node N depth D bound B
incumbent X`` (X is ``-`` before the first incumbent), a second line for a
node whose polish improves the incumbent, and a last line ``stop R nodes N
incumbent X`` with the solution's ``stop_reason`` R.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import Counter

import numpy as np

from ..model import LinearModel
from .simplex import Factor, PreparedLP, check_solution
from .types import NumericalFailure, Solution, SolveStatus, relative_gap

__all__ = ["branch_and_bound", "check_limits", "INTEGRALITY_TOL", "DEFAULT_REL_GAP"]

INTEGRALITY_TOL = 1e-6
DEFAULT_REL_GAP = 1e-2  # the usual sub-1% reporting convention


def _most_fractional(
    values: np.ndarray, int_cols: np.ndarray, priorities: np.ndarray
) -> int | None:
    """Branch column: highest priority class, then most fractional, then
    lowest index. Settling structural columns first stops the relaxation
    from re-smearing schedule columns after every branch."""
    v = values[int_cols]
    frac = np.abs(v - np.round(v))
    fractional = frac > INTEGRALITY_TOL
    if not fractional.any():
        return None
    cand, frac = int_cols[fractional], frac[fractional]
    top = priorities[cand] == priorities[cand].max()
    return int(cand[top][np.argmax(frac[top])])  # argmax: first, lowest index


def check_limits(
    rel_gap_target: float, node_limit: int | None = None,
    time_limit: float | None = None,
) -> None:
    """Raise ValueError for a negative or non-finite gap target or limit;
    a limit of None means no limit."""
    limits = {"rel_gap_target": rel_gap_target, "node_limit": node_limit,
              "time_limit": time_limit}
    for name, value in limits.items():
        if value is not None and not 0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")


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
    integer-feasible point exists. Raises :class:`NumericalFailure` when
    the polish LP of an integral relaxation does not end OPTIMAL or the
    incumbent fails the re-check, and ValueError for a limit that
    :func:`check_limits` rejects or a model whose LP may be unbounded (a
    cost with no finite bound on its side; see :class:`PreparedLP`).
    Deterministic: identical model and configuration give the identical
    node sequence and solution. The solution counts the work done (see
    :class:`Solution`) and says why the search stopped.
    """
    check_limits(rel_gap_target, node_limit, time_limit)
    start = time.monotonic()
    prep = PreparedLP(model)
    int_cols = np.array(model.integer_cols, dtype=int)
    priorities = np.array(model.branch_priority, dtype=int)

    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf
    cutoff = math.inf  # a node bounded at or above this cannot improve
    nodes = 0
    seq = 0
    counts = Counter()  # summed over every LP solved
    # Entries (key, -seq, bound, lo, hi, depth, basis): the key is 0.0 until
    # the first incumbent (a plunge, newest first) and the bound after it.
    heap: list = []

    def shown() -> str:
        return f"{incumbent_obj:.9g}" if incumbent is not None else "-"

    def log(node_id: int, depth: int, bound) -> None:
        if trace is not None:
            trace.append(
                f"node {node_id} depth {depth} bound {bound:.9g} incumbent {shown()}")

    def finish(status: SolveStatus, wall_bound: float, reason: str) -> Solution:
        wall = time.monotonic() - start
        if trace is not None:
            trace.append(f"stop {reason} nodes {nodes} incumbent {shown()}")
        stats = dict(node_count=nodes, wall_time=wall, stop_reason=reason, counts=counts)
        if incumbent is None:
            if status == SolveStatus.INFEASIBLE:
                return Solution(status=status, **stats)
            return Solution(status=SolveStatus.FEASIBLE, best_bound=wall_bound,
                            gap=math.inf, **stats)
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
            **stats,
        )

    heapq.heappush(heap, (0.0, 0, -math.inf, prep.lower, prep.upper, 0, None))
    factor = None  # the last LP's factor, for a node that dives from it

    while heap:
        _, neg_id, bound, lo, hi, depth, basis = heapq.heappop(heap)
        node_id = -neg_id
        if incumbent is not None:
            if max(0.0, relative_gap(incumbent_obj, bound)) <= rel_gap_target:
                return finish(SolveStatus.OPTIMAL, bound, "gap")
            if bound >= cutoff:
                continue  # fathomed by bound

        limit = None
        if node_limit is not None and nodes >= node_limit:
            limit = "node_limit"
        elif time_limit is not None and time.monotonic() - start > time_limit:
            limit = "time_limit"
        if limit is not None:
            return finish(SolveStatus.FEASIBLE,
                          min([bound] + [entry[2] for entry in heap]), limit)

        result = prep.solve(lo, hi, basis, factor)
        counts.update(result.counts)
        factor = result.factor
        nodes += 1
        if result.status == SolveStatus.INFEASIBLE:
            log(node_id, depth, math.inf)
            continue
        log(node_id, depth, result.objective)
        if result.objective >= cutoff:
            continue  # fathomed after solving

        branch_col = _most_fractional(result.values, int_cols, priorities)
        if branch_col is None:
            polished = _polish(prep, int_cols, lo, hi, result, factor, node_id)
            counts.update(polished.counts)
            factor = polished.factor
            if polished.objective < incumbent_obj:
                if incumbent is None:  # the plunge is over: key by bound
                    heap[:] = [(entry[2], *entry[1:]) for entry in heap]
                    heapq.heapify(heap)
                incumbent, incumbent_obj = polished.values, polished.objective
                cutoff = incumbent_obj - 1e-9 * max(1.0, abs(incumbent_obj))
                log(node_id, depth, result.objective)
            continue

        # Each child copies only the bound it changes and shares the other
        # with its parent; read-only, as the root's are, since siblings share.
        frac = result.values[branch_col]
        hi_down, lo_up = hi.copy(), lo.copy()
        hi_down[branch_col] = math.floor(frac)
        lo_up[branch_col] = math.ceil(frac)
        hi_down.flags.writeable = lo_up.flags.writeable = False
        # The up child is pushed last, so it pops first among equal keys.
        key = 0.0 if incumbent is None else result.objective
        for child_lo, child_hi in ((lo, hi_down), (lo_up, hi)):
            seq += 1
            heapq.heappush(heap, (key, -seq, result.objective,
                                  child_lo, child_hi, depth + 1, result.basis))

    if incumbent is None:
        return finish(SolveStatus.INFEASIBLE, math.inf, "infeasible")
    # Tree exhausted: the incumbent is proven optimal.
    return finish(SolveStatus.OPTIMAL, incumbent_obj, "exhausted")


def _polish(
    prep: PreparedLP,
    int_cols: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    relaxed: Solution,
    factor: Factor | None,
    node_id: int,
) -> Solution:
    """Fix integers at rounded values and re-solve for exact continuous
    parts, from the relaxation's basis and its ``factor``.

    Returns that LP's OPTIMAL solution, so every incumbent is the optimum
    of a solved LP. Raises :class:`NumericalFailure` naming the
    node when the LP does not end OPTIMAL.
    """
    # Adding 0.0 turns np.round's -0.0 into the 0.0 that round() gives.
    rounded = np.round(relaxed.values[int_cols]) + 0.0
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[int_cols] = hi2[int_cols] = rounded
    refined = prep.solve(lo2, hi2, relaxed.basis, factor)
    if refined.status != SolveStatus.OPTIMAL:
        raise NumericalFailure(f"polish LP of integral node {node_id} ended "
                               f"{refined.status.value}")
    return refined
