"""Solver-agnostic mixed-integer linear model container.

A :class:`LinearModel` is plain data: column bounds with integrality marks,
a linear objective with a constant offset, and CSR row lists. Row ``i``
(``row_names[i]``) has the coefficients ``row_vals[k]`` on the columns
``row_cols[k]`` for ``row_start[i] <= k < row_start[i + 1]`` (a repeated
column adds up), the relation ``senses[i]`` and the right-hand side
``rhs[i]``; the ``rows`` view rebuilds ``Row`` tuples on each read.

A model is append-only: ``add_column`` sets a column's bounds and cost
once, ``add_row`` appends a row, and nothing changes either afterwards.
The builder appends them in a deterministic order, so two builds of the
same scenario are identical. The model does no arithmetic, so building
one imports no numpy: the solver's ``PreparedLP`` reads it once into
arrays and prices its own solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LE", "GE", "EQ", "Row", "LinearModel"]

LE = "<="
GE = ">="
EQ = "="

INF = math.inf


@dataclass(frozen=True, slots=True)
class Row:
    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


@dataclass
class LinearModel:
    col_names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    objective_offset: float = 0.0
    row_names: list[str] = field(default_factory=list)
    row_start: list[int] = field(default_factory=lambda: [0])  # num_rows + 1 offsets
    row_cols: list[int] = field(default_factory=list)
    row_vals: list[float] = field(default_factory=list)
    senses: list[str] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    # Higher values branch first; structural design columns outrank
    # per-block scheduling columns.
    branch_priority: list[int] = field(default_factory=list)

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    @property
    def rows(self) -> list[Row]:
        """The rows as ``Row`` tuples, rebuilt from the CSR lists on each read."""
        rows = zip(self.row_names, self.row_start, self.row_start[1:], self.senses, self.rhs)
        return [Row(name, tuple(zip(self.row_cols[lo:hi], self.row_vals[lo:hi])), sense, rhs)
                for name, lo, hi, sense, rhs in rows]

    @property
    def integer_cols(self) -> list[int]:
        return [j for j, flag in enumerate(self.integer) if flag]

    def add_column(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = INF,
        objective: float = 0.0,
        integer: bool = False,
        branch_priority: int = 0,
    ) -> int:
        if upper < lower:
            raise ValueError(f"column {name}: upper {upper} < lower {lower}")
        self.col_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.integer.append(bool(integer))
        self.objective.append(float(objective))
        self.branch_priority.append(int(branch_priority))
        return len(self.col_names) - 1

    def add_row(
        self,
        name: str,
        coeffs: list[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> int:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"row {name}: unknown sense {sense!r}")
        cols = [int(j) for j, _ in coeffs]
        for j in cols:
            if not (0 <= j < self.num_cols):
                raise ValueError(f"row {name}: column index {j} out of range")
        vals = [float(a) for _, a in coeffs]
        self.row_names.append(name)
        self.row_cols += cols
        self.row_vals += vals
        self.row_start.append(len(self.row_cols))
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        return len(self.row_names) - 1

    def to_lp_format(self) -> str:
        """Human-readable LP interchange text for external cross-checking."""

        def term(coef: float, name: str) -> str:
            sign = "+" if coef >= 0 else "-"
            return f"{sign} {abs(coef):.12g} {name}"

        lines = []
        if self.objective_offset:
            lines.append(f"\\ constant objective offset: {self.objective_offset:.12g}")
        lines += ["Minimize", " obj:"]
        parts = [
            term(c, self.col_names[j])
            for j, c in enumerate(self.objective)
            if c != 0.0
        ]
        for i in range(0, max(len(parts), 1), 6):
            lines.append("   " + " ".join(parts[i:i + 6]))
        lines.append("Subject To")
        for name, lo, hi, sense, rhs in zip(self.row_names, self.row_start,
                                            self.row_start[1:], self.senses, self.rhs):
            body = " ".join(term(c, self.col_names[j])
                            for j, c in zip(self.row_cols[lo:hi], self.row_vals[lo:hi]))
            lines.append(f" {name}: {body} {sense} {rhs:.12g}")  # senses are LP symbols
        lines.append("Bounds")
        for j, name in enumerate(self.col_names):
            lo, hi = self.lower[j], self.upper[j]
            lo_text = "-inf" if lo == -INF else f"{lo:.12g}"
            hi_text = "+inf" if hi == INF else f"{hi:.12g}"
            lines.append(f" {lo_text} <= {name} <= {hi_text}")
        integers = [self.col_names[j] for j in self.integer_cols]
        if integers:
            lines.append("Generals")
            for i in range(0, len(integers), 8):
                lines.append(" " + " ".join(integers[i:i + 8]))
        lines.append("End")
        return "\n".join(lines) + "\n"
