"""Linear algebra over the exact scalars, real or complex.

A generating set (the columns of ``A``) is factored once: fraction-free
(Bareiss) forward elimination of ``[A | I]`` after clearing row denominators
yields ``[U | T]`` with ``T A = U`` in echelon form.  Every solve, rank and
kernel of that span is read from the factorization: a right-hand side ``b``
costs ``T b`` plus back substitution over the field.  Rank and membership
statements are generic-point: the recorded pivot entries (leading minors)
vanish exactly on the degeneracy locus where the generic answer can fail.

Entries may be real (``Expr``) or complex (``ComplexExpr``), mixed freely:
elimination uses ``ZERO``, ``ONE`` and :func:`~diracq.expr.is_zero` for both,
and mixed arithmetic is complex.  A span of complex sections is factored
over the complex numbers by passing their components as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .expr import Expr, ZERO, ONE, is_zero

__all__ = ["Echelon", "echelon", "SolveResult", "solve"]


def __getattr__(name: str):
    # sympy's namespace, served on demand: the benchmark tracer counts
    # ``sp.cancel`` here
    if name == "sp":
        import sympy
        return sympy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _clear_row(row: list) -> list:
    """Scale a row of Exprs by the product of its entry denominators."""
    scale = ONE
    for entry in row:
        _, den = entry.as_numer_denom()
        if den != ONE:
            scale = scale * den
    return row if scale == ONE else [entry * scale for entry in row]


@dataclass
class Echelon:
    """The factored span of ``ncols`` generators of length ``height``:
    ``rows`` holds the ``height`` rows of ``[U | T]``."""

    rows: list
    pivots: list[tuple[int, int]]
    ncols: int
    degeneracy: list                # pivot entries

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def free_columns(self) -> list[int]:
        pivot_cols = {c for _, c in self.pivots}
        return [c for c in range(self.ncols) if c not in pivot_cols]

    def _back_substitute(self, x: list, targets: Sequence) -> list:
        """Complete ``x``, whose free columns are already set, to a solution
        of ``U x = targets`` (one target per pivot row)."""
        for (row, col), acc in zip(reversed(self.pivots), reversed(targets)):
            for j in range(col + 1, self.ncols):
                if not is_zero(x[j]):
                    acc = acc - self.rows[row][j] * x[j]
            x[col] = acc / self.rows[row][col]
        return x

    @cached_property
    def kernel(self) -> tuple[tuple, ...]:
        """Basis of the generic kernel, one vector per free column."""
        basis = []
        for free in self.free_columns:
            x = [ZERO] * self.ncols
            x[free] = ONE
            self._back_substitute(x, [ZERO] * self.rank)
            basis.append(tuple(x))
        return tuple(basis)

    @property
    def cokernel(self) -> list[list]:
        """Rows of ``T`` annihilating every generator, spanning the
        covectors that vanish on the span."""
        return [row[self.ncols:] for row in self.rows[self.rank:]]


def echelon(columns: Sequence[Sequence], height: int) -> Echelon:
    """Factor the span of ``columns`` (each of length ``height``) by
    fraction-free forward elimination of ``[A | I]``.

    Pivots are chosen left-to-right by column, topmost eligible row first, so
    the pivot columns are the greedy independent subset of the generators.
    """
    ncols = len(columns)
    rows = [[col[i] for col in columns]
            + [ONE if j == i else ZERO for j in range(height)]
            for i in range(height)]
    if all(isinstance(e, Expr) for row in rows for e in row):
        rows = [_clear_row(row) for row in rows]
    width = ncols + height
    pivots: list[tuple[int, int]] = []
    degeneracy = []
    prev = ONE
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, height):
            if not is_zero(rows[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][col]
        degeneracy.append(piv)
        for i in range(r + 1, height):
            head = rows[i][col]
            for j in range(col, width):
                rows[i][j] = (piv * rows[i][j] - head * rows[r][j]) / prev
            rows[i][col] = ZERO
        pivots.append((r, col))
        prev = piv
        r += 1
    return Echelon(rows, pivots, ncols, degeneracy)


@dataclass
class SolveResult:
    solution: list | None
    witness: object | None          # nonzero residual on an inconsistent row

    @property
    def ok(self) -> bool:
        return self.solution is not None


def solve(ech: Echelon, rhs: Sequence) -> SolveResult:
    """Particular solution of ``A x = rhs`` for the factored ``A``, with free
    variables set to zero; an inconsistency witness (a nonzero entry of
    ``T rhs`` below the pivot rows) otherwise."""
    def transformed(row: int):
        acc = ZERO
        for t, b in zip(ech.rows[row][ech.ncols:], rhs):
            acc = acc + t * b
        return acc

    for i in range(ech.rank, len(ech.rows)):
        residual = transformed(i)
        if not is_zero(residual):
            return SolveResult(None, residual)
    targets = [transformed(row) for row, _ in ech.pivots]
    return SolveResult(ech._back_substitute([ZERO] * ech.ncols, targets),
                       None)
