"""Exact Gaussian elimination over the rationals on sparse rows.

Rows are dicts mapping column index -> nonzero exact rational.  Callers may
pass int or Fraction entries; every entry becomes a Fraction as a row enters
elimination, so no division ever sees a bare int and yields a float.
Nothing here knows about blades; the callers translate to and from
coefficient vectors.

Inside the package only ``multivector.inverse_of`` and ``is_invertible``
call this module, through ``solve``, which reads its answer off
``nullspace`` of the augmented system.  The nullspace oracle's system is
diagonal for blade-spanned targets, so it reads its kernel off directly.

The pivot set is kept fully inter-reduced (reduced row echelon form): no
pivot row contains another pivot's column.  That keeps single-pass row
reduction correct and lets each kernel vector be read off the pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional

SparseRow = Dict[int, Fraction]

_ZERO = Fraction(0)


def _subtract_multiple(row: SparseRow, factor: Fraction, other: SparseRow) -> None:
    """In place: row -= factor * other, dropping entries that cancel."""
    for c, v in other.items():
        new = row.get(c, _ZERO) - factor * v
        if new:
            row[c] = new
        else:
            row.pop(c, None)


def _reduce_row(row: SparseRow, pivots: Dict[int, SparseRow]) -> SparseRow:
    """Eliminate every pivot column from a Fraction copy of ``row``.

    Because pivot rows are inter-reduced, an elimination can only introduce
    non-pivot columns, so one pass over the original support suffices.
    """
    row = {c: Fraction(v) for c, v in row.items()}
    for col in sorted(row):
        if col not in row:
            continue  # cancelled by an earlier elimination
        piv = pivots.get(col)
        if piv is None:
            continue
        _subtract_multiple(row, row[col] / piv[col], piv)
    return row


def row_reduce(rows: Iterable[SparseRow]) -> Dict[int, SparseRow]:
    """Reduce rows to a pivot map {pivot column -> row}; rank = len(result)."""
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        reduced = _reduce_row(row, pivots)
        if not reduced:
            continue
        col = min(reduced)
        for prow in pivots.values():
            if col in prow:
                _subtract_multiple(prow, prow[col] / reduced[col], reduced)
        pivots[col] = reduced
    return pivots


def nullspace(rows: Iterable[SparseRow], ncols: int) -> List[SparseRow]:
    """Basis of {x : Ax = 0}, one sparse vector per free column.

    Each basis vector has a 1 in its free column, so the basis is in
    one-to-one correspondence with the non-pivot columns.
    """
    pivots = row_reduce(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: SparseRow = {free: Fraction(1)}
        for col, row in pivots.items():
            coeff = row.get(free)
            if coeff:
                vec[col] = -coeff / row[col]
        basis.append(vec)
    return basis


def solve(columns: List[SparseRow], rhs: SparseRow) -> Optional[List[Fraction]]:
    """One solution of A x = rhs with A given column-wise; None if inconsistent.

    The kernel of [A | -rhs] has a vector with a 1 in column ncols exactly
    when the system is consistent; it is the last basis vector, and its
    other entries are a solution with every free variable 0.
    """
    ncols = len(columns)
    rows: Dict[int, SparseRow] = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    for i, v in rhs.items():
        if v:
            rows.setdefault(i, {})[ncols] = -v
    basis = nullspace(rows.values(), ncols + 1)
    # a pivot ncols has the row (0 ... 0 | nonzero), so it enters no vector
    if not basis or ncols not in basis[-1]:
        return None
    return [basis[-1].get(j, _ZERO) for j in range(ncols)]
