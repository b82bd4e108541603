"""Exact rational sparse matrices: rank, kernel, invertibility.

Elimination is exact: entries are ``int`` while integral, ``Fraction``
otherwise and at the accessors.  Pivots are chosen by column order (first
nonzero row), never by magnitude, so results are reproducible and do not
depend on row insertion order.  Matrices here stay at desk scale (a few
thousand columns at most).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from numbers import Rational

from .algebra import _exact, _items


class RatMatrix:
    """Immutable sparse matrix over the rationals, stored row-wise."""

    def __init__(self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], Rational] = ()):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        rows: list[dict] = [{} for _ in range(nrows)]
        for (i, j), v in _items(entries):
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) out of bounds for {nrows}x{ncols}")
            v = _exact(v)
            if v:
                rows[i][j] = v
        self._rows = rows

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._rows[i].get(j, 0))

    def row(self, i: int) -> dict[int, Fraction]:
        return {j: Fraction(v) for j, v in self._rows[i].items()}

    def __repr__(self) -> str:
        nnz = sum(len(r) for r in self._rows)
        return f"RatMatrix({self.nrows}x{self.ncols}, {nnz} nonzero)"


def _rref(rows: list[dict], ncols: int, reduced: bool = True) -> tuple[list[dict], list[int]]:
    """In-place echelon form, pivots 1, reduced if ``reduced``; returns (rows, pivot columns)."""
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r].get(col):
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pv = rows[pivot_row][col]
        if pv != 1:
            inv = -1 if pv == -1 else 1 / Fraction(pv)  # -1 keeps an int row int
            rows[pivot_row] = {j: v * inv for j, v in rows[pivot_row].items()}
        prow = rows[pivot_row]
        for r in range(0 if reduced else pivot_row + 1, len(rows)):
            if r == pivot_row:
                continue
            factor = rows[r].get(col)
            if not factor:
                continue
            target = rows[r]
            for j, v in prow.items():
                new = target.get(j, 0) - factor * v
                if new:
                    target[j] = new
                else:
                    target.pop(j, None)
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns."""
    rows, pivots = _rref([dict(r) for r in m._rows], m.ncols)
    out = RatMatrix(m.nrows, m.ncols)
    out._rows = rows
    return out, pivots


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals; an unreduced echelon form suffices."""
    _, pivots = _rref([dict(r) for r in m._rows], m.ncols, reduced=False)
    return len(pivots)


def kernel_rows(m: RatMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right null space, reduced row-echelon normalized, as
    sparse rows (column -> nonzero entry), each leading coefficient 1.

    One elimination, over the reversed column order: there the special
    vector of a free column j is 1 at j plus entries at pivot columns to
    the right of j only, so the specials, by j, are already the RREF.
    """
    last = m.ncols - 1
    rows, pivots = _rref([{last - j: v for j, v in r.items()} for r in m._rows], m.ncols)
    pivot_set = set(pivots)
    specials = {j: {j: 1} for j in range(m.ncols) if last - j not in pivot_set}
    for row, pcol in zip(rows, pivots):
        for j, v in row.items():
            if j != pcol:
                specials[last - j][last - pcol] = -v
    return [{j: Fraction(c) for j, c in vec.items()} for vec in specials.values()]


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, reduced row-echelon normalized.

    Returns cols - rank vectors v with m @ v = 0 exactly; arranged as rows
    of an RREF matrix (each leading coefficient 1).  The dense form of
    ``kernel_rows``.
    """
    zero = Fraction(0)
    return [tuple(vec.get(j, zero) for j in range(m.ncols)) for vec in kernel_rows(m)]


def is_invertible(m: RatMatrix) -> bool:
    """rank == dimension; raises on non-square input."""
    if m.nrows != m.ncols:
        raise ValueError(f"invertibility needs a square matrix, got {m.nrows}x{m.ncols}")
    return rank(m) == m.nrows
