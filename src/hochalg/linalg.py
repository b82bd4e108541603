"""Exact rational sparse matrices: rank, kernel, invertibility.

Elimination is exact: entries are ``int`` while integral, ``Fraction``
otherwise and at the accessors.  Rows are eliminated one at a time, each
pivot at its row's first column; the RREF is unique, so results do not
depend on row order.  Desk scale: the degree-8 matrices have 8,558 columns.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
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


def _from_columns(rows: Sequence[Hashable], ncols: int, images: Iterable[Mapping]) -> RatMatrix:
    """The matrix whose column j holds the coefficients of the j-th image,
    one row per key of ``rows``.  The images are read one at a time."""
    row_of = {key: i for i, key in enumerate(rows)}
    entries = (((row_of[key], j), c) for j, image in enumerate(images) for key, c in image.items())
    return RatMatrix(len(rows), ncols, entries)


def _subtract(target: dict, factor, row: dict) -> None:
    """target -= factor * row, in place, dropping the entries that cancel."""
    for j, v in row.items():
        new = target.get(j, 0) - factor * v
        if new:
            target[j] = new
        else:
            del target[j]


def _echelon(rows: Iterable[dict], reduced: bool) -> dict[int, dict]:
    """Pivot column -> pivot row, 1 at its column; reduced if ``reduced``.

    Each row in turn: while a pivot row starts at its first column,
    subtract that pivot row; a row left nonzero becomes the pivot row of
    its first column.  ``reduced`` then back-substitutes, last pivot first:
    the later pivot rows are already zero at each other's pivot columns,
    so one pass over the pivot columns a row holds clears them.  The input
    rows are left unmodified: a row is copied only before it first
    changes, so a returned pivot row may be an input row.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        copied = False
        while row and (col := min(row)) in pivots:
            if not copied:
                row, copied = dict(row), True
            _subtract(row, row[col], pivots[col])
        if not row:
            continue
        pv = row[col]
        if pv != 1:
            inv = -1 if pv == -1 else 1 / Fraction(pv)  # -1 keeps an int row int
            row = {j: v * inv for j, v in row.items()}
        pivots[col] = row
    if reduced:
        for col in sorted(pivots, reverse=True):
            if hits := [j for j in pivots[col] if j != col and j in pivots]:
                row = pivots[col] = dict(pivots[col])
                for j in hits:
                    _subtract(row, row[j], pivots[j])
    return pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns."""
    pivots = _echelon(m._rows, reduced=True)
    cols = sorted(pivots)
    out = RatMatrix(m.nrows, m.ncols)
    out._rows = [pivots[c] for c in cols] + out._rows[len(cols):]
    return out, cols


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals; an unreduced echelon form suffices."""
    return len(_echelon(m._rows, reduced=False))


def kernel_rows(m: RatMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right null space (``_kernel_vectors``), with Fraction entries."""
    return [{j: Fraction(c) for j, c in vec.items()} for vec in _kernel_vectors(m)]


def _kernel_vectors(m: RatMatrix) -> list[dict]:
    """Basis of the right null space, reduced row-echelon normalized, as
    sparse rows (column -> nonzero int, or Fraction where the elimination
    divides), each leading coefficient 1.

    One elimination, over the reversed column order: there the special
    vector of a free column j is 1 at j plus entries at pivot columns to
    the right of j only, so the specials, by j, are already the RREF.
    """
    last = m.ncols - 1
    pivots = _echelon(({last - j: v for j, v in r.items()} for r in m._rows), reduced=True)
    specials = {j: {j: 1} for j in range(m.ncols) if last - j not in pivots}
    for pcol in sorted(pivots):
        for j, v in pivots[pcol].items():
            if j != pcol:
                specials[last - j][last - pcol] = -v
    return list(specials.values())


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
