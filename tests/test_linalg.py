import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hochalg.linalg import RatMatrix, is_invertible, kernel_basis, kernel_rows, rank, rref

small_rational = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def rational_matrices(draw):
    """Rectangular matrices mixing random rows, zero rows and (scaled)
    repeats of earlier rows."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows: list[dict] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero":
            rows.append({})
        elif kind == "repeat" and rows:
            c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows.append({j: c * v for j, v in draw(st.sampled_from(rows)).items()})
        else:
            rows.append({j: draw(small_rational) for j in range(ncols)})
    return RatMatrix(nrows, ncols, {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})


def identity(n: int) -> RatMatrix:
    return RatMatrix(n, n, {(i, i): 1 for i in range(n)})


def matvec(m: RatMatrix, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(v) != m.ncols:
        raise ValueError("vector length does not match column count")
    return tuple(sum((c * v[j] for j, c in m.row(i).items()), Fraction(0)) for i in range(m.nrows))


def _column_sweep(rows: list[dict], ncols: int, reduced: bool = True) -> tuple[list[dict], list[int]]:
    """Reference elimination, the column sweep linalg used before its
    row-by-row elimination: per column, the first remaining row holding it
    is swapped up as the pivot row, scaled to 1 and cleared from the rows
    below (and above, if ``reduced``).  In place; returns (rows, pivot
    columns)."""
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


def _two_pass_kernel_rows(m: RatMatrix) -> list[dict[int, Fraction]]:
    """Reference kernel: RREF of m, the special vector of each free
    column, then a second RREF over the specials."""
    rows, pivots = _column_sweep([m.row(i) for i in range(m.nrows)], m.ncols)
    free_cols = [j for j in range(m.ncols) if j not in set(pivots)]
    specials = []
    for j in free_cols:
        vec = {j: 1}
        for r, pcol in enumerate(pivots):
            v = rows[r].get(j)
            if v:
                vec[pcol] = -v
        specials.append(vec)
    normalized, _ = _column_sweep(specials, m.ncols)
    return [{j: Fraction(c) for j, c in vec.items()} for vec in normalized if vec]


def _matrix(rows):
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return RatMatrix(len(rows), len(rows[0]), entries)


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_zero(self):
        assert rank(RatMatrix(2, 5)) == 0

    def test_coproduct_matrix_degree_two(self):
        from hochalg.coalgebra import coproduct_matrix

        matrix, _, _ = coproduct_matrix(2)
        assert rank(matrix) == 1

    def test_rational_pivoting(self):
        m = RatMatrix(2, 2, {(0, 0): Fraction(1, 3), (0, 1): 2, (1, 0): 1, (1, 1): 6})
        assert rank(m) == 1


class TestEchelonRank:
    """rank stops at an unreduced echelon form; rref reduces fully."""

    @given(rational_matrices())
    @example(_matrix([[0, 0, 0], [1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6]]))
    @example(_matrix([[0, 1, 2, 0], [3, 0, 1, 1], [0, 2, 4, 0]]))
    @example(_matrix([[0, 1], [1, 0], [1, 1], [Fraction(1, 2), 0], [0, 0]]))
    def test_rank_matches_rref_pivots(self, m):
        assert rank(m) == len(rref(m)[1])

    def test_unitriangular_with_a_zeroed_diagonal_entry_is_singular(self):
        n = 6
        upper = {(i, j): (i + 2 * j) % 5 - 2 for i in range(n) for j in range(i + 1, n)}
        upper.update({(i, i): 1 for i in range(n)})
        assert is_invertible(RatMatrix(n, n, upper))
        for k in range(n):
            zeroed = dict(upper)
            zeroed[(k, k)] = 0
            m = RatMatrix(n, n, zeroed)
            assert not is_invertible(m)
            assert rank(m) == len(rref(m)[1]) == n - 1

    def test_lower_triangular_needs_elimination_below_pivots(self):
        n = 6
        lower = RatMatrix(n, n, {(i, j): 2 if i == j else i + j for i in range(n) for j in range(i + 1)})
        assert rank(lower) == n
        assert is_invertible(lower)

    def test_fill_in_below_the_pivots(self):
        # eliminating column 0 puts a new entry into row 1 at column 3
        m = _matrix([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2]])
        assert rank(m) == 4
        assert is_invertible(m)

    def test_unitriangularity_is_not_invertibility(self):
        from hochalg.verify import _unitriangular

        swap = _matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert is_invertible(swap)
        assert not _unitriangular(swap)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(identity(4)) == []

    def test_zero_matrix_full_kernel(self):
        vectors = kernel_basis(RatMatrix(1, 3))
        assert len(vectors) == 3
        assert vectors == [tuple(identity(3).row(i).get(j, Fraction(0)) for j in range(3)) for i in range(3)]

    def test_coproduct_kernel_degree_two(self):
        from hochalg.coalgebra import coproduct_matrix

        matrix, forests, _ = coproduct_matrix(2)
        vectors = kernel_basis(matrix)
        assert len(vectors) == 1
        # coordinates of | | - [|,|] over the canonical basis (| |, [|,|])
        assert vectors[0] == (Fraction(1), Fraction(-1))

    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            entries = {}
            for i in range(nrows):
                for j in range(ncols):
                    if rng.random() < 0.5:
                        entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            m = RatMatrix(nrows, ncols, entries)
            vectors = kernel_basis(m)
            assert rank(m) + len(vectors) == ncols
            for v in vectors:
                assert all(c == 0 for c in matvec(m, v))

    def test_kernel_vectors_rref_normalized(self):
        m = RatMatrix(1, 4, {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4})
        vectors = kernel_basis(m)
        pivots = []
        for v in vectors:
            lead = next(i for i, c in enumerate(v) if c)
            assert v[lead] == 1
            pivots.append(lead)
        assert pivots == sorted(pivots)
        for i, v in enumerate(vectors):
            for j, w in enumerate(vectors):
                if i != j:
                    assert w[pivots[i]] == 0

    @given(rational_matrices())
    @example(RatMatrix(3, 4))
    @example(_matrix([[0, 1, 2, 0], [3, 0, 1, 1], [0, 2, 4, 0]]))
    @example(_matrix([[1, 2, 3], [2, 4, 6]]))
    def test_single_elimination_matches_two_pass_reference(self, m):
        assert kernel_rows(m) == _two_pass_kernel_rows(m)

    def test_single_elimination_matches_two_pass_on_coproduct_matrices(self):
        from hochalg.coalgebra import coproduct_matrix

        for n in range(1, 6):
            m = coproduct_matrix(n)[0]
            assert kernel_rows(m) == _two_pass_kernel_rows(m)

    def test_sparse_rows_expand_to_the_dense_basis(self):
        from hochalg.coalgebra import coproduct_matrix

        rng = random.Random(11)
        matrices = [coproduct_matrix(n)[0] for n in range(1, 5)]
        for _ in range(20):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            entries = {(i, j): rng.randint(-2, 2) for i in range(nrows) for j in range(ncols)}
            matrices.append(RatMatrix(nrows, ncols, entries))
        for m in matrices:
            rows = kernel_rows(m)
            assert all(c and isinstance(c, Fraction) for row in rows for c in row.values())
            dense = [tuple(row.get(j, 0) for j in range(m.ncols)) for row in rows]
            assert dense == kernel_basis(m)


class TestAgainstColumnSweep:
    """rank, rref and kernel_rows against the column-sweep reference;
    the RREF, rank and kernel are unique, so they must agree exactly,
    and the input matrix stays as it was."""

    @staticmethod
    def _assert_agrees(m: RatMatrix) -> None:
        before = [m.row(i) for i in range(m.nrows)]
        _, ref_pivots = _column_sweep([m.row(i) for i in range(m.nrows)], m.ncols, reduced=False)
        assert rank(m) == len(ref_pivots)
        ref_rows, ref_pivots = _column_sweep([m.row(i) for i in range(m.nrows)], m.ncols)
        reduced, pivots = rref(m)
        assert pivots == ref_pivots
        assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
        assert [reduced.row(i) for i in range(m.nrows)] == ref_rows
        assert kernel_rows(m) == _two_pass_kernel_rows(m)
        assert [m.row(i) for i in range(m.nrows)] == before

    @given(rational_matrices())
    @example(RatMatrix(3, 4))
    @example(_matrix([[0, 0, 0], [1, 2, 3], [1, 2, 3], [0, 0, 0], [2, 4, 6]]))
    @example(_matrix([[0, -1, 2, 0], [3, 0, 1, 1], [0, 2, 4, 0]]))
    @example(_matrix([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 2]]))
    @example(_matrix([[0, 1], [1, 0], [1, 1], [Fraction(1, 2), 0], [0, 0]]))
    def test_random_matrices(self, m):
        self._assert_agrees(m)

    def test_coproduct_and_pbw_matrices(self):
        from hochalg.coalgebra import coproduct_matrix
        from hochalg.verify import pbw_matrix

        for n in range(1, 7):
            self._assert_agrees(coproduct_matrix(n)[0])
            self._assert_agrees(pbw_matrix(n))


class TestInvertibility:
    def test_identity(self):
        assert is_invertible(identity(5))

    def test_zero_square(self):
        assert not is_invertible(RatMatrix(3, 3))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            is_invertible(RatMatrix(2, 3))

    def test_pbw_degree_four(self):
        from hochalg.verify import pbw_matrix

        m = pbw_matrix(4)
        assert m.nrows == m.ncols == 22
        assert is_invertible(m)


class TestDeterminism:
    def test_independent_of_insertion_order(self):
        entries = [((0, 1), Fraction(2)), ((1, 0), Fraction(3)), ((0, 0), Fraction(1)), ((1, 2), Fraction(5))]
        a = RatMatrix(2, 3, dict(entries))
        b = RatMatrix(2, 3, dict(reversed(entries)))
        assert rank(a) == rank(b)
        assert kernel_basis(a) == kernel_basis(b)
        ra, pa = rref(a)
        rb, pb = rref(b)
        assert pa == pb
        assert all(ra.row(i) == rb.row(i) for i in range(2))


class TestValidation:
    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            RatMatrix(1, 1, {(1, 0): 1})

    def test_zero_entries_dropped(self):
        m = RatMatrix(2, 2, {(0, 0): 0, (1, 1): 1})
        assert m.row(0) == {}
