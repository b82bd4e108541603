import random
from fractions import Fraction

import pytest

from hochalg.linalg import RatMatrix, identity, is_invertible, kernel_basis, kernel_rows, matvec, rank, rref


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
