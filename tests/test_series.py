from fractions import Fraction

import pytest

from hochalg.series import (
    PowerSeries,
    compose,
    from_ints,
    geometric_series,
    hoch_series,
    identity_series,
    large_by_convolution,
    schroeder,
    tinf_series,
)
from hochalg.trees import compositions, enumerate_forests, enumerate_trees


class TestCompose:
    def test_identity_left(self):
        g = from_ints([1, 4, 9, 16])
        assert compose(identity_series(4), g) == g

    def test_geometric_of_x(self):
        n = 6
        assert compose(geometric_series(n), identity_series(n)) == geometric_series(n)

    def test_geometric_of_trees_gives_forests(self):
        got = compose(geometric_series(5), tinf_series(5))
        assert [got.coefficient(k) for k in range(1, 6)] == [1, 2, 6, 22, 90]

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            compose(geometric_series(3), geometric_series(4))


class TestTreeSeries:
    def test_first_five(self):
        assert [tinf_series(5).coefficient(k) for k in range(1, 6)] == [1, 1, 3, 11, 45]

    def test_order_two(self):
        assert tinf_series(2).coeffs == (Fraction(1), Fraction(1))

    def test_sixth_coefficient_against_enumeration(self):
        assert tinf_series(6).coefficient(6) == 197 == len(enumerate_trees(6))


class TestForestSeries:
    def test_first_four(self):
        assert [hoch_series(4).coefficient(k) for k in range(1, 5)] == [1, 2, 6, 22]

    def test_fifth(self):
        assert hoch_series(5).coefficient(5) == 90

    def test_sixth_coefficient_against_enumeration(self):
        assert hoch_series(6).coefficient(6) == 394 == len(enumerate_forests(6))

    def test_composition_identity_to_order_twelve(self):
        n = 12
        assert hoch_series(n) == compose(geometric_series(n), tinf_series(n))


class TestSchroeder:
    def test_examples(self):
        assert schroeder("little", 4) == 11
        assert schroeder("large", 2) == 2
        assert schroeder("large", 7) == 1806

    def test_integrality(self):
        for n in range(1, 13):
            assert isinstance(schroeder("little", n), int)
            assert isinstance(schroeder("large", n), int)

    def test_invalid(self):
        with pytest.raises(ValueError):
            schroeder("medium", 2)
        with pytest.raises(ValueError):
            schroeder("little", 0)

    def test_consistency_with_enumeration(self):
        for n in range(1, 8):
            assert schroeder("little", n) == len(enumerate_trees(n))
            assert schroeder("large", n) == len(enumerate_forests(n))


class TestConvolutionIdentity:
    def test_recursive_convolution(self):
        for n in range(1, 10):
            assert large_by_convolution(n) == schroeder("large", n)

    def test_literal_sum_over_compositions(self):
        # large(n) = sum over compositions (n1..nk) of prod little(ni)
        for n in range(1, 10):
            total = 0
            for k in range(1, n + 1):
                for comp in compositions(n, k):
                    product = 1
                    for part in comp:
                        product *= schroeder("little", part)
                    total += product
            assert total == schroeder("large", n)


class TestGenfuncWitness:
    def test_composition_check_fails_on_a_wrong_composition(self, monkeypatch):
        from hochalg import series, verify

        def off_by_one(f, g):
            good = compose(f, g)
            return PowerSeries(good.coeffs[:-1] + (good.coeffs[-1] + 1,))

        assert all(check.passed for check in verify.suite_genfunc(6))
        monkeypatch.setattr(series, "compose", off_by_one)
        monkeypatch.setattr(verify, "compose", off_by_one)
        assert not verify.suite_genfunc(6)[0].passed


class TestPowerSeriesType:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries(())

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            tinf_series(3).coefficient(4)
        with pytest.raises(ValueError):
            tinf_series(3).coefficient(0)

    def test_multiplication_truncates(self):
        x = identity_series(3)
        assert (x * x).coeffs == (Fraction(0), Fraction(1), Fraction(0))

    def test_exact_rationals(self):
        half = PowerSeries((Fraction(1, 2), Fraction(0)))
        assert (half * half).coeffs == (Fraction(0), Fraction(1, 4))
