"""The vector core keeps integral coefficients as ``int``; every result
must equal, hash and print like the same computation on ``Fraction``
coefficients, and every public accessor must still return ``Fraction``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hochalg import linalg
from hochalg.algebra import (
    Element,
    format_element,
    nary_bracket,
    parse_element,
    pbw_basis_element,
    star,
    succ,
    tree_to_primitive,
)
from hochalg.coalgebra import (
    UnitalElement,
    coproduct,
    coproduct_matrix,
    format_tensor,
    format_unital_element,
    primitive_basis,
    unital_coproduct,
)
from hochalg.trees import enumerate_forests, enumerate_trees, parse_forest

E = parse_element


def forests_upto(n):
    return [f for k in range(1, n + 1) for f in enumerate_forests(k)]


# integers exercise the int core, fractions the mixed one
coeffs = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))
elements = st.builds(
    Element, st.lists(st.tuples(st.sampled_from(forests_upto(3)), coeffs), min_size=0, max_size=3)
)
integral_elements = st.builds(
    Element, st.lists(st.tuples(st.sampled_from(forests_upto(3)), st.integers(-4, 4)), max_size=3)
)


def as_fractions(x):
    """A copy of x whose every stored coefficient is a Fraction."""
    return type(x)._of({key: Fraction(c) for key, c in x._terms.items()})


def all_fractions(x):
    return all(type(c) is Fraction for c in x._terms.values())


def assert_same(a, b, fmt):
    assert a == b
    assert hash(a) == hash(b)
    assert fmt(a) == fmt(b)


class TestFractionDifferential:
    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_products_and_brackets(self, x, y):
        fx, fy = as_fractions(x), as_fractions(y)
        assert all_fractions(fx) and all_fractions(fy)
        brackets = (lambda a, b: nary_bracket([a, b]), lambda a, b: nary_bracket([a, b, a]))
        for op in (star, succ, *brackets):
            reference = op(fx, fy)
            assert all_fractions(reference)
            assert_same(op(x, y), reference, format_element)

    @settings(max_examples=60, deadline=None)
    @given(elements, st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4)))
    def test_coproducts(self, x, unit):
        fx = as_fractions(x)
        assert_same(coproduct(x), coproduct(fx), format_tensor)
        u = UnitalElement(unit, x)
        fu = as_fractions(u)
        assert all_fractions(fu)
        assert_same(u, fu, format_unital_element)
        assert_same(unital_coproduct(u), unital_coproduct(fu), format_tensor)

    @given(integral_elements, integral_elements)
    def test_integral_inputs_stay_int_in_the_core(self, x, y):
        for result in (star(x, y), succ(x, y), coproduct(x), unital_coproduct(UnitalElement(2, y))):
            assert all(type(c) is int for c in result._terms.values())


class TestAccessorsReturnFractions:
    def test_coefficient_present_and_absent(self):
        x = E("2*| | - [|,|]")
        assert x.coefficient(parse_forest("| |")) == 2
        for key in (parse_forest("| |"), parse_forest("[|,|]"), parse_forest("|")):
            assert type(x.coefficient(key)) is Fraction
        assert x.coefficient(parse_forest("|")) == 0

    def test_sorted_terms(self):
        for x in (E("2*| | - [|,|]"), succ(E("| |"), E("|")), coproduct(E("| [|,|]"))):
            assert x.sorted_terms()
            assert all(type(c) is Fraction for _, c in x.sorted_terms())

    def test_unit(self):
        for unit in (0, 1, -3, Fraction(1, 2)):
            assert type(UnitalElement(unit, E("|")).unit) is Fraction

    def test_primitives_and_pbw_elements(self):
        elems = primitive_basis(5)
        elems += [tree_to_primitive(t) for t in enumerate_trees(4)]
        elems += [pbw_basis_element(f) for f in enumerate_forests(4)]
        for x in elems:
            assert x.terms()
            assert all(type(c) is Fraction for c in x.terms().values())

    def test_matrix_entries_and_rows(self):
        m = linalg.RatMatrix(2, 3, {(0, 0): 1, (0, 2): Fraction(1, 2), (1, 1): -2})
        assert all(type(m.entry(i, j)) is Fraction for i in range(2) for j in range(3))
        assert all(type(c) is Fraction for i in range(2) for c in m.row(i).values())
        assert m.row(1) == {1: -2}


class TestIntegralValuesStoredAsInt:
    """An integral coefficient given or parsed as a Fraction is stored as
    an int; a sum of Fractions that cancels to an integer stays one."""

    def test_given_and_parsed(self):
        f = parse_forest("|")
        for x in (Element([(f, Fraction(2, 1))]), E("4/2*|"), E("-6/3*|"), Element([(f, 1)]).scaled(Fraction(3, 1))):
            assert [type(c) for c in x._terms.values()] == [int]
        assert type(UnitalElement(Fraction(5, 5), E("|"))._terms[None]) is int
        assert type(linalg.RatMatrix(1, 1, {(0, 0): Fraction(4, 2)})._rows[0][0]) is int
        assert E("4/2*|") == E("2*|") and format_element(E("4/2*|")) == "2*|"

    def test_fractions_stay_fractions(self):
        assert [type(c) for c in E("1/2*| + 3/4*[|,|]")._terms.values()] == [Fraction, Fraction]
        cancelled = E("1/2*|") + E("1/2*|")
        assert cancelled == E("|")
        assert [type(c) for c in cancelled._terms.values()] == [Fraction]


class TestIntKernelPath:
    """``primitive_basis`` keeps the elimination's int entries; the public
    ``kernel_rows`` is the same vectors with Fraction entries."""

    @pytest.mark.parametrize("alphabet, max_degree", [(1, 7), (2, 4)])
    def test_int_vectors_match_kernel_rows(self, alphabet, max_degree):
        for n in range(1, max_degree + 1):
            matrix, forests, _ = coproduct_matrix(n, alphabet)
            vectors, rows = linalg._kernel_vectors(matrix), linalg.kernel_rows(matrix)
            assert vectors == rows
            assert all(type(c) is Fraction for row in rows for c in row.values())
            basis = primitive_basis(n, alphabet)
            assert basis == [Element({forests[j]: c for j, c in row.items()}) for row in rows]

    def test_every_entry_is_an_int_unit_up_to_degree_7(self):
        # an observation, not a claim of the paper: a change of forest
        # order or of pivot rule shows here first
        for n in range(1, 8):
            entries = {(type(c), c) for x in primitive_basis(n) for c in x._terms.values()}
            assert entries == ({(int, 1)} if n == 1 else {(int, 1), (int, -1)}), n
