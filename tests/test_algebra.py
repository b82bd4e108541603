import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hochalg.algebra import (
    Element,
    _format_terms,
    add,
    format_element,
    generator,
    nary_bracket,
    parse_element,
    pbw_basis_element,
    scale,
    star,
    succ,
    succ_basis,
    tree_to_primitive,
)
from hochalg.coalgebra import coproduct
from hochalg.trees import Forest, ParseError, enumerate_forests, enumerate_trees, parse_forest, parse_tree

E = parse_element


def forests_upto(n):
    return [f for k in range(1, n + 1) for f in enumerate_forests(k)]


def basis_triples(total_degree):
    for a in range(1, total_degree - 1):
        for b in range(1, total_degree - a):
            for c in range(1, total_degree - a - b + 1):
                yield from itertools.product(
                    enumerate_forests(a), enumerate_forests(b), enumerate_forests(c)
                )


small_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_elements = st.builds(
    Element,
    st.lists(st.tuples(st.sampled_from(forests_upto(3)), small_coeff), min_size=0, max_size=3),
)


class TestVectorSpace:
    def test_add_zero(self):
        x = E("3/2*[|,|] - | |")
        assert add(x, Element.zero()) == x

    def test_scale_zero(self):
        assert scale(0, E("| |")) == Element.zero()

    def test_additive_inverse(self):
        x = E("2*| - 5/3*[|,|]")
        assert add(x, scale(-1, x)) == Element.zero()

    def test_no_zero_coefficients_stored(self):
        x = E("| |") - E("| |")
        assert x.terms() == {}
        assert x.is_zero

    def test_equality_is_canonical(self):
        assert E("| + |") == E("2*|")
        assert E("1/2*| + 1/2*|") == E("|")

    @given(small_elements, small_elements)
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    def test_self_difference_has_no_terms(self):
        x = E("2*| - 5/3*[|,|] + | [|,|]")
        assert (x - x).terms() == {}

    def test_product_coefficients_are_fractions(self):
        x, y = E("2*| + 3*[|,|]"), E("-1*| | + 4*|")
        for result in (star(x, y), succ(x, y), succ_basis(parse_forest("| |"), parse_forest("[|,|]"))):
            assert result.terms()
            assert all(type(c) is Fraction for c in result.terms().values())

    def test_operators(self):
        x, y = E("|"), E("[|,|]")
        assert x * y == star(x, y)
        assert 3 * x == scale(3, x)
        assert x - x == Element.zero()
        assert -x == scale(-1, x)


class TestStar:
    def test_leaf_concatenation(self):
        assert star(E("|"), E("|")) == E("| |")

    def test_word_concatenation(self):
        assert star(E("| |"), E("[|,|]")) == E("| | [|,|]")

    def test_degree_additive(self):
        for f, g in itertools.product(forests_upto(3), repeat=2):
            prod = star(Element.from_forest(f), Element.from_forest(g))
            assert prod.degrees() == {f.degree + g.degree}

    def test_associative_all_triples_of_total_degree_six(self):
        count = 0
        for f, g, h in basis_triples(6):
            x, y, z = map(Element.from_forest, (f, g, h))
            assert star(star(x, y), z) == star(x, star(y, z))
            count += 1
        assert count == 183

    def test_associative_500_seeded_random_triples(self):
        import random

        from hochalg.verify import RANDOM_SEED, random_element

        rng = random.Random(RANDOM_SEED)
        for _ in range(500):
            x, y, z = (random_element(rng) for _ in range(3))
            assert star(star(x, y), z) == star(x, star(y, z))

    @settings(max_examples=60)
    @given(small_elements, small_elements, small_elements)
    def test_associative_random(self, x, y, z):
        assert star(star(x, y), z) == star(x, star(y, z))


class TestSucc:
    def test_worked_product_one(self):
        got = succ(E("| | |"), E("|"))
        assert got == E("| | [|,|] + | [|,|,|] + [|,|,|,|]")
        assert format_element(got) == "| | [|,|] + | [|,|,|] + [|,|,|,|]"

    def test_worked_product_two(self):
        got = succ(E("|"), E("| [|,|]"))
        assert got == E("[|,|] [|,|] + [|,|,[|,|]]")
        assert format_element(got) == "[|,|] [|,|] + [|,|,[|,|]]"

    def test_single_pair(self):
        assert succ(E("|"), E("|")) == E("[|,|]")

    def test_bilinearity(self):
        assert succ(Element.zero(), E("| |")) == Element.zero()
        assert succ(scale(2, E("|")), E("|")) == E("2*[|,|]")
        assert succ(E("|"), E("| + [|,|]")) == E("[|,|] + [|,[|,|]]")

    def test_term_count_and_unit_coefficients(self):
        for f, g in itertools.product(forests_upto(3), repeat=2):
            result = succ_basis(f, g)
            assert len(result.terms()) == len(f.trees) * len(g.trees)
            assert set(result.terms().values()) == {Fraction(1)}

    def test_magmatic_not_associative(self):
        bar = E("|")
        left = succ(succ(bar, bar), bar)
        right = succ(bar, succ(bar, bar))
        assert left == E("[[|,|],|]")
        assert right == E("[|,[|,|]]")
        assert left != right

    def test_degree_additive(self):
        for f, g in itertools.product(forests_upto(3), repeat=2):
            result = succ(Element.from_forest(f), Element.from_forest(g))
            assert result.degrees() == {f.degree + g.degree}


def cocycle_holds(x, y, z):
    return star(succ(x, y), z) + succ(star(x, y), z) == succ(x, star(y, z)) + star(x, succ(y, z))


class TestTwoCocycle:
    def test_all_triples_of_total_degree_six(self):
        for f, g, h in basis_triples(6):
            assert cocycle_holds(*map(Element.from_forest, (f, g, h)))

    def test_500_seeded_random_triples(self):
        import random

        from hochalg.verify import RANDOM_SEED, random_element

        rng = random.Random(RANDOM_SEED)
        for _ in range(500):
            assert cocycle_holds(random_element(rng), random_element(rng), random_element(rng))

    @settings(max_examples=60)
    @given(small_elements, small_elements, small_elements)
    def test_random_elements(self, x, y, z):
        assert cocycle_holds(x, y, z)


class TestRewriting:
    def test_every_tree_rewrites_through_the_products(self):
        # t = (t1 * (t2 ... t_{m-1})) succ tm - t1 * ((t2 ... t_{m-1}) succ tm)
        for n in range(2, 7):
            for t in enumerate_trees(n):
                cs = t.children
                as_elem = Element.from_tree(t)
                if len(cs) == 2:
                    rebuilt = succ(Element.from_tree(cs[0]), Element.from_tree(cs[1]))
                else:
                    head = Element.from_forest(Forest(cs[:-1]))
                    inner = Element.from_forest(Forest(cs[1:-1]))
                    last = Element.from_tree(cs[-1])
                    rebuilt = succ(head, last) - star(Element.from_tree(cs[0]), succ(inner, last))
                assert rebuilt == as_elem


class TestBracket:
    def test_binary(self):
        got = nary_bracket([generator(), generator()])
        assert got == E("[|,|] - | |")
        assert coproduct(got).is_zero

    def test_ternary_collapses_to_corolla(self):
        assert nary_bracket([generator()] * 3) == E("[|,|,|]")

    def test_quaternary_collapses_to_corolla(self):
        assert nary_bracket([generator()] * 4) == E("[|,|,|,|]")

    def test_arity_error(self):
        with pytest.raises(ValueError):
            nary_bracket([generator()])

    def test_multilinear_in_each_slot(self):
        x, y = E("|"), E("[|,|]")
        lhs = nary_bracket([x + y, x, x])
        assert lhs == nary_bracket([x, x, x]) + nary_bracket([y, x, x])


class TestTreeToPrimitive:
    def test_leaf(self):
        assert tree_to_primitive(parse_tree("|")) == E("|")

    def test_corolla(self):
        assert tree_to_primitive(parse_tree("[|,|]")) == E("[|,|] - | |")

    def test_nested_example(self):
        got = tree_to_primitive(parse_tree("[|,[|,|]]"))
        assert got == E("[|,[|,|]] - [|,|] | - [|,|,|] - | [|,|] + | | |")
        assert coproduct(got).is_zero

    def test_homogeneous_and_primitive(self):
        for n in range(1, 6):
            for t in enumerate_trees(n):
                p = tree_to_primitive(t)
                assert p.degrees() == {n}
                assert coproduct(p).is_zero


class TestPbwBasis:
    def test_leaf_word_unchanged(self):
        assert pbw_basis_element(parse_forest("| |")) == E("| |")

    def test_single_tree(self):
        assert pbw_basis_element(parse_forest("[|,|]")) == E("[|,|] - | |")

    def test_product_example(self):
        assert pbw_basis_element(parse_forest("[|,|] |")) == E("[|,|] | - | | |")

    def test_triangular_in_canonical_order(self):
        for n in range(1, 7):
            for f in enumerate_forests(n):
                x = pbw_basis_element(f)
                assert x.coefficient(f) == 1
                key = f.sort_key()
                assert all(g.sort_key() < key for g in x.support() if g != f)

    def test_change_of_basis_invertible(self):
        from hochalg import linalg
        from hochalg.verify import pbw_matrix

        for n in range(1, 7):
            assert linalg.is_invertible(pbw_matrix(n))

    def test_unitriangular_check_can_fail(self):
        from hochalg import linalg
        from hochalg.verify import _unitriangular, pbw_matrix

        m = pbw_matrix(4)
        assert _unitriangular(m)
        entries = {(i, j): m.entry(i, j) for i in range(m.nrows) for j in m.row(i)}
        below = dict(entries)
        below[(5, 2)] = Fraction(1)
        assert not _unitriangular(linalg.RatMatrix(m.nrows, m.ncols, below))
        scaled = dict(entries)
        scaled[(3, 3)] = Fraction(2)
        assert not _unitriangular(linalg.RatMatrix(m.nrows, m.ncols, scaled))


class TestElementTextForm:
    def test_parse_example(self):
        x = E("3/2*[|,|] - | |")
        assert x.coefficient(parse_forest("[|,|]")) == Fraction(3, 2)
        assert x.coefficient(parse_forest("| |")) == -1

    def test_format_sorts_canonically(self):
        assert format_element(E("[|,|] - | |")) == "-| | + [|,|]"

    def test_zero(self):
        assert format_element(Element.zero()) == "0"
        assert E("0") == Element.zero()
        assert E("| - |") == Element.zero()

    def test_roundtrip_exhaustive_basis(self):
        for f in forests_upto(4):
            x = Element.from_forest(f, Fraction(-7, 3))
            assert parse_element(format_element(x)) == x

    @given(small_elements)
    def test_roundtrip_random(self, x):
        assert parse_element(format_element(x)) == x

    def test_errors(self):
        for bad in ["3*", "3/0*|", "| +", "+", "1", "2", "* |", "3 |"]:
            with pytest.raises(ParseError):
                parse_element(bad)

    def test_alphabet_bound(self):
        with pytest.raises(ParseError):
            parse_element("|5", alphabet_size=2)
        assert parse_element("|1", alphabet_size=2) == Element.from_forest(parse_forest("|1"))


def reference_format_terms(pairs):
    """The term formatter as first written: abs, comparisons and str on
    the coefficient."""
    if not pairs:
        return "0"
    chunks = []
    for idx, (basis_text, c) in enumerate(pairs):
        mag = abs(c)
        body = basis_text if mag == 1 else f"{mag}*{basis_text}"
        if idx == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


nonzero_ints = st.integers(-10**20, 10**20).filter(bool)
coefficients = st.one_of(
    nonzero_ints,
    st.builds(Fraction, nonzero_ints, st.integers(1, 10**6)),
    st.builds(lambda k: Fraction(k, 1), nonzero_ints),
)
basis_texts = st.sampled_from(["|", "| |", "[|,|]", "|1 [|,[|,|2]]", "1", "1 (x) [|,|] |"])


class TestFormatTerms:
    """_format_terms reads the numerator and denominator; the reference
    keeps the abs/str(Fraction) formula."""

    @given(st.lists(st.tuples(basis_texts, coefficients), max_size=6))
    def test_against_reference(self, pairs):
        assert _format_terms(pairs) == reference_format_terms(pairs)

    def test_examples(self):
        pairs = [("|", 1), ("| |", -1), ("[|,|]", Fraction(3, 1)), ("|1", Fraction(-7, 2)), ("|2", -12)]
        assert _format_terms(pairs) == "| - | | + 3*[|,|] - 7/2*|1 - 12*|2"
        assert _format_terms([("|", Fraction(-1))]) == "-|"
        assert _format_terms([]) == "0"
