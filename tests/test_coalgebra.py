import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hochalg.algebra import Element, nary_bracket, parse_element, scale, star, succ
from hochalg.coalgebra import (
    ONE,
    CoproductEngine,
    TensorElement,
    UnitalElement,
    apply_coproduct_at,
    check_compatibility,
    check_unital_compatibility,
    coproduct,
    coproduct_basis,
    coproduct_matrix,
    filtration_level,
    format_tensor,
    format_unital_element,
    is_primitive,
    iterated_coproduct,
    parse_unital_element,
    primitive_basis,
    tensor_of_elements,
    unital_coproduct,
    unital_ops,
    unital_star,
    unital_succ,
)
from hochalg.trees import Forest, enumerate_forests, parse_forest
from hochalg.verify import _basis_tuples, _unital_basis, run_suites

E = parse_element
F = parse_forest


def forests_upto(n):
    return [f for k in range(1, n + 1) for f in enumerate_forests(k)]


small_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_elements = st.builds(
    Element,
    st.lists(st.tuples(st.sampled_from(forests_upto(3)), small_coeff), min_size=0, max_size=3),
)


class TestCoproductValues:
    def test_leaf_is_primitive(self):
        assert coproduct(E("|")).is_zero

    def test_two_leaf_word(self):
        assert coproduct(E("| |")) == tensor_of_elements(E("|"), E("|"))

    def test_corolla(self):
        assert coproduct(E("[|,|]")) == tensor_of_elements(E("|"), E("|"))

    def test_three_corolla_vanishes(self):
        assert coproduct(E("[|,|,|]")).is_zero

    def test_primitive_combination(self):
        assert coproduct(E("[|,|] - | |")).is_zero

    def test_linearity(self):
        assert coproduct(Element.zero()).is_zero
        assert coproduct(E("2*| |")) == tensor_of_elements(E("|"), E("|")).scaled(2)
        x, y = E("| |"), E("[|,[|,|]]")
        assert coproduct(x + y) == coproduct(x) + coproduct(y)

    def test_three_leaf_word(self):
        expected = tensor_of_elements(E("| |"), E("|")) + tensor_of_elements(E("|"), E("| |"))
        assert coproduct(E("| | |")) == expected

    def test_grading_of_slots(self):
        for n in range(2, 6):
            for f in enumerate_forests(n):
                for (a, b), _ in coproduct_basis(f).terms().items():
                    assert a.degree >= 1 and b.degree >= 1
                    assert a.degree + b.degree == n


class TestIteratedCoproduct:
    def test_three_leaf_word_twice(self):
        got = iterated_coproduct(E("| | |"), 2)
        assert got == tensor_of_elements(E("|"), E("|"), E("|"))

    def test_two_leaf_word_twice(self):
        assert iterated_coproduct(E("| |"), 2).is_zero

    def test_degree_kills_every_basis_forest(self):
        for n in range(1, 6):
            for f in enumerate_forests(n):
                assert iterated_coproduct(Element.from_forest(f), n).is_zero

    def test_arity(self):
        assert iterated_coproduct(E("| | | |"), 3).arity == 4

    def test_arity_after_the_tensor_vanishes(self):
        assert iterated_coproduct(E("| |"), 50).arity == 51

    def test_invalid_iteration(self):
        with pytest.raises(ValueError):
            iterated_coproduct(E("|"), 0)


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive(E("|"))
        assert not is_primitive(E("[|,|]"))
        assert is_primitive(E("[|,|] - | |"))

    def test_zero_is_primitive(self):
        assert is_primitive(Element.zero())


class TestFiltration:
    def test_levels_of_leaf_words(self):
        assert filtration_level(E("|")) == 1
        assert filtration_level(E("| |")) == 2
        assert filtration_level(E("| | |")) == 3

    def test_zero_marker(self):
        assert filtration_level(Element.zero()) == 0

    def test_connectedness(self):
        for n in range(1, 6):
            for f in enumerate_forests(n):
                assert 1 <= filtration_level(Element.from_forest(f)) <= n

    def test_filtration_is_increasing(self):
        for text in ("| | - 2*[|,|]", "| [|,|] + [|,|,|]", "| | | |"):
            x = E(text)
            level = filtration_level(x)
            assert iterated_coproduct(x, level).is_zero
            assert iterated_coproduct(x, level + 1).is_zero


def reference_filtration_level(x):
    """The least r with D^r(x) = 0, applying the coproduct to the first
    slot until the tensor vanishes."""
    if x.is_zero:
        return 0
    level, acc = 1, coproduct(x)
    while not acc.is_zero:
        level, acc = level + 1, apply_coproduct_at(acc, 0)
    return level


def random_sums(count, seed):
    """Seeded sums of forests of mixed degrees, with repeated forests so
    that some terms collect or cancel."""
    rng = random.Random(seed)
    pool = forests_upto(5)
    for _ in range(count):
        size = rng.randint(1, 5)
        yield Element([(rng.choice(pool), Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(size)])


class TestFiltrationAgainstIteratedCoproducts:
    """filtration_level reads the level from the left factors of one
    coproduct; the reference iterates the coproduct on the first slot."""

    @pytest.mark.parametrize("max_degree, alphabet_size", [(6, 1), (4, 2)])
    def test_every_forest(self, max_degree, alphabet_size):
        for n in range(1, max_degree + 1):
            for f in enumerate_forests(n, alphabet_size):
                x = Element.from_forest(f)
                assert filtration_level(x) == reference_filtration_level(x), f

    def test_random_sums(self):
        for x in random_sums(200, seed=20081):
            assert filtration_level(x) == reference_filtration_level(x), x

    def test_builds_no_tensor_of_arity_above_two(self, monkeypatch):
        xs = [Element.from_forest(f) for f in forests_upto(5)]
        expected = [reference_filtration_level(x) for x in xs]

        def refuse(*args, **kwargs):
            raise AssertionError("filtration_level iterated the coproduct")

        of = TensorElement._of.__func__

        def at_most_two(cls, terms, arity):
            assert arity <= 2
            return of(cls, terms, arity)

        monkeypatch.setattr("hochalg.coalgebra.apply_coproduct_at", refuse)
        monkeypatch.setattr("hochalg.coalgebra.iterated_coproduct", refuse)
        monkeypatch.setattr(TensorElement, "_of", classmethod(at_most_two))
        assert [filtration_level(x, CoproductEngine()) for x in xs] == expected


class TestFiltrationScaling:
    """filtration_level scales x by the lcm of its denominators, so the
    level of c x is that of x and the memo keys hold ints."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(forests_upto(4)), st.fractions().filter(bool)),
            min_size=1,
            max_size=4,
        ),
        st.fractions().filter(bool),
    )
    def test_level_unchanged_by_scaling(self, terms, c):
        x = Element(terms)
        level = filtration_level(x)
        assert filtration_level(x.scaled(c)) == level
        m = math.lcm(*[v.denominator for v in x.terms().values()])
        assert filtration_level(x.scaled(m)) == level
        assert level == reference_filtration_level(x)

    def test_memo_keys_hold_ints(self):
        engine = CoproductEngine()
        seen = []
        coproduct = engine.coproduct

        def spy(x):
            seen.extend(type(c) for c in x._terms.values())
            return coproduct(x)

        engine.coproduct = spy
        for x in random_sums(50, seed=7):
            assert filtration_level(x, engine) == reference_filtration_level(x)
        assert seen and set(seen) == {int}


class TestPrimitiveBasis:
    def test_degree_one(self):
        assert primitive_basis(1) == [E("|")]

    def test_degree_two_spans_the_stated_line(self):
        basis = primitive_basis(2)
        assert len(basis) == 1
        assert basis[0] in (E("| | - [|,|]"), E("[|,|] - | |"))
        assert scale(-1, basis[0]) in (E("| | - [|,|]"), E("[|,|] - | |"))

    def test_dimensions_match_little_schroeder(self):
        assert [len(primitive_basis(n)) for n in range(1, 5)] == [1, 1, 3, 11]

    def test_members_are_primitive_and_homogeneous(self):
        for n in range(1, 5):
            for p in primitive_basis(n):
                assert coproduct(p).is_zero
                assert p.degrees() == {n}

    def test_rref_normalization(self):
        # each pivot coefficient 1, pivot columns distinct and increasing,
        # and zero in every earlier vector's pivot column
        for n in range(2, 5):
            forests = enumerate_forests(n)
            basis = primitive_basis(n)
            pivots = []
            for p in basis:
                coords = [p.coefficient(f) for f in forests]
                pivot = next(i for i, c in enumerate(coords) if c)
                assert coords[pivot] == 1
                pivots.append(pivot)
            assert pivots == sorted(pivots)
            for i, p in enumerate(basis):
                for j, q in enumerate(basis):
                    if i != j:
                        assert q.coefficient(forests[pivots[i]]) == 0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            primitive_basis(0)

    def test_multi_generator_bracket_is_primitive(self):
        x, y = E("|0"), E("|1")
        assert is_primitive(nary_bracket([x, y]))
        assert is_primitive(nary_bracket([x, y, x]))

    def test_coproduct_matrix_shape(self):
        matrix, forests, keys = coproduct_matrix(2)
        assert matrix.nrows == 1 and matrix.ncols == 2
        assert [str(f) for f in forests] == ["| |", "[|,|]"]


class TestCoassociativity:
    def test_exhaustive(self):
        engine = CoproductEngine()
        for n in range(1, 6):
            for f in enumerate_forests(n):
                d = engine.coproduct_basis(f)
                assert apply_coproduct_at(d, 0) == apply_coproduct_at(d, 1)

    @settings(max_examples=40)
    @given(small_elements)
    def test_random_elements(self, x):
        d = coproduct(x)
        assert apply_coproduct_at(d, 0) == apply_coproduct_at(d, 1)


class TestCompatibility:
    def test_examples(self):
        assert check_compatibility(E("|"), E("|"), "succ")
        assert check_compatibility(E("| |"), E("[|,|]"), "star")

    def test_exhaustive_pairs(self):
        for which in ("star", "succ"):
            for f, g in itertools.product(forests_upto(2), repeat=2):
                assert check_compatibility(
                    Element.from_forest(f), Element.from_forest(g), which
                )

    @settings(max_examples=30)
    @given(small_elements, small_elements, st.sampled_from(["star", "succ"]))
    def test_random_elements(self, x, y, which):
        assert check_compatibility(x, y, which)

    def test_symbol_aliases(self):
        assert check_compatibility(E("|"), E("|"), "*")
        assert check_compatibility(E("|"), E("|"), ">")
        with pytest.raises(ValueError):
            check_compatibility(E("|"), E("|"), "plus")


class TestDeconcatenationOfPrimitives:
    def test_products_of_primitives(self):
        bases = {n: primitive_basis(n) for n in range(1, 4)}
        picks = [
            [bases[1][0], bases[1][0]],
            [bases[1][0], bases[2][0]],
            [bases[2][0], bases[2][0]],
            [bases[1][0], bases[1][0], bases[1][0]],
            [bases[3][1], bases[1][0]],
            [bases[1][0], bases[1][0], bases[1][0], bases[1][0]],
        ]
        for ps in picks:
            word = ps[0]
            for p in ps[1:]:
                word = star(word, p)
            expected = TensorElement.zero(2)
            for i in range(1, len(ps)):
                left = ps[0]
                for p in ps[1:i]:
                    left = star(left, p)
                right = ps[i]
                for p in ps[i + 1:]:
                    right = star(right, p)
                expected = expected + tensor_of_elements(left, right)
            assert coproduct(word) == expected


class _ElementRecursion:
    """An independent reference for CoproductEngine: the same coproduct by
    an element-level recursion.  Every piece is an Element, products go
    through star and succ, and a node [c1, ..., cm] with m >= 3 runs two
    rules, as (c1 ... c_{m-1}) succ cm - c1 * ((c2 ... c_{m-1}) succ cm)."""

    def __init__(self, cross_sign):
        self.cross_sign = cross_sign
        self.memo = {}

    def rule(self, x, y, op):
        left = self.coproduct(x).map_slot(1, lambda b: op(Element.from_forest(b), y).terms().items())
        right = self.coproduct(y).map_slot(0, lambda a: op(x, Element.from_forest(a)).terms().items())
        return left + right + tensor_of_elements(x, y).scaled(self.cross_sign)

    def coproduct(self, x):
        acc = TensorElement.zero(2)
        for f, c in x.terms().items():
            acc = acc + self.basis(f).scaled(c)
        return acc

    def basis(self, f):
        if f not in self.memo:
            self.memo[f] = self._expand(f.trees)
        return self.memo[f]

    def _expand(self, ts):
        if len(ts) > 1:
            return self.rule(Element.from_tree(ts[0]), Element.from_forest(Forest(ts[1:])), star)
        if ts[0].is_leaf:
            return TensorElement.zero(2)
        cs = ts[0].children
        last = Element.from_tree(cs[-1])
        if len(cs) == 2:
            return self.rule(Element.from_tree(cs[0]), last, succ)
        inner = succ(Element.from_forest(Forest(cs[1:-1])), last)
        return self.rule(Element.from_forest(Forest(cs[:-1])), last, succ) - self.rule(
            Element.from_tree(cs[0]), inner, star
        )


class TestEngine:
    def test_concurrent_sweep_matches_sequential(self):
        # the coproduct caches behave as caches of a pure function
        import concurrent.futures

        shared = CoproductEngine()
        forests = [f for n in range(1, 6) for f in enumerate_forests(n)]
        expected = [CoproductEngine().coproduct_basis(f) for f in forests]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(shared.coproduct_basis, forests))
        assert results == expected

    @pytest.mark.parametrize("cross_sign", [1, 0, -1])
    @pytest.mark.parametrize("max_degree, alphabet_size", [(6, 1), (4, 2)])
    def test_forest_recursion_matches_element_recursion(self, cross_sign, max_degree, alphabet_size):
        engine = CoproductEngine(cross_sign)
        reference = _ElementRecursion(cross_sign)
        for n in range(1, max_degree + 1):
            for f in enumerate_forests(n, alphabet_size):
                assert engine.coproduct_basis(f) == reference.basis(f), f

    def test_flipped_sign_negates_everything(self):
        flipped = CoproductEngine(cross_sign=-1)
        normal = CoproductEngine()
        for n in range(1, 5):
            for f in enumerate_forests(n):
                assert flipped.coproduct_basis(f) == -normal.coproduct_basis(f)

    def test_dropped_cross_term_is_zero(self):
        dropped = CoproductEngine(cross_sign=0)
        for n in range(1, 5):
            for f in enumerate_forests(n):
                assert dropped.coproduct_basis(f) == TensorElement.zero(2)

    def test_flipped_sign_breaks_compatibility(self):
        flipped = CoproductEngine(cross_sign=-1)
        assert not check_compatibility(E("|"), E("|"), "star", flipped)

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            CoproductEngine(cross_sign=2)

    def test_run_suites_passes_the_given_engine(self):
        # a broken engine must reach every suite that reads a coproduct,
        # and must leave the shared default engine untouched
        names = ["compat", "primdims", "brackets", "unital"]

        def failing_suites(engine):
            return {r.suite for r in run_suites(names, max_degree=3, engine=engine) if not r.passed}

        assert failing_suites(CoproductEngine(cross_sign=0)) == set(names)
        assert failing_suites(CoproductEngine(cross_sign=-1)) == {"compat", "brackets", "unital"}
        assert failing_suites(None) == set()
        assert coproduct(E("| |")) == tensor_of_elements(E("|"), E("|"))

    @pytest.mark.parametrize("max_degree", range(1, 6))
    def test_unital_pairs_match_the_full_pair_scan(self, max_degree):
        # the degree-bucketed sweep of the unital suite against the scan
        # over all pairs of the (degree, element) list that it replaced
        basis = [(0, ONE)] + [
            (n, UnitalElement.from_element(Element.from_forest(f)))
            for n in range(1, max_degree + 1)
            for f in enumerate_forests(n)
        ]
        scanned = Counter((x, y) for dx, x in basis for dy, y in basis if dx + dy <= max_degree)
        swept = Counter(_basis_tuples(max_degree, 2, _unital_basis, lowest=0))
        assert swept == scanned


class TestTensorElement:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            TensorElement(0)
        with pytest.raises(ValueError):
            TensorElement(2, {(F("|"),): 1})

    def test_normalization(self):
        t = TensorElement(2, [((F("|"), F("|")), 1), ((F("|"), F("|")), -1)])
        assert t.is_zero

    def test_format(self):
        t = tensor_of_elements(E("| |"), E("|")) + tensor_of_elements(E("|"), E("| |"))
        assert format_tensor(t) == "| (x) | | + | | (x) |"
        assert format_tensor(TensorElement.zero(2)) == "0"

    def test_scaled_format_has_coefficient(self):
        t = tensor_of_elements(E("|"), E("|")).scaled(Fraction(3, 2))
        assert format_tensor(t) == "3/2*| (x) |"

    def test_self_difference_has_no_terms(self):
        t = coproduct(E("2*| | | - 1/3*[|,|,|] |"))
        assert t.terms()
        assert (t - t).terms() == {}

    def test_spaces_differ(self):
        assert Element.zero() != TensorElement.zero(2)
        assert TensorElement.zero(2) != TensorElement.zero(3)

    def test_coproduct_coefficients_are_fractions(self):
        t = coproduct(E("2*| | | + 3*[|,[|,|]] |"))
        assert t.terms()
        assert all(type(c) is Fraction for c in t.terms().values())


class TestUnital:
    def test_coproduct_of_one(self):
        assert unital_coproduct(ONE) == TensorElement(2, {(None, None): 1})

    def test_coproduct_of_generator(self):
        got = unital_coproduct(UnitalElement.from_element(E("|")))
        assert got == TensorElement(2, {(None, F("|")): 1, (F("|"), None): 1})
        assert format_tensor(got) == "1 (x) | + | (x) 1"

    def test_coproduct_of_two_leaf_word(self):
        got = unital_coproduct(parse_unital_element("| |"))
        expected = TensorElement(
            2, {(None, F("| |")): 1, (F("| |"), None): 1, (F("|"), F("|")): 1}
        )
        assert got == expected

    def test_unit_laws(self):
        x = UnitalElement.from_element(E("[|,|]"))
        assert unital_succ(ONE, x) == x
        assert unital_succ(x, ONE) == x
        assert unital_star(ONE, ONE) == ONE
        assert unital_ops(ONE, ONE, "succ") == ONE

    def test_mixed_product(self):
        one_plus_bar = parse_unital_element("1 + |")
        got = unital_star(one_plus_bar, UnitalElement.from_element(E("|")))
        assert got == parse_unital_element("| + | |")

    def test_minus_sign_relations_exhaustive(self):
        basis = [ONE] + [
            UnitalElement.from_element(Element.from_forest(f)) for f in forests_upto(3)
        ]
        for which in ("star", "succ"):
            for x, y in itertools.product(basis, repeat=2):
                if x.body.max_degree() + y.body.max_degree() <= 3:
                    assert check_unital_compatibility(x, y, which)

    def test_delta_restricts_to_nonunital_coproduct(self):
        # removing 1 (x) x + x (x) 1 from d(x) leaves D(x) on the ideal
        for f in forests_upto(4):
            x = Element.from_forest(f)
            d = unital_coproduct(UnitalElement.from_element(x))
            stripped = TensorElement(
                2, {k: c for k, c in d.terms().items() if None not in k}
            )
            assert stripped == coproduct(x)

    def test_unital_text_roundtrip(self):
        for text in ("1", "2*1 - 3/2*[|,|]", "-1 + | |", "0"):
            u = parse_unital_element(text)
            assert parse_unital_element(format_unital_element(u)) == u

    def test_self_difference_has_no_terms(self):
        u = parse_unital_element("2*1 - 3/2*[|,|] + | |")
        assert (u - u).unit == 0
        assert (u - u).body.terms() == {}
        assert (u - u).is_zero

    def test_constructor_matches_parser(self):
        u = UnitalElement(1, E("|"))
        assert u == parse_unital_element("1 + |")
        assert hash(u) == hash(parse_unital_element("1 + |"))

    def test_coefficients_are_fractions(self):
        x = UnitalElement(2, E("3*| | - [|,|]"))
        y = UnitalElement(1, E("4*|"))
        for u in (unital_star(x, y), unital_succ(x, y)):
            assert u.body.terms()
            assert all(type(c) is Fraction for c in [u.unit, *u.body.terms().values()])
        assert all(type(c) is Fraction for c in unital_coproduct(x).terms().values())
        for u in (x, ONE, UnitalElement.from_element(E("|")), UnitalElement.one(3)):
            assert type(u.unit) is Fraction

    def test_nonunital_coproduct_rejects_unit_slot(self):
        with pytest.raises(ValueError):
            apply_coproduct_at(unital_coproduct(ONE), 0)

    def test_format_examples(self):
        assert format_unital_element(ONE) == "1"
        assert format_unital_element(parse_unital_element("2*1 + |")) == "2*1 + |"
        assert format_unital_element(UnitalElement(Fraction(0), Element.zero())) == "0"


class TestUnitalSuite:
    def test_basis_coproducts_computed_once_products_afresh(self, monkeypatch):
        from hochalg import verify

        calls = Counter()

        def counting(x, engine=None):
            calls[x] += 1
            return unital_coproduct(x, engine)

        monkeypatch.setattr(verify, "unital_coproduct", counting)
        results = verify.suite_unital(4)
        assert all(r.passed for r in results)
        labels = [r.name for r in results if "rule on" in r.name]
        assert labels == [
            f"minus-sign {w} rule on 84 unital basis pairs, total degree <= 4" for w in ("star", "succ")
        ]
        basis = [u for n in range(5) for u in _unital_basis(n)]
        # the two pinned values, each basis element once, each product once
        assert sum(calls.values()) == 2 + len(basis) + 2 * 84


def _reference_collect(pairs):
    """Sum (key, coefficient) pairs and drop the zero sums."""
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def reference_apply_coproduct_at(t, index, engine):
    """The coproduct on one slot, as a loop over the tensor's terms."""
    return TensorElement(
        t.arity + 1,
        _reference_collect(
            (key[:index] + inner + key[index + 1:], c * d)
            for key, c in t.terms().items()
            for inner, d in engine.coproduct_basis(key[index]).terms().items()
        ),
    )


def reference_coproduct(x, engine):
    """The linear extension of coproduct_basis, as a loop over x's terms."""
    return TensorElement(
        2,
        _reference_collect(
            (key, c * d) for f, c in x.terms().items() for key, d in engine.coproduct_basis(f).terms().items()
        ),
    )


class TestLinearExtensions:
    """The linear extensions of the coproduct against loops written out
    here: coassociativity compares two calls of the same code, so it
    cannot see a fault that both share."""

    def test_coproduct_and_apply_at_every_forest(self):
        engine = CoproductEngine()

        def check(x):
            d = engine.coproduct(x)
            assert d == reference_coproduct(x, engine), x
            for index in (0, 1):
                expected = reference_apply_coproduct_at(d, index, engine)
                assert apply_coproduct_at(d, index, engine) == expected, (x, index)

        for n in range(1, 7):
            forests = enumerate_forests(n)
            for f in forests:
                check(Element.from_forest(f))
            # distinct coefficients on all forests of the degree, so the
            # terms of different forests collect
            check(Element([(f, Fraction((-1) ** i * (i + 1), 3)) for i, f in enumerate(forests)]))

    def test_map_slot_matches_a_loop(self):
        t = coproduct(E("| | | - 2*[|,|] | + 1/2*| [|,|]"))

        def fn(s):
            return [(s, 2), (F("|"), -1)]

        for index in (0, 1):
            expected = _reference_collect(
                (key[:index] + (s,) + key[index + 1:], c * d)
                for key, c in t.terms().items()
                for s, d in fn(key[index])
            )
            assert t.map_slot(index, fn) == TensorElement(2, expected)
