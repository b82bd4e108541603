"""Differential tests of fast paths against test-local copies of the
reference code they replaced.

* ``nary_bracket`` computes brackets of three or more arguments by the
  cancellation-free basis formula; the reference is the defining formula
  from the two products.
* ``CoproductEngine`` computes the coproduct by the cut rule, a closed
  formula; the reference is the forest recursion it replaced, which
  unfolds each forest through one compatibility rule and subtracts the
  coproducts of the other forests of that product.
* ``_succ_forests`` and ``_concat``, the basis products under ``succ``,
  ``star`` and the brackets, are memoized and return tuples; the
  reference is each one's unmemoized body (``__wrapped__``) and, for
  ``_succ_forests``, the nested-loop generator it was before.
* ``_rule_holds`` checks a compatibility rule by summing its right side in
  one pass from the basis products; the reference substitutes element
  products into one slot of each coproduct and adds three tensors.  The
  unit pairs of the ``unital`` suite have negative controls of their own.
* The text grammars are parsed in one pass over ``(text, pos)`` with an
  explicit stack of open brackets; the reference is the recursive
  character scanner that parsed them before.  Both must give the same
  value, or the same ``ParseError`` message and position.  The one
  intended difference is pinned last: a digit outside ASCII 0-9 is a
  parse error at its position.
* The forest and term parsers have text memos in front of them; the
  reference is the same scanner, on the text alone (cold and warm) and
  as one term of a larger element.  A failing input writes no entry,
  every entry written is its key text parsed alone, the settings are part
  of each key, and both bounds hold.
* The cocycle suite checks its random triples as integer multiples of
  ``random_element``'s draws; the reference is the Fraction draw itself,
  with the same verdict under the real products and under a product
  that only the random triples reach.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hochalg import algebra, coalgebra, trees, verify
from hochalg.algebra import Element, nary_bracket, parse_element, star, star_all, succ
from hochalg.coalgebra import (
    CoproductEngine,
    TensorElement,
    UnitalElement,
    coproduct_basis,
    filtration_level,
    parse_unital_element,
    tensor_of_elements,
    unital_coproduct,
    unital_star,
    unital_succ,
)
from hochalg.trees import (
    Forest,
    ParseError,
    PlanarTree,
    enumerate_forests,
    graft,
    leaf,
    parse_forest,
    parse_tree,
)

# --- the bracket ------------------------------------------------------------


def bracket_by_products(args):
    """The n-ary bracket by its definition from the two products."""
    if len(args) == 2:
        return succ(args[0], args[1]) - star(args[0], args[1])
    xn = args[-1]
    return succ(star_all(args[:-1]), xn) - star(args[0], succ(star_all(args[1:-1]), xn))


@pytest.mark.parametrize("alphabet, total", [(1, 6), (2, 4)])
def test_bracket_matches_products_on_basis_tuples(alphabet, total):
    def basis(d):
        return [Element.from_forest(f) for f in enumerate_forests(d, alphabet)]

    count = 0
    for arity in (2, 3, 4):
        for args in verify._basis_tuples(total, arity, basis):
            assert nary_bracket(list(args)) == bracket_by_products(list(args)), args
            count += 1
    assert count == {1: 633, 2: 412}[alphabet]


FORESTS = [f for d in (1, 2) for f in enumerate_forests(d, 2)] + enumerate_forests(3)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)
elements = st.builds(Element, st.lists(st.tuples(st.sampled_from(FORESTS), fractions), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(elements, min_size=2, max_size=5))
def test_bracket_matches_products_on_rational_elements(args):
    assert nary_bracket(args) == bracket_by_products(args)


def _drop_full_prefix(f, g, mid=()):
    """The bracket's basis formula off by one: with a middle word, the
    prefix of g never reaches its last tree."""
    ts, ss = f.trees, g.trees
    p, q = len(ts), len(ss)
    for k in range(1, q + (not mid)):
        for i in range(p):
            node = PlanarTree(children=ts[p - (i + 1):] + mid + ss[:k])
            yield Forest(ts[: p - (i + 1)] + (node,) + ss[k:])


@pytest.fixture
def fresh_primitives():
    algebra.tree_to_primitive.cache_clear()
    yield
    algebra.tree_to_primitive.cache_clear()


def test_negative_control_bracket_off_by_one(monkeypatch, fresh_primitives):
    monkeypatch.setattr(algebra, "_succ_forests", _drop_full_prefix)
    brackets = {r.name.split(" ")[0]: r.passed for r in verify.suite_brackets(4)}
    assert brackets["3-ary"] is False
    pbw = [r.passed for r in verify.suite_pbw(4)]
    assert pbw == [True, True, False, False]
    # succ itself (no middle word) is untouched by the patch
    assert verify.suite_products(4)[0].passed


# --- the memoized basis products ---------------------------------------------


def succ_forests_by_loops(f, g, mid=()):
    """Reference: the forest generator of succ and the brackets as it was
    before the memo, two nested loops."""
    ts, ss = f.trees, g.trees
    p, q = len(ts), len(ss)
    for k in range(1, q + 1):
        for i in range(p):
            node = PlanarTree(children=ts[p - (i + 1):] + mid + ss[:k])
            yield Forest(ts[: p - (i + 1)] + (node,) + ss[k:])


@pytest.mark.parametrize("alphabet, total, count", [(1, 7, 1_805), (2, 4, 292)])
def test_memoized_products_match_their_bodies_on_every_pair(alphabet, total, count):
    pairs = list(verify._basis_tuples(total, 2, lambda d: enumerate_forests(d, alphabet)))
    assert len(pairs) == count
    for f, g in pairs:
        forests = algebra._succ_forests(f, g)
        assert type(forests) is tuple and algebra._succ_forests(f, g) is forests
        assert forests == algebra._succ_forests.__wrapped__(f, g) == tuple(succ_forests_by_loops(f, g))
        assert algebra._concat(f, g) == algebra._concat.__wrapped__(f, g) == (Forest(f.trees + g.trees),)
        terms = algebra.succ_basis(f, g).terms()
        assert len(terms) == len(f) * len(g) and set(terms.values()) == {1}


def test_memoized_bracket_forests_match_their_body_on_every_triple():
    triples = list(verify._basis_tuples(5, 3, enumerate_forests))
    assert len(triples) == 37
    for f, m, g in triples:
        forests = algebra._succ_forests(f, g, m.trees)
        assert algebra._succ_forests(f, g, m.trees) is forests
        assert forests == algebra._succ_forests.__wrapped__(f, g, m.trees)
        assert forests == tuple(succ_forests_by_loops(f, g, m.trees))
        assert len(set(forests)) == len(f) * len(g)


# --- the coproduct -----------------------------------------------------------


class _RecursionEngine:
    """Reference: the forest recursion.  A forest f other than a leaf is one
    of the forests of x op y (first tree * rest, or a node's children split
    before the last by succ), so D(f) is D(x op y) by its compatibility
    rule, minus D(h) for the other forests h of x op y, memoized."""

    def __init__(self, cross_sign=1):
        self.cross_sign = cross_sign
        self._memo = {}

    def _rule(self, f, g, basis_op):
        for (a, b), c in self.coproduct_basis(f)._terms.items():
            for h in basis_op(b, g):
                yield (a, h), c
        for (a, b), c in self.coproduct_basis(g)._terms.items():
            for h in basis_op(f, a):
                yield (h, b), c
        if self.cross_sign:
            yield (f, g), self.cross_sign

    def coproduct_basis(self, f):
        cached = self._memo.get(f)
        if cached is not None:
            return cached
        ts = f.trees
        if len(ts) > 1:
            x, y, op = Forest(ts[:1]), Forest(ts[1:]), algebra._concat
        elif ts[0].is_leaf:
            result = self._memo[f] = TensorElement.zero(2)
            return result
        else:
            cs = ts[0].children
            x, y, op = Forest(cs[:-1]), Forest(cs[-1:]), algebra._succ_forests
        assert x.degree < f.degree and y.degree < f.degree
        terms = algebra._collect(self._rule(x, y, op))
        for h in op(x, y):
            if h != f:
                assert len(h) > 1
                algebra._collect(((key, -c) for key, c in self.coproduct_basis(h)._terms.items()), terms)
        result = self._memo[f] = TensorElement._of(terms, 2)
        return result


@pytest.mark.parametrize(
    "cross_sign, alphabet, max_degree, total",
    [(1, 1, 8, 10_879), (1, 2, 5, 3_290), (1, 3, 4, 1_965), (0, 1, 6, 515), (-1, 1, 6, 515), (-1, 2, 4, 410)],
)
def test_cut_rule_matches_recursion_on_every_forest(cross_sign, alphabet, max_degree, total):
    engine, reference = CoproductEngine(cross_sign), _RecursionEngine(cross_sign)
    forests = [f for n in range(1, max_degree + 1) for f in enumerate_forests(n, alphabet)]
    assert len(forests) == total
    for f in forests:
        assert engine.coproduct_basis(f) == reference.coproduct_basis(f), f


def _trees(max_leaves, alphabet):
    return st.recursive(
        st.integers(0, alphabet - 1).map(leaf),
        lambda children: st.lists(children, min_size=2, max_size=4).map(graft),
        max_leaves=max_leaves,
    ).filter(lambda t: t.leaf_count <= max_leaves)


_SHARED_REFERENCE = _RecursionEngine()


@settings(max_examples=300, deadline=None)
@given(_trees(10, 2))
def test_cut_rule_matches_recursion_on_random_trees(t):
    f = Forest((t,))
    assert coproduct_basis(f) == _SHARED_REFERENCE.coproduct_basis(f)


def test_cut_rule_terms_are_distinct_with_coefficient_one():
    # one term per left degree at most, so a forest of degree n has at most n - 1
    for n in range(1, 8):
        for f in enumerate_forests(n):
            terms = coproduct_basis(f)._terms
            assert set(terms.values()) <= {1}
            assert len({a.degree for a, _ in terms}) == len(terms) <= n - 1


def test_filtration_level_is_one_plus_cuts_per_tree():
    """A third way to the level of a basis forest: the sum over its trees
    of 1 + the number of cuts, beside the level recursion and the
    vanishing of the iterated coproduct."""
    count = 0
    for n in range(1, 8):
        for f in enumerate_forests(n):
            expected = sum(1 + len(coalgebra._cuts(t)) for t in f.trees)
            assert filtration_level(Element.from_forest(f)) == expected, f
            count += 1
    assert count == 2_321


def _cuts_through_every_child(t):
    """The cut rule wrongly descending into every child, not only the
    first and the last: every cut whose lowest common ancestor is binary."""
    if t.is_leaf:
        return ()
    cs, out = t.children, []
    for j, c in enumerate(cs):
        for a, b in _cuts_through_every_child(c):
            left, right = cs[:j] + (a,), (b,) + cs[j + 1:]
            out.append((left[0] if len(left) == 1 else graft(left), right[0] if len(right) == 1 else graft(right)))
    if len(cs) == 2:
        out.append((cs[0], cs[1]))
    return tuple(out)


@pytest.fixture
def fresh_coproducts():
    coalgebra._cut_coproduct.cache_clear()
    yield
    coalgebra._cut_coproduct.cache_clear()


def failing_suites(names, max_degree):
    return {r.suite for r in verify.run_suites(names, max_degree=max_degree) if not r.passed}


def test_negative_control_cuts_through_every_child(monkeypatch, fresh_coproducts):
    corner = Forest((parse_tree("[|,[|,|],|]"),))
    assert str(coproduct_basis(corner)) == "0"
    names = ["compat", "coassoc", "primdims", "brackets", "unital"]
    assert failing_suites(names, 4) == set()
    monkeypatch.setattr(coalgebra, "_cuts", _cuts_through_every_child)
    coalgebra._cut_coproduct.cache_clear()
    assert str(coproduct_basis(corner)) == "[|,|] (x) [|,|]"
    assert failing_suites(names, 4) == set(names)


_real_succ_forests = algebra._succ_forests


def _drop_one_tree_result(f, g, mid=()):
    """The forest generator of succ and the brackets, missing its one-tree
    forest whenever f or g has several trees."""
    for h in _real_succ_forests(f, g, mid):
        if len(h) > 1 or (len(f) == 1 and len(g) == 1):
            yield h


def test_negative_control_succ_term_dropped(monkeypatch, fresh_primitives):
    names = ["cocycle", "compat", "products", "brackets", "unital"]
    assert failing_suites(names, 4) == set()
    algebra.tree_to_primitive.cache_clear()
    monkeypatch.setattr(algebra, "_succ_forests", _drop_one_tree_result)
    monkeypatch.setattr(coalgebra, "_succ_forests", _drop_one_tree_result)
    assert len(algebra.succ_basis(Forest((leaf(), leaf())), Forest((leaf(),))).terms()) == 1
    assert failing_suites(names, 4) == set(names)


# --- the cocycle suite's integer random triples ------------------------------

_real_concat = algebra._concat


def _swap_long_products(f, g):
    """Concatenation, but g f for a product of degree >= 6 whose left factor
    has several trees: no basis triple of total degree <= 5 meets it."""
    if f.degree + g.degree >= 6 and len(f) > 1:
        return (g.concat(f),)
    return _real_concat(f, g)


def swap_long_products(monkeypatch):
    monkeypatch.setattr(algebra, "_concat", _swap_long_products)
    monkeypatch.setattr(coalgebra, "_concat", _swap_long_products)


def cocycle_lines(max_degree):
    return [(r.name, r.passed) for r in verify.suite_cocycle(max_degree)]


def test_negative_control_random_triples_fire_alone(monkeypatch):
    basis, random_ = "all 37 basis triples, total degree <= 5", "100 random element triples"
    assert cocycle_lines(5) == [(basis, True), (random_, True)]
    swap_long_products(monkeypatch)
    assert cocycle_lines(5) == [(basis, True), (random_, False)]


def random_draws():
    """The suite's draws of RANDOM_SEED, each as random_element gives it
    and as the suite checks it, in stream order."""
    fractional, integral = random.Random(verify.RANDOM_SEED), random.Random(verify.RANDOM_SEED)
    draws = [(verify.random_element(fractional), verify._random_integral(integral))
             for _ in range(3 * verify.RANDOM_TRIPLES)]
    assert fractional.getstate() == integral.getstate()
    return draws


def test_random_draws_scale_to_positive_integer_multiples():
    draws = random_draws()
    assert len(draws) == 300
    for x, n in draws:
        assert set(n._terms) == set(x._terms)
        assert all(type(c) is int for c in n._terms.values())
        ratios = {c / Fraction(x._terms[f]) for f, c in n._terms.items()}
        assert len(ratios) <= 1 and all(r > 0 and r.denominator == 1 for r in ratios), (x, n)


def test_integer_triples_give_the_fraction_verdicts(monkeypatch):
    draws = random_draws()
    triples = [tuple(zip(*draws[i:i + 3])) for i in range(0, len(draws), 3)]

    def verdicts():
        return [(verify._cocycle_holds(*xyz), verify._cocycle_holds(*scaled)) for xyz, scaled in triples]

    real = verdicts()
    assert real == [(True, True)] * len(triples)
    swap_long_products(monkeypatch)
    patched = verdicts()
    assert all(a == b for a, b in patched)
    assert (False, False) in patched


# --- the compatibility rule check ---------------------------------------------


def rule_holds_by_tensors(x, y, op, cop, cross):
    """Reference: the rule check as it was, with the element product ``op``
    substituted into one slot of cop(x) and of cop(y) and three tensors added."""
    basis = type(x)._of
    left = cop(x).map_slot(1, lambda b: op(basis({b: 1}), y)._terms.items())
    right = cop(y).map_slot(0, lambda a: op(x, basis({a: 1}))._terms.items())
    return cop(op(x, y)) == left + right + tensor_of_elements(x, y).scaled(cross)


RULES = [("star", star, unital_star), ("succ", succ, unital_succ)]


@pytest.mark.parametrize("cross_sign", [1, 0, -1])
@pytest.mark.parametrize("alphabet, total, count", [(1, 5, 89), (2, 3, 36)])
def test_rule_check_matches_tensor_sums_on_basis_pairs(alphabet, total, count, cross_sign):
    """s * D satisfies the rules with the cross term scaled by s (the
    coalgebra docstring, 4), so a rule holds exactly when cross = s."""
    def basis(d):
        return [Element.from_forest(f) for f in enumerate_forests(d, alphabet)]

    pairs = list(verify._basis_tuples(total, 2, basis))
    assert len(pairs) == count
    cop = CoproductEngine(cross_sign).coproduct
    for which, op, _ in RULES:
        basis_op = coalgebra._basis_product(which)
        for cross in {1, cross_sign}:
            for x, y in pairs:
                verdict = coalgebra._rule_holds(x, y, basis_op, cop, cross)
                assert verdict == rule_holds_by_tensors(x, y, op, cop, cross) == (cross == cross_sign), (x, y)


@pytest.mark.parametrize("which, _, op", RULES, ids=["star", "succ"])
def test_rule_check_matches_tensor_sums_on_unital_pairs(which, _, op):
    pairs = list(verify._basis_tuples(5, 2, verify._unital_basis, lowest=0))
    assert len(pairs) == 332
    basis_op = coalgebra._basis_product(which)
    for cross in (-1, 1):
        failing = [(x, y) for x, y in pairs if not coalgebra._rule_holds(x, y, basis_op, unital_coproduct, cross)]
        failing_by_tensors = [(x, y) for x, y in pairs if not rule_holds_by_tensors(x, y, op, unital_coproduct, cross)]
        assert failing == failing_by_tensors
        # with + the cross term is off by 2 x (x) y, which is never zero
        assert failing == ([] if cross == -1 else pairs)


unital_elements = st.builds(UnitalElement, fractions, elements)


@settings(max_examples=200, deadline=None)
@given(elements, elements, st.sampled_from([1, 0, -1]))
def test_rule_check_matches_tensor_sums_on_rational_elements(x, y, cross_sign):
    cop = CoproductEngine(cross_sign).coproduct
    for which, op, _ in RULES:
        verdict = coalgebra._rule_holds(x, y, coalgebra._basis_product(which), cop, 1)
        assert verdict == rule_holds_by_tensors(x, y, op, cop, 1) == (cross_sign == 1 or x.is_zero or y.is_zero)


@settings(max_examples=200, deadline=None)
@given(unital_elements, unital_elements, st.sampled_from([-1, 1]))
def test_rule_check_matches_tensor_sums_on_unital_elements(x, y, cross):
    assert x.unit and y.unit
    for which, _, op in RULES:
        verdict = coalgebra._rule_holds(x, y, coalgebra._basis_product(which), unital_coproduct, cross)
        assert verdict == rule_holds_by_tensors(x, y, op, unital_coproduct, cross) == (cross == -1)
        assert coalgebra.check_unital_compatibility(x, y, which)


def _d_one_zero(x, engine=None):
    """The unital coproduct with d(1) = 0 instead of 1 (x) 1."""
    return unital_coproduct(x, engine) - TensorElement(2, {(None, None): x.unit})


def _bilinear_without_right_unit(x, y, basis_op):
    """The bilinear extension missing its right-unit clause: f times 1 is 0."""
    def pairs():
        for f, c in x._terms.items():
            for g, d in y._terms.items():
                if f is None:
                    yield g, c * d
                elif g is not None:
                    for h in basis_op(f, g):
                        yield h, c * d

    return algebra._collect(pairs())


MUTATIONS = {
    "d(1) = 0": [(verify, "unital_coproduct", _d_one_zero), (coalgebra, "unital_coproduct", _d_one_zero)],
    "no right unit": [(coalgebra, "_bilinear", _bilinear_without_right_unit)],
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_negative_control_unit_pairs(monkeypatch, mutation):
    def rule_lines():
        return [(r.name, r.passed) for r in verify.suite_unital(4) if "rule on" in r.name]

    lines = rule_lines()
    assert lines == [(f"minus-sign {w} rule on 84 unital basis pairs, total degree <= 4", True) for w in ("star", "succ")]
    for module, name, value in MUTATIONS[mutation]:
        monkeypatch.setattr(module, name, value)
    assert rule_lines() == [(name, False) for name, _ in lines]


# --- the parser --------------------------------------------------------------


class _Cursor:
    """Reference scanner: one character at a time, recursing per level."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        c = self.peek()
        self.pos += 1
        return c

    def digits(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return self.text[start:self.pos]

    def skip_ws(self):
        start = self.pos
        while self.peek() in (" ", "\t"):
            self.pos += 1
        return self.pos - start

    def expect(self, char):
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def at_end(self):
        return self.pos >= len(self.text)

    def fail(self, message):
        return ParseError(message, self.pos)


def _ref_tree(cur, alphabet_size):
    c = cur.peek()
    if c == "|":
        cur.advance()
        label = int(cur.digits() or 0)
        if alphabet_size is not None and label >= alphabet_size:
            raise cur.fail(f"unknown generator label {label} (alphabet size {alphabet_size})")
        return leaf(label)
    if c == "[":
        cur.advance()
        children = []
        cur.skip_ws()
        children.append(_ref_tree(cur, alphabet_size))
        cur.skip_ws()
        if cur.peek() != ",":
            raise cur.fail("bracket nodes need at least 2 comma-separated children")
        while cur.peek() == ",":
            cur.advance()
            cur.skip_ws()
            children.append(_ref_tree(cur, alphabet_size))
            cur.skip_ws()
        cur.expect("]")
        return graft(children)
    raise cur.fail("expected a tree ('|' or '[')")


def _ref_forest(cur, alphabet_size):
    trees = [_ref_tree(cur, alphabet_size)]
    while True:
        mark = cur.pos
        ws = cur.skip_ws()
        if cur.peek() in ("|", "["):
            if ws == 0:
                raise cur.fail("expected whitespace between trees of a forest")
            trees.append(_ref_tree(cur, alphabet_size))
        else:
            cur.pos = mark
            return Forest(tuple(trees))


def _ref_whole(parse, what):
    def parse_whole(text, alphabet_size=None):
        cur = _Cursor(text)
        cur.skip_ws()
        value = parse(cur, alphabet_size)
        cur.skip_ws()
        if not cur.at_end():
            raise cur.fail(f"unexpected {cur.peek()!r} after {what}")
        return value

    return parse_whole


def _ref_rational(cur):
    num = int(cur.digits())
    if cur.peek() == "/":
        cur.advance()
        dend = cur.digits()
        if not dend:
            raise cur.fail("expected digits after '/'")
        den = int(dend)
        if den == 0:
            raise cur.fail("zero denominator")
        return Fraction(num, den)
    return num


def _ref_term(cur, alphabet_size, unital):
    coeff = 1
    if cur.peek().isdigit():
        value = _ref_rational(cur)
        mark = cur.pos
        cur.skip_ws()
        if cur.peek() == "*":
            cur.advance()
            cur.skip_ws()
            coeff = value
        else:
            cur.pos = mark
            if value == 0:
                return 0, "zero"
            if unital and value == 1:
                return coeff, None
            raise cur.fail("expected '*' and a forest after a coefficient")
    if unital and cur.peek() == "1":
        cur.advance()
        return coeff, None
    if cur.peek() not in ("|", "["):
        raise cur.fail("expected a forest" + (" or '1'" if unital else ""))
    return coeff, _ref_forest(cur, alphabet_size)


def _ref_terms(text, alphabet_size, unital):
    cur = _Cursor(text)
    terms = []
    cur.skip_ws()
    sign = 1
    if cur.peek() in ("+", "-"):
        if cur.advance() == "-":
            sign = -1
        cur.skip_ws()
    while True:
        coeff, basis = _ref_term(cur, alphabet_size, unital)
        if basis != "zero":
            terms.append((basis, coeff if sign > 0 else -coeff))
        cur.skip_ws()
        if cur.at_end():
            return terms
        op = cur.peek()
        if op not in ("+", "-"):
            raise cur.fail(f"expected '+' or '-', got {op!r}")
        cur.advance()
        cur.skip_ws()
        sign = 1 if op == "+" else -1


def _ref_element(text, alphabet_size=None):
    return Element(_ref_terms(text, alphabet_size, unital=False))


def _ref_unital(text, alphabet_size=None):
    terms = _ref_terms(text, alphabet_size, unital=True)
    return UnitalElement._of(algebra._collect((s, c) for s, c in terms if c))


PARSERS = [
    (parse_tree, _ref_whole(_ref_tree, "tree")),
    (parse_forest, _ref_whole(_ref_forest, "forest")),
    (parse_element, _ref_element),
    (parse_unital_element, _ref_unital),
]


def outcome(parse, text, alphabet_size):
    """The parsed value, or the error's type, message and position."""
    try:
        return ("value", parse(text, alphabet_size))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_parsers_agree(text, alphabet_size):
    for parse, reference in PARSERS:
        got, want = outcome(parse, text, alphabet_size), outcome(reference, text, alphabet_size)
        assert got == want, (parse.__name__, text, alphabet_size)


ALPHABET = "|[],+-*/0123456789 \t"
TOKENS = [
    "|", "|1", "|2", "|10", "[", "]", ",", " ", "\t", "+", "-", "*", "/", "0", "1", "2",
    "3/2", "0/4", "1/0", "12", "2*", " + ", " - ", "[|,|]", "| |", "[|, |]", "[ |,|1 ]",
]


def _edit(text, edits):
    """text after inserting, deleting or replacing one character per edit."""
    for where, kind, char in edits:
        i = where % (len(text) + 1)
        text = text[:i] + ("" if kind == "delete" else char) + text[i + (kind != "insert"):]
    return text


texts = st.one_of(
    st.text(alphabet=ALPHABET, max_size=24),
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.builds(
        _edit,
        elements.map(str),
        st.lists(
            st.tuples(st.integers(0, 60), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(ALPHABET)),
            max_size=3,
        ),
    ),
)


@settings(max_examples=800, deadline=None)
@given(texts, st.sampled_from([None, 1, 2, 3]))
def test_parsers_match_reference(text, alphabet_size):
    assert_parsers_agree(text, alphabet_size)


@pytest.mark.parametrize(
    "text",
    ["", " ", "|", " | ", "||", "| |1", "[|]", "[|,]", "[|,|", "[|,|]]", "[|,|]x", "[ |\t, [|,|2] ]",
     "3", "0", "1", "2*1", "0/0", "1/", "3/2 |", "3/2*", "- 2*| + 1/3*[|,|] |", "+ 0 - 0*|", "|3", "| | -"],
)
def test_parsers_match_reference_on_examples(text):
    for alphabet_size in (None, 1, 2, 3):
        assert_parsers_agree(text, alphabet_size)


# --- the text memos ---------------------------------------------------------------


def clear_memos():
    trees._FOREST_MEMO.clear()
    algebra._TERM_MEMO.clear()


def memo_state():
    return dict(trees._FOREST_MEMO), dict(algebra._TERM_MEMO)


def checked_outcome(parse, text, alphabet_size):
    """outcome(), asserting that a failing parse leaves both memos as they were."""
    before = memo_state()
    got = outcome(parse, text, alphabet_size)
    if got[0] != "value":
        assert memo_state() == before, (parse.__name__, text, alphabet_size)
    return got


OTHER_TERM = "-2/3*[|,| |] |"


def in_context(text):
    """text as the first, middle and last term of a larger element."""
    return [
        f"{text} + {OTHER_TERM} - |\t",
        f"| - {text} + {OTHER_TERM}\t",
        f"{OTHER_TERM} + | - {text}\t",
    ]


def assert_memo_paths_agree(text, alphabet_size):
    """Each parser cold, then warm, then the element parsers on text in
    context and once more alone, against the reference scanner."""
    for parse, reference in PARSERS:
        want = outcome(reference, text, alphabet_size)
        clear_memos()
        assert checked_outcome(parse, text, alphabet_size) == want, ("cold", parse.__name__, text)
        assert checked_outcome(parse, text, alphabet_size) == want, ("warm", parse.__name__, text)
    for parse, reference in PARSERS[2:]:
        for context in in_context(text):
            want = outcome(reference, context, alphabet_size)
            assert checked_outcome(parse, context, alphabet_size) == want, (parse.__name__, context)
        assert checked_outcome(parse, text, alphabet_size) == outcome(reference, text, alphabet_size)


MEMO_EXAMPLES = [
    "|", "| |", "[|,|]", "|1 [|,|2]", " [ |\t, |] |  ", "3/2*| |", "2 * [|,|]", "0", "0*|", "0/4",
    "1", "2*1", "1*|", "|3", "| |3", "|,|", "| x", "3 |", "| + x", "| - [|,|] + [|]", "[|,|]|",
    "| |]", "- | + 1/2*| |", "+ 0 - 0*|", "|\t+\t|", "| +", "1/0*|",
]


@pytest.mark.parametrize("text", MEMO_EXAMPLES)
def test_memos_match_reference_on_examples(text):
    for alphabet_size in (None, 1, 2, 3):
        assert_memo_paths_agree(text, alphabet_size)


@settings(max_examples=600, deadline=None)
@given(texts, st.sampled_from([None, 1, 2, 3]))
def test_memos_match_reference(text, alphabet_size):
    assert_memo_paths_agree(text, alphabet_size)


def _ref_term_alone(text, alphabet_size, unital):
    """The reference scanner's (coefficient, basis) for one term's text,
    which it must read to the end; basis None for a bare 0 or the unit."""
    cur = _Cursor(text)
    coeff, basis = _ref_term(cur, alphabet_size, unital)
    assert cur.at_end(), text
    return coeff, None if basis == "zero" else basis


@settings(max_examples=600, deadline=None)
@given(texts, st.sampled_from([None, 1, 2, 3]))
def test_every_memo_entry_is_its_text_parsed_alone(text, alphabet_size):
    clear_memos()
    for parse in (parse_forest, parse_element, parse_unital_element):
        for source in (text, *in_context(text)):
            outcome(parse, source, alphabet_size)
    read_forest = _ref_whole(_ref_forest, "forest")
    for (key, size), f in trees._FOREST_MEMO.items():
        assert read_forest(key, size) == f, key
    for (key, size, unital), value in algebra._TERM_MEMO.items():
        assert _ref_term_alone(key, size, unital) == value, key


def test_failing_input_writes_no_entry():
    clear_memos()
    for text in ["| + [|,|] + x", "2*| | - [|,|]]", "| [|,|] - 3"]:
        with pytest.raises(ParseError):
            parse_element(text)
        with pytest.raises(ParseError):
            parse_unital_element(text)
    with pytest.raises(ParseError):
        parse_forest("| [|,|] x")
    assert memo_state() == ({}, {})
    parse_element("| + [|,|] + | |")
    assert set(algebra._TERM_MEMO) == {("|", None, False), ("[|,|]", None, False), ("| |", None, False)}
    assert set(trees._FOREST_MEMO) == {("|", None), ("[|,|]", None), ("| |", None)}


def _no_character_parse(*args):
    raise AssertionError("the character parser ran on a memo hit")


def check_settings_in_keys(monkeypatch):
    """A hit under one alphabet size or mode is no hit under another."""
    clear_memos()
    assert parse_element("|3") == Element.from_tree(leaf(3))
    assert parse_forest("|3") == Forest((leaf(3),))
    assert parse_unital_element("1") == UnitalElement.one()
    with monkeypatch.context() as m:  # the three texts are now hits
        m.setattr(algebra, "_parse_term", _no_character_parse)
        m.setattr(trees, "_parse_tree", _no_character_parse)
        assert parse_element("|3") == Element.from_tree(leaf(3))
        assert parse_forest("|3") == Forest((leaf(3),))
        assert parse_unital_element("1") == UnitalElement.one()
    for parse in (parse_element, parse_unital_element, parse_forest):
        assert outcome(parse, "|3", 2) == ("ParseError", "unknown generator label 3 (alphabet size 2) (at position 2)", 2)
    assert outcome(parse_element, "1", None) == (
        "ParseError", "expected '*' and a forest after a coefficient (at position 1)", 1)


def test_memo_keys_hold_the_settings(monkeypatch):
    check_settings_in_keys(monkeypatch)


class _ForgetsAlphabet(dict):
    """A memo whose keys lose the alphabet size: the mutation."""

    @staticmethod
    def _mutated(key):
        return (key[0],) + key[2:]

    def get(self, key, default=None):
        return super().get(self._mutated(key), default)

    def __setitem__(self, key, value):
        super().__setitem__(self._mutated(key), value)


def test_negative_control_alphabet_dropped_from_keys(monkeypatch):
    monkeypatch.setattr(trees, "_FOREST_MEMO", _ForgetsAlphabet())
    monkeypatch.setattr(algebra, "_TERM_MEMO", _ForgetsAlphabet())
    with pytest.raises(AssertionError):
        check_settings_in_keys(monkeypatch)
    # each memo alone carries the fault to its parser
    assert parse_forest("|3", 2) == Forest((leaf(3),))
    algebra._TERM_MEMO.clear()
    parse_element("|3")
    monkeypatch.setattr(trees, "_FOREST_MEMO", {})
    assert parse_element("|3", 2) == Element.from_tree(leaf(3))


def spaced_forest(length):
    """Two leaves, with spaces between them to make ``length`` characters."""
    return "|" + " " * (length - 2) + "|"


def test_text_length_bound():
    clear_memos()
    longest, too_long = spaced_forest(trees._MEMO_TEXT), spaced_forest(trees._MEMO_TEXT + 1)
    assert parse_element(f"{longest} - {too_long}") == Element()
    assert parse_forest(too_long) == parse_forest(longest)
    assert set(trees._FOREST_MEMO) == {(longest, None)}
    assert set(algebra._TERM_MEMO) == {(longest, None, False)}
    coeff = "1/" + "1" * (trees._MEMO_TEXT + 1) + "*"  # a long term with a short forest
    assert parse_element(coeff + "|") == Element.from_tree(leaf(), Fraction(1, int(coeff[2:-1])))
    assert (coeff + "|", None, False) not in algebra._TERM_MEMO
    assert ("|", None) in trees._FOREST_MEMO


def test_entry_bound():
    clear_memos()
    cap = trees._MEMO_ENTRIES
    for label in range(cap):
        parse_element(f"|{label}")
    assert len(trees._FOREST_MEMO) == len(algebra._TERM_MEMO) == cap
    parse_element(f"|{cap}")  # the memos were full: cleared, then written
    assert set(trees._FOREST_MEMO) == {(f"|{cap}", None)}
    assert set(algebra._TERM_MEMO) == {(f"|{cap}", None, False)}
    assert parse_element("|0") == Element.from_tree(leaf(0))


@pytest.mark.parametrize("alphabet_size", [0, -1])
@pytest.mark.parametrize("parse", [parse_tree, parse_forest, parse_element, parse_unital_element])
def test_alphabet_without_generators_is_refused(parse, alphabet_size):
    clear_memos()  # then entries under this alphabet size: a hit must not get past the check
    trees._FOREST_MEMO[("|", alphabet_size)] = Forest((leaf(),))
    for unital in (False, True):
        algebra._TERM_MEMO[("|", alphabet_size, unital)] = (1, Forest((leaf(),)))
    with pytest.raises(ValueError) as err:
        parse("|", alphabet_size)
    assert type(err.value) is ValueError
    assert str(err.value) == f"alphabet size must be positive, got {alphabet_size}"


# --- digits are ASCII ----------------------------------------------------------


@pytest.mark.parametrize("text", ["|٣", "|²", "[|٣,|]", "٣*|", "|1١"])
@pytest.mark.parametrize("parse", [parse_tree, parse_forest, parse_element, parse_unital_element])
def test_non_ascii_digits_are_rejected(text, parse):
    with pytest.raises(ParseError) as err:
        parse(text, 5)
    assert err.value.position == text.index(next(c for c in text if not c.isascii()))
