"""Linear combinations of forests and the free Hoch-algebra operations.

The two operations on the span of forests are the associative
concatenation ``star`` and the magmatic product ``succ``.  On words of
trees t1...tp and s1...sq the magmatic product is the double sum

    sum_{k=1..q} sum_{i=0..p-1}
        t1 ... t_{p-(i+1)} [t_{p-i}, ..., tp, s1, ..., sk] s_{k+1} ... sq,

which together with concatenation satisfies the Hochschild two-cocycle
relation

    (x succ y) * z + (x * y) succ z  =  x succ (y * z) + x * (y succ z).

Coefficients are exact: one given or parsed integral is stored as an
``int``, any other as a ``Fraction``, and a sum of Fractions that cancels
to an integer stays a ``Fraction``.  The accessors return Fractions.

The basis products ``_concat`` and ``_succ_forests`` are memoized: a pair
of forests, or a bracket triple, is multiplied once per process.  Under
``verify --max-degree N`` the pairs have total degree <= N, F_N - 1 of them
(F large Schroeder: 8,557 at N = 8), with the bracket triples and the
cocycle suite's degree-9 triples on top; a library process keeps one entry
per distinct pair it asks for.

The element parser looks each term up in a text memo (see ``trees``) by its
text, the alphabet size and the unital mode, so a repeated term is parsed once.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from numbers import Rational

from .trees import Forest, ParseError, PlanarTree, format_forest, leaf
from .trees import _DIGITS, _MEMO_TEXT, _check_alphabet, _parse_forest, _remember, _skip_digits, _skip_ws

_ONE = 1


def _exact(c: Rational) -> int | Fraction:
    """The rational c as an int while integral, as a Fraction otherwise."""
    c = c if type(c) in (int, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _collect(pairs: Iterable[tuple[Hashable, Rational]], into: dict | None = None) -> dict:
    """Sum (key, nonzero coefficient) pairs into ``into`` (a new dict if
    None), deleting every key whose sum cancels to zero.  This is the one
    accumulate loop behind every vector operation of the package."""
    out = {} if into is None else into
    for key, c in pairs:
        old = out.get(key)
        if old is None:
            out[key] = c
        else:
            c += old
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _linear(terms: dict, image: Callable[[Hashable], Iterable[tuple[Hashable, Rational]]]) -> dict:
    """Collected terms of the linear map that sends each key to image(key),
    its (key, nonzero coefficient) pairs, applied to ``terms``."""
    return _collect((key, c if d == 1 else c * d) for f, c in terms.items() for key, d in image(f))


def _items(terms) -> Iterable:
    return terms.items() if isinstance(terms, Mapping) else terms


class LinComb:
    """A finite linear combination over exact rationals.

    Stored sparsely as a map key -> nonzero int or Fraction; the empty
    map is the zero.  The accessors return Fractions.  Instances behave
    as immutable values under +, - and ``scaled``.  Subclasses fix the
    key type and the canonical sort key of their keys (used for all
    printed output); two combinations are equal when they lie in the
    same space and have the same terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Hashable, Rational] | Iterable[tuple[Hashable, Rational]] = ()):
        self._terms = _collect((key, _exact(c)) for key, c in _items(terms) if c)

    @classmethod
    def _of(cls, terms: dict):
        """An instance wrapping terms that are already collected."""
        res = object.__new__(cls)
        res._terms = terms
        return res

    def _like(self, terms: dict):
        """A combination in the same space as self with collected terms."""
        return self._of(terms)

    def _space(self):
        """What equality compares besides the terms: the type (tensors add the arity)."""
        return type(self)

    _sort_key = operator.attrgetter("_key")

    def terms(self) -> dict:
        return {key: Fraction(c) for key, c in self._terms.items()}

    def _sorted(self) -> list[tuple[Hashable, Rational]]:
        """Stored terms in canonical key order, as printed."""
        terms = self._terms
        return [(key, terms[key]) for key in sorted(terms, key=self._sort_key)]

    def sorted_terms(self) -> list[tuple[Hashable, Fraction]]:
        """Terms in canonical key order."""
        return [(key, Fraction(c)) for key, c in self._sorted()]

    def coefficient(self, key) -> Fraction:
        return Fraction(self._terms.get(key, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._space() == other._space() and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, LinComb) or self._space() != other._space():
            return NotImplemented
        return self._like(_collect(other._terms.items(), dict(self._terms)))

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c: Rational):
        c = _exact(c)
        return self._like({key: c * v for key, v in self._terms.items()} if c else {})


class Element(LinComb):
    """A finite formal linear combination of forests over exact rationals.

    The keys are forests.  Besides the vector operations, ``x * y`` is
    the concatenation product and ``c * x`` scalar multiplication.
    """

    __slots__ = ()

    @staticmethod
    def zero() -> Element:
        return Element()

    @staticmethod
    def from_forest(f: Forest, coeff: Rational = 1) -> Element:
        return Element([(f, coeff)])

    @staticmethod
    def from_tree(t: PlanarTree, coeff: Rational = 1) -> Element:
        return Element([(Forest((t,)), coeff)])

    def support(self) -> set[Forest]:
        return set(self._terms)

    def degrees(self) -> set[int]:
        return {f.degree for f in self._terms}

    def max_degree(self) -> int:
        """0 for the zero element."""
        return max((f.degree for f in self._terms), default=0)

    def __mul__(self, other):
        if isinstance(other, Element):
            return star(self, other)
        if isinstance(other, Rational):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.scaled(other)
        return NotImplemented

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({format_element(self)!r})"


def generator(label: int = 0) -> Element:
    """The generator embedding: one leaf as a one-term element."""
    return Element.from_tree(leaf(label))


def add(x: Element, y: Element) -> Element:
    return x + y


def scale(c: Rational, x: Element) -> Element:
    return x.scaled(c)


def _bilinear(x: LinComb, y: LinComb, basis_op: Callable) -> dict:
    """Collected terms of the bilinear extension of ``basis_op``, which
    maps two forests to the forests of their product, each with
    coefficient 1.  The key None, the unit of the unital extension, is a
    two-sided unit."""

    def pairs() -> Iterator[tuple[Hashable, Rational]]:
        for f, c in x._terms.items():
            for g, d in y._terms.items():
                cd = c * d
                if f is None:
                    yield g, cd
                elif g is None:
                    yield f, cd
                else:
                    for key in basis_op(f, g):
                        yield key, cd

    return _collect(pairs())


@functools.cache
def _concat(f: Forest, g: Forest) -> tuple[Forest]:
    return (f.concat(g),)


@functools.cache
def _succ_forests(f: Forest, g: Forest, mid: tuple[PlanarTree, ...] = ()) -> tuple[Forest, ...]:
    """The forests of f succ g, or with ``mid`` the trees of a forest m the
    forests of the bracket [f, m, g] (see nary_bracket): a nonempty suffix
    of f, then ``mid``, then a nonempty prefix of g, under one new root."""
    ts, ss = f.trees, g.trees
    return tuple(Forest(ts[:j] + (PlanarTree(children=ts[j:] + mid + ss[:k]),) + ss[k:])
                 for k in range(1, len(ss) + 1) for j in reversed(range(len(ts))))


def star(x: Element, y: Element) -> Element:
    """The associative product: bilinear extension of concatenation."""
    return Element._of(_bilinear(x, y, _concat))


def succ_basis(f: Forest, g: Forest) -> Element:
    """The magmatic product of two basis forests.

    Yields exactly len(f) * len(g) forests, each with coefficient 1: every
    way of bracketing a nonempty suffix of f with a nonempty prefix of g
    under a new root, keeping the leftover trees on either side.
    """
    return Element._of(_collect((h, _ONE) for h in _succ_forests(f, g)))


def succ(x: Element, y: Element) -> Element:
    """Bilinear extension of succ_basis."""
    return Element._of(_bilinear(x, y, _succ_forests))


def star_all(factors: Sequence[Element]) -> Element:
    """Product x1 * x2 * ... * xk (k >= 1)."""
    acc = factors[0]
    for x in factors[1:]:
        acc = star(acc, x)
    return acc


def nary_bracket(args: Sequence[Element]) -> Element:
    """The n-ary bracket [x1, ..., xn], defined from the two products.

    For n >= 3:  (x1 * ... * x_{n-1}) succ xn - x1 * ((x2 * ... * x_{n-1}) succ xn).
    For n = 2:   x1 succ x2 - x1 * x2  (the inner product is empty and is
    read as the unit of the unital extension).

    For n >= 3 it is computed without cancellation.  On basis forests f of
    x1, m of x2 * ... * x_{n-1} and g of xn, the first product brackets a
    nonempty suffix of f m with a nonempty prefix of g; the suffixes inside
    m give exactly the forests of f * (m succ g), which the second product
    subtracts.  So the bracket of (f, m, g) is the sum of the forests that
    graft a nonempty suffix of f, all of m and a nonempty prefix of g under
    one new root.

    Applied to primitive arguments the result is again primitive.
    """
    n = len(args)
    if n < 2:
        raise ValueError(f"bracket needs at least 2 arguments, got {n}")
    if n == 2:
        x, y = args
        return Element._of(_collect(_bilinear(-x, y, _concat).items(), _bilinear(x, y, _succ_forests)))
    inner = star_all(args[1:-1])

    def pairs() -> Iterator[tuple[Forest, Rational]]:
        for f, a in args[0]._terms.items():
            for m, b in inner._terms.items():
                ab, mid = a * b, m.trees
                for g, c in args[-1]._terms.items():
                    abc = ab * c
                    for h in _succ_forests(f, g, mid):
                        yield h, abc

    return Element._of(_collect(pairs()))


@functools.cache
def tree_to_primitive(t: PlanarTree) -> Element:
    """The primitive element attached to a tree.

    A leaf maps to itself; a node [t1, ..., tn] maps to the n-ary bracket
    of its children's primitives.  The result is homogeneous of the tree's
    leaf count and equals t plus strictly earlier forests in the canonical
    order (mostly words with more trees, but e.g. the corolla [|,|,|]
    shows up in the primitive of [|,[|,|]]).
    """
    if t.is_leaf:
        return Element.from_tree(t)
    return nary_bracket([tree_to_primitive(c) for c in t.children])


def pbw_basis_element(f: Forest) -> Element:
    """Product of the tree primitives of f: the triangular basis element
    equal to f plus strictly earlier forests in the canonical order."""
    return star_all([tree_to_primitive(t) for t in f.trees])


# --- element text form --------------------------------------------------
#
#   element  := ['+'|'-'] term (('+'|'-') term)*   |   '0'
#   term     := [rational '*'] forest
#   rational := integer | integer '/' positive-integer
#
# Output is canonical: terms sorted by the forest order, no zero terms,
# coefficients of absolute value 1 left implicit.


def _format_terms(pairs: list[tuple[str, int | Fraction]]) -> str:
    """Signed terms; the int or Fraction coefficients are read as numerator and denominator."""
    chunks: list[str] = []
    for basis_text, c in pairs:
        num, den = c.numerator, c.denominator
        mag = -num if num < 0 else num
        coeff = f"{mag}/{den}*" if den != 1 else "" if mag == 1 else f"{mag}*"
        chunks.append(("- " if num < 0 else "+ ") + coeff + basis_text)
    text = " ".join(chunks)
    return ("-" + text[2:] if text[0] == "-" else text[2:]) if chunks else "0"


def format_element(x: Element) -> str:
    """Canonical text of an element; '0' for the zero element."""
    pairs = [(format_forest(f), c) for f, c in x._sorted()]
    return _format_terms(pairs)


def _parse_rational(text: str, pos: int) -> tuple[int | Fraction, int]:
    """The rational at ``pos``, which holds a digit, and the position after it."""
    end = _skip_digits(text, pos)
    num = int(text[pos:end])
    if text[end:end + 1] != "/":
        return num, end
    pos, end = end + 1, _skip_digits(text, end + 1)
    if end == pos:
        raise ParseError("expected digits after '/'", end)
    den = int(text[pos:end])
    if den == 0:
        raise ParseError("zero denominator", end)
    return _exact(Fraction(num, den)), end


def _parse_term(text: str, pos: int, alphabet_size: int | None, unital: bool, pending: list):
    """One term and the position after it: (coefficient, basis, position)
    where basis is a Forest, or None for the unit (unital mode) and for a
    bare 0, whose coefficient is 0."""
    coeff = 1
    if text[pos:pos + 1] in _DIGITS:
        value, mark = _parse_rational(text, pos)
        pos = _skip_ws(text, mark)
        if text[pos:pos + 1] == "*":
            pos = _skip_ws(text, pos + 1)
            coeff = value
        elif value == 0:
            return 0, None, mark
        elif unital and value == 1:
            return coeff, None, mark
        else:
            raise ParseError("expected '*' and a forest after a coefficient", mark)
    c = text[pos:pos + 1]
    if unital and c == "1":
        return coeff, None, pos + 1
    if c not in ("|", "["):
        raise ParseError("expected a forest" + (" or '1'" if unital else ""), pos)
    f, pos = _parse_forest(text, pos, alphabet_size, pending)
    return coeff, f, pos


# a term's text runs to the next '+' or '-', neither of which occurs inside a term
_TERM_RUN = re.compile(r"[^+\-]*[^+\- \t]")
_TERM_MEMO: dict[tuple[str, int | None, bool], tuple[Rational, Forest | None]] = {}


def _parse_terms(text: str, alphabet_size: int | None, unital: bool):
    """Shared element parser; returns the (slot, nonzero coefficient)
    terms, with the slot None for the unit (unital mode only)."""
    _check_alphabet(alphabet_size)
    terms: list[tuple[Forest | None, Rational]] = []
    pending: list = []
    pos = _skip_ws(text, 0)
    sign = 1
    if text[pos:pos + 1] in ("+", "-"):
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)
    while True:
        run = _TERM_RUN.match(text, pos)
        hit = None
        if run is not None:
            end = run.end()
            key = (text[pos:end], alphabet_size, unital)
            hit = _TERM_MEMO.get(key)
        if hit is None:
            coeff, basis, at = _parse_term(text, pos, alphabet_size, unital, pending)
            if run is not None and end - pos <= _MEMO_TEXT:
                pending.append((_TERM_MEMO, key, (coeff, basis)))
            pos = at
        else:
            (coeff, basis), pos = hit, end
        if coeff:
            terms.append((basis, coeff if sign > 0 else -coeff))
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            _remember(pending)
            return terms
        op = text[pos]
        if op not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {op!r}", pos)
        pos = _skip_ws(text, pos + 1)
        sign = 1 if op == "+" else -1


def parse_element(text: str, alphabet_size: int | None = None) -> Element:
    """Parse the element grammar, e.g. '3/2*[|,|] - | |'.

    parse_element(format_element(x)) == x for every element x.
    """
    return Element._of(_collect(_parse_terms(text, alphabet_size, unital=False)))
