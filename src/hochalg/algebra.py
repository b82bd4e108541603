"""Linear combinations of forests and the free Hoch-algebra operations.

The two operations on the span of forests are the associative
concatenation ``star`` and the magmatic product ``succ``.  On words of
trees t1...tp and s1...sq the magmatic product is the double sum

    sum_{k=1..q} sum_{i=0..p-1}
        t1 ... t_{p-(i+1)} [t_{p-i}, ..., tp, s1, ..., sk] s_{k+1} ... sq,

which together with concatenation satisfies the Hochschild two-cocycle
relation

    (x succ y) * z + (x * y) succ z  =  x succ (y * z) + x * (y succ z).

Coefficients are exact: ``int`` in the vector core while integral,
``Fraction`` otherwise and at every accessor; no floating point is used.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from numbers import Rational

from .trees import Forest, PlanarTree, _Cursor, _parse_forest, _starts_tree, format_forest, leaf

_ONE = 1


def _exact(c: Rational) -> int | Fraction:
    """An int or a Fraction is kept; any other rational becomes a Fraction."""
    return c if type(c) in (int, Fraction) else Fraction(c)


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
    return _collect((key, c * d) for f, c in terms.items() for key, d in image(f))


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

    @staticmethod
    def _sort_key(key):
        return key.sort_key()

    def terms(self) -> dict:
        return {key: Fraction(c) for key, c in self._terms.items()}

    def _sorted(self) -> list[tuple[Hashable, Rational]]:
        """Stored terms in canonical key order, as printed."""
        sort_key = self._sort_key
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

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


def _concat(f: Forest, g: Forest) -> tuple[Forest]:
    return (f.concat(g),)


def _succ_forests(f: Forest, g: Forest) -> Iterator[Forest]:
    ts, ss = f.trees, g.trees
    p, q = len(ts), len(ss)
    for k in range(1, q + 1):
        for i in range(p):
            node = PlanarTree(children=ts[p - (i + 1):] + ss[:k])
            yield Forest(ts[: p - (i + 1)] + (node,) + ss[k:])


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
    """The n-ary bracket [x1, ..., xn] built from the two products.

    For n >= 3:  (x1 * ... * x_{n-1}) succ xn - x1 * ((x2 * ... * x_{n-1}) succ xn).
    For n = 2:   x1 succ x2 - x1 * x2  (the inner product is empty and is
    read as the unit of the unital extension).

    Applied to primitive arguments the result is again primitive.
    """
    n = len(args)
    if n < 2:
        raise ValueError(f"bracket needs at least 2 arguments, got {n}")
    if n == 2:
        x1, x2 = args
        return succ(x1, x2) - star(x1, x2)
    head = star_all(args[:-1])
    inner = star_all(args[1:-1])
    xn = args[-1]
    return succ(head, xn) - star(args[0], succ(inner, xn))


_PRIMITIVE_MEMO: dict[PlanarTree, Element] = {}


def tree_to_primitive(t: PlanarTree) -> Element:
    """The primitive element attached to a tree.

    A leaf maps to itself; a node [t1, ..., tn] maps to the n-ary bracket
    of its children's primitives.  The result is homogeneous of the tree's
    leaf count and equals t plus strictly earlier forests in the canonical
    order (mostly words with more trees, but e.g. the corolla [|,|,|]
    shows up in the primitive of [|,[|,|]]).
    """
    cached = _PRIMITIVE_MEMO.get(t)
    if cached is not None:
        return cached
    if t.is_leaf:
        result = Element.from_tree(t)
    else:
        result = nary_bracket([tree_to_primitive(c) for c in t.children])
    _PRIMITIVE_MEMO[t] = result
    return result


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


def _format_terms(pairs: list[tuple[str, Rational]]) -> str:
    if not pairs:
        return "0"
    chunks: list[str] = []
    for idx, (basis_text, c) in enumerate(pairs):
        mag = abs(c)
        body = basis_text if mag == 1 else f"{mag}*{basis_text}"
        if idx == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def format_element(x: Element) -> str:
    """Canonical text of an element; '0' for the zero element."""
    pairs = [(format_forest(f), c) for f, c in x._sorted()]
    return _format_terms(pairs)


def _parse_rational(cur: _Cursor) -> int | Fraction:
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


def _parse_term(cur: _Cursor, alphabet_size: int | None, unital: bool):
    """One term: (coefficient, basis) where basis is a Forest or None for
    the unit (unital mode), or (coefficient, 'zero') for a bare 0."""
    coeff = 1
    if cur.peek().isdigit():
        value = _parse_rational(cur)
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
    if not _starts_tree(cur.peek()):
        raise cur.fail("expected a forest" + (" or '1'" if unital else ""))
    return coeff, _parse_forest(cur, alphabet_size)


def _parse_element_into(cur: _Cursor, alphabet_size: int | None, unital: bool):
    """Shared element parser; returns the (slot, coefficient) terms, with
    the slot None for the unit (unital mode only)."""
    terms: list[tuple[Forest | None, Rational]] = []
    cur.skip_ws()
    sign = 1
    if cur.peek() in ("+", "-"):
        if cur.advance() == "-":
            sign = -1
        cur.skip_ws()
    while True:
        coeff, basis = _parse_term(cur, alphabet_size, unital)
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


def parse_element(text: str, alphabet_size: int | None = None) -> Element:
    """Parse the element grammar, e.g. '3/2*[|,|] - | |'.

    parse_element(format_element(x)) == x for every element x.
    """
    return Element(_parse_element_into(_Cursor(text), alphabet_size, unital=False))
