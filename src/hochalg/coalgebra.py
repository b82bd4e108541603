"""The infinitesimal coproduct on the span of forests.

The coproduct is defined by a well-founded recursion: generators (single
leaves) are sent to zero, and products are unfolded through the two
compatibility rules

    D(x * y) = x_(1) (x) (x_(2) * y) + (x * y_(1)) (x) y_(2) + x (x) y
    D(x succ y) = x_(1) (x) (x_(2) succ y) + (x succ y_(1)) (x) y_(2) + x (x) y

(Sweedler sums implied).  The recursion runs on basis forests, one rule
per forest.  A forest of several trees is first tree * rest.  A node
t = [c1, ..., cm], m >= 2, is one of the forests of

    (c1 ... c_{m-1}) succ cm  =  t  +  sum_j  c1 ... cj [c_{j+1}, ..., cm],

so D(t) is the succ rule on c1 ... c_{m-1} and cm minus D of the other
forests, j = 1, ..., m-2.  Those have t's degree but at least two trees,
so they go down the star rule; each rule strictly decreases the leaf
count (both asserted below).

Primitives are the kernel of the coproduct; their dimension in each
degree is a little Schroeder number, the computational witness that
forests are cofree over the span of trees.  The unital extension adjoins
a unit 1 with 1 * x = x = x * 1 and 1 succ x = x = x succ 1 and the
coproduct d(x) = 1 (x) x + x (x) 1 + D(x), which satisfies the same
compatibility rules with the cross term x (x) y subtracted instead of
added.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from numbers import Rational

from . import linalg
from .algebra import (
    _ONE,
    Element,
    LinComb,
    _bilinear,
    _collect,
    _concat,
    _Cursor,
    _exact,
    _format_terms,
    _items,
    _linear,
    _parse_element_into,
    _succ_forests,
    star,
    succ,
)
from .trees import Forest, enumerate_forests, format_forest

# A tensor slot is a basis forest, or None for the unit 1 of the unital
# extension (nonunital operations never produce None slots).
Slot = Forest | None


def _slot_key(s: Slot):
    """Canonical order of slots: the unit before every forest."""
    return (0, 0, ()) if s is None else s.sort_key()


class TensorElement(LinComb):
    """A linear combination of k-fold tensors of basis forests.

    Keys are k-tuples of slots with a fixed arity k >= 1; coefficients are
    nonzero exact rationals.  The zero tensor of each arity is the empty
    map, and tensors of different arities are never equal.
    """

    __slots__ = ("arity",)

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[Slot, ...], Rational] | Iterable[tuple[tuple[Slot, ...], Rational]] = (),
    ):
        if arity < 1:
            raise ValueError(f"tensor arity must be positive, got {arity}")
        self.arity = arity
        super().__init__((self._checked(key), c) for key, c in _items(terms))

    def _checked(self, key) -> tuple[Slot, ...]:
        key = tuple(key)
        if len(key) != self.arity:
            raise ValueError(f"tensor key {key} does not have arity {self.arity}")
        return key

    @classmethod
    def _of(cls, terms: dict, arity: int) -> TensorElement:
        """A tensor of the given arity wrapping terms that are already collected."""
        res = super()._of(terms)
        res.arity = arity
        return res

    def _like(self, terms: dict) -> TensorElement:
        return self._of(terms, self.arity)

    def _space(self):
        return (TensorElement, self.arity)

    @staticmethod
    def _sort_key(key):
        return tuple(_slot_key(s) for s in key)

    @staticmethod
    def zero(arity: int) -> TensorElement:
        return TensorElement(arity)

    def __add__(self, other: TensorElement) -> TensorElement:
        if isinstance(other, TensorElement) and self.arity != other.arity:
            raise ValueError("tensor arities differ")
        return super().__add__(other)

    def map_slot(
        self, index: int, fn: Callable[[Slot], Iterable[tuple[Slot, Rational]]]
    ) -> TensorElement:
        """Substitute fn(slot), (slot, nonzero coefficient) pairs, for slot ``index``."""
        return self._splice(index, 1, lambda slot: [((s,), d) for s, d in fn(slot)])

    def _splice(self, index: int, width: int, image) -> TensorElement:
        """Substitute for slot ``index`` the ``width`` slots of each
        (slots, nonzero coefficient) pair of image(slot), linearly."""

        def spliced(key):
            head, tail = key[:index], key[index + 1:]
            return ((head + inner + tail, d) for inner, d in image(key[index]))

        return self._of(_linear(self._terms, spliced), self.arity + width - 1)

    def __str__(self) -> str:
        return format_tensor(self)

    def __repr__(self) -> str:
        return f"TensorElement({self.arity}, {format_tensor(self)!r})"


def tensor_of_elements(*factors: LinComb) -> TensorElement:
    """The tensor x1 (x) ... (x) xk of elements, expanded bilinearly.

    The factors may be unital elements, whose unit is the slot None.
    """
    terms: dict = {(): _ONE}
    for x in factors:  # the keys stay distinct, so nothing is collected
        terms = {key + (s,): c * d for key, c in terms.items() for s, d in x._terms.items()}
    return TensorElement(len(factors))._like(terms)


class CoproductEngine:
    """Evaluates the coproduct recursion on basis forests.

    A forest f other than a leaf is one of the forests of x op y (first
    tree * rest, or a node's children split before the last by succ), so
    D(f) is one rule, ``_rule``'s D(x op y), minus D(h) for the other
    forests h of x op y.  Results are memoized per forest.

    ``cross_sign`` is the coefficient of the x (x) y cross term in both
    compatibility rules: +1 is the real coproduct; -1 and 0 are
    deliberately broken variants kept for negative-control verification.
    -1 gives exactly the negated coproduct, which the compatibility and
    deconcatenation checks detect.  0 drops the cross term, the only
    nonzero seed of the recursion, so the coproduct is identically zero;
    every forest is then primitive and the primitive-dimension witness
    detects it.
    """

    def __init__(self, cross_sign: int = 1):
        if cross_sign not in (1, 0, -1):
            raise ValueError("cross_sign must be +1, 0 or -1")
        self.cross_sign = cross_sign
        self._memo: dict[Forest, TensorElement] = {}

    def _rule(self, f: Forest, g: Forest, basis_op) -> Iterator[tuple[tuple[Slot, Slot], Rational]]:
        """The terms of D(f op g), where ``basis_op`` gives the forests of
        f op g: f_(1) (x) (f_(2) op g) + (f op g_(1)) (x) g_(2) plus the
        cross term cross_sign * f (x) g."""
        for (a, b), c in self.coproduct_basis(f)._terms.items():
            for h in basis_op(b, g):
                yield (a, h), c
        for (a, b), c in self.coproduct_basis(g)._terms.items():
            for h in basis_op(f, a):
                yield (h, b), c
        if self.cross_sign:
            yield (f, g), self.cross_sign

    def coproduct_basis(self, f: Forest) -> TensorElement:
        """The coproduct of a basis forest (arity-2 tensor)."""
        cached = self._memo.get(f)
        if cached is not None:
            return cached
        ts = f.trees
        if len(ts) > 1:  # first tree * rest
            x, y, op = Forest(ts[:1]), Forest(ts[1:]), _concat
        elif ts[0].is_leaf:  # generators are primitive
            result = self._memo[f] = TensorElement.zero(2)
            return result
        else:  # [c1, ..., cm] is a forest of (c1 ... c_{m-1}) succ cm
            cs = ts[0].children
            x, y, op = Forest(cs[:-1]), Forest(cs[-1:]), _succ_forests
        # Termination: the rule goes down in degree, and every other forest
        # of x op y has f's degree but at least two trees, so it goes down
        # the star rule.
        assert x.degree < f.degree and y.degree < f.degree
        terms = _collect(self._rule(x, y, op))
        for h in op(x, y):
            if h != f:
                assert len(h) > 1
                _collect(((key, -c) for key, c in self.coproduct_basis(h)._terms.items()), terms)
        result = self._memo[f] = TensorElement._of(terms, 2)
        return result

    def coproduct(self, x: Element) -> TensorElement:
        """Linear extension of coproduct_basis."""
        return TensorElement._of(_linear(x._terms, lambda f: self.coproduct_basis(f)._terms.items()), 2)


_DEFAULT_ENGINE = CoproductEngine()


def coproduct_basis(f: Forest) -> TensorElement:
    return _DEFAULT_ENGINE.coproduct_basis(f)


def coproduct(x: Element) -> TensorElement:
    return _DEFAULT_ENGINE.coproduct(x)


def apply_coproduct_at(
    t: TensorElement, index: int, engine: CoproductEngine | None = None
) -> TensorElement:
    """Apply the coproduct to one tensor slot, raising the arity by one."""
    engine = engine or _DEFAULT_ENGINE
    if any(key[index] is None for key in t._terms):
        raise ValueError("cannot apply the nonunital coproduct to a unit slot")
    return t._splice(index, 2, lambda f: engine.coproduct_basis(f)._terms.items())


def iterated_coproduct(x: Element, r: int, engine: CoproductEngine | None = None) -> TensorElement:
    """The r-fold coproduct: D applied to the first slot r-1 more times.

    Returns an arity r+1 tensor; r must be positive.
    """
    if r < 1:
        raise ValueError(f"iteration count must be positive, got {r}")
    engine = engine or _DEFAULT_ENGINE
    acc = engine.coproduct(x)
    for _ in range(r - 1):
        if acc.is_zero:
            return TensorElement.zero(r + 1)
        acc = apply_coproduct_at(acc, 0, engine)
    return acc


def is_primitive(x: Element, engine: CoproductEngine | None = None) -> bool:
    """True iff the coproduct of x vanishes."""
    engine = engine or _DEFAULT_ENGINE
    return engine.coproduct(x).is_zero


def filtration_level(x: Element, engine: CoproductEngine | None = None) -> int:
    """The least r with the r-fold coproduct of x equal to zero.

    Connectedness guarantees r <= max degree of x.  Returns 0 as the
    marker for the zero element, which lies in every filtration stage.
    """
    if x.is_zero:
        return 0
    engine = engine or _DEFAULT_ENGINE
    bound = x.max_degree()
    level = 1
    acc = engine.coproduct(x)
    while not acc.is_zero:
        level += 1
        if level > bound:
            raise AssertionError("filtration level exceeded the degree bound")
        acc = apply_coproduct_at(acc, 0, engine)
    return level


def coproduct_matrix(
    n: int, alphabet_size: int = 1, engine: CoproductEngine | None = None
) -> tuple[linalg.RatMatrix, list[Forest], list[tuple[Slot, ...]]]:
    """The matrix of the coproduct on the degree-n component.

    Columns are the canonical forest basis, rows the tensor keys that
    occur, both canonically ordered.
    """
    engine = engine or _DEFAULT_ENGINE
    forests = enumerate_forests(n, alphabet_size)
    images = [engine.coproduct_basis(f)._terms for f in forests]
    keys = sorted({key for img in images for key in img}, key=TensorElement._sort_key)
    return linalg._from_columns(keys, len(forests), images), forests, keys


def primitive_basis(
    n: int, alphabet_size: int = 1, engine: CoproductEngine | None = None
) -> list[Element]:
    """An exact basis of the primitives in degree n.

    Kernel vectors of the coproduct matrix, reduced row-echelon normalized
    over the canonical forest order with pivot coefficient 1.  For
    alphabet_size 1 the count is the n-th little Schroeder number.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    matrix, forests, _ = coproduct_matrix(n, alphabet_size, engine)
    return [Element._of({forests[j]: row[j] for j in sorted(row)}) for row in linalg.kernel_rows(matrix)]


def _resolve_op(which: str):
    if which in ("*", "star"):
        return star
    if which in (">", "succ", "≻"):
        return succ
    raise ValueError(f"operation must be 'star'/'*' or 'succ'/'>', got {which!r}")


def _rule_holds(x: LinComb, y: LinComb, op, cop, cross: int) -> bool:
    """Exact equality of both sides of a compatibility rule,

        cop(x op y) = x_(1) (x) (x_(2) op y) + (x op y_(1)) (x) y_(2) + cross * x (x) y,

    with Sweedler components taken for the coproduct ``cop``.  The left
    side applies ``cop`` to the expanded product; the right side is
    assembled from cop(x) and cop(y), a slot s standing for the basis
    element with key s.  Written apart from the engine's forest rule, so
    the two evaluations are independent.
    """
    basis = type(x)._of
    left = cop(x).map_slot(1, lambda b: op(basis({b: _ONE}), y)._terms.items())
    right = cop(y).map_slot(0, lambda a: op(x, basis({a: _ONE}))._terms.items())
    return cop(op(x, y)) == left + right + tensor_of_elements(x, y).scaled(cross)


def check_compatibility(
    x: Element, y: Element, which: str, engine: CoproductEngine | None = None
) -> bool:
    """The compatibility rule of ``which`` with the + cross term, both
    sides evaluated independently; this witnesses well-definedness."""
    return _rule_holds(x, y, _resolve_op(which), (engine or _DEFAULT_ENGINE).coproduct, 1)


# --- unital extension ---------------------------------------------------


class UnitalElement(LinComb):
    """An element of the unital extension: a linear combination of slots,
    where the slot None is the unit 1 and the forests span the
    augmentation ideal.  ``unit`` is the coefficient of 1 and ``body``
    the rest, as an Element."""

    __slots__ = ()

    def __init__(self, unit: Rational, body: Element):
        unit = _exact(unit)
        self._terms = {None: unit, **body._terms} if unit else dict(body._terms)

    _sort_key = staticmethod(_slot_key)

    @property
    def unit(self) -> Fraction:
        return self.coefficient(None)

    @property
    def body(self) -> Element:
        return Element._of({s: c for s, c in self._terms.items() if s is not None})

    @staticmethod
    def one(coeff: Rational = 1) -> UnitalElement:
        return UnitalElement(coeff, Element.zero())

    @staticmethod
    def from_element(x: Element) -> UnitalElement:
        return UnitalElement(0, x)

    def __str__(self) -> str:
        return format_unital_element(self)

    def __repr__(self) -> str:
        return f"UnitalElement({format_unital_element(self)!r})"


ONE = UnitalElement.one()


def unital_star(x: UnitalElement, y: UnitalElement) -> UnitalElement:
    """Concatenation with 1 as two-sided unit."""
    return UnitalElement._of(_bilinear(x, y, _concat))


def unital_succ(x: UnitalElement, y: UnitalElement) -> UnitalElement:
    """The magmatic product with 1 as two-sided unit."""
    return UnitalElement._of(_bilinear(x, y, _succ_forests))


def unital_ops(x: UnitalElement, y: UnitalElement, which: str) -> UnitalElement:
    op = _resolve_op(which)
    return unital_star(x, y) if op is star else unital_succ(x, y)


def unital_coproduct(x: UnitalElement, engine: CoproductEngine | None = None) -> TensorElement:
    """The unital coproduct d(x) = 1 (x) x + x (x) 1 + D(x) on the body,
    with d(1) = 1 (x) 1."""
    engine = engine or _DEFAULT_ENGINE

    def slot_coproduct(s: Slot):
        if s is None:
            return (((None, None), _ONE),)
        return [((None, s), _ONE), ((s, None), _ONE), *engine.coproduct_basis(s)._terms.items()]

    return TensorElement._of(_linear(x._terms, slot_coproduct), 2)


def check_unital_compatibility(
    x: UnitalElement, y: UnitalElement, which: str, engine: CoproductEngine | None = None
) -> bool:
    """The unital compatibility rules carry a minus sign on the cross term:

        d(x op y) = x_(1) (x) (x_(2) op y) + (x op y_(1)) (x) y_(2) - x (x) y

    with Sweedler components taken for d.  Both sides are evaluated
    independently and compared exactly.
    """
    op = unital_star if _resolve_op(which) is star else unital_succ
    return _rule_holds(x, y, op, lambda z: unital_coproduct(z, engine), -1)


# --- text form ----------------------------------------------------------


def _slot_text(s: Slot) -> str:
    return "1" if s is None else format_forest(s)


def format_tensor(t: TensorElement) -> str:
    """Canonical text of a tensor: factors joined by ' (x) ', unit slots
    printed as '1'; '0' for the zero tensor."""
    return _format_terms([(" (x) ".join(map(_slot_text, key)), c) for key, c in t._sorted()])


def format_unital_element(x: UnitalElement) -> str:
    return _format_terms([(_slot_text(s), c) for s, c in x._sorted()])


def parse_unital_element(text: str, alphabet_size: int | None = None) -> UnitalElement:
    """Parse the element grammar extended with '1' as the unit factor."""
    terms = _parse_element_into(_Cursor(text), alphabet_size, unital=True)
    return UnitalElement._of(_collect((s, c) for s, c in terms if c))
