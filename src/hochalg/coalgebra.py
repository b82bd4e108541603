"""The infinitesimal coproduct on the span of forests.

The coproduct D kills the generators (single leaves) and satisfies the
compatibility rules (Aguiar, Contemp. Math. 267, 2000; Sweedler sums)

    D(x * y) = x_(1) (x) (x_(2) * y) + (x * y_(1)) (x) y_(2) + x (x) y
    D(x succ y) = x_(1) (x) (x_(2) succ y) + (x succ y_(1)) (x) y_(2) + x (x) y.

It is computed by the cut rule, with no subtraction.  The cuts of a tree
are pairs (a, b) of trees: a leaf has none, and t = [c1, ..., cm] has
(a, [b, c2, ..., cm]) for each cut (a, b) of c1, then (c1, c2) if m = 2,
then ([c1, ..., c_{m-1}, a], b) for each cut (a, b) of cm.  D of a forest
t1 ... tr is the sum of its cuts u (x) v, each with coefficient 1: the
deconcatenations t1 ... ti (x) t_{i+1} ... tr, i < r, and for each cut
(a, b) of each ti, t1 ... t_{i-1} a (x) b t_{i+1} ... tr.  The three
clauses give left factors of degree < |c1|, = |c1| and > |c1 ... c_{m-1}|,
and a cut of ti lies strictly between the deconcatenations around ti, so
no two cuts have left factors of one degree: the terms are distinct.

Proof that the cut rule is D.  (1) The rules determine D, degree by
degree: a forest of several trees is t1 * (t2 ... tr), under the star
rule, and a tree [c1, ..., cm] is (c1 ... c_{m-1}) succ cm minus forests
of its degree with several trees, under the succ and star rules.  The cut
rule kills leaves, so it is D once it satisfies both rules on all basis
forests f = t1 ... tp and g = s1 ... sq.  Both sides are sums of cuts
with coefficient 1, so it suffices to match them one for one.
(2) Star rule.  A cut of fg is a cut u (x) v of f, read u (x) v g; the
deconcatenation f (x) g; or a cut u (x) v of g, read f u (x) v: the three
sums of the rule.
(3) Succ rule.  f succ g is the sum over 0 <= i < p and 1 <= k <= q of
h = t1 ... t_{p-i-1} T s_{k+1} ... sq, T = [t_{p-i}, ..., tp, s1, ..., sk].
The cuts of h left of T (after tj, j < p - i, or inside such a tj) are
the cuts of f whose f_(2) ends in t_{p-i} ... tp, with that suffix
bracketed in f_(2) succ g.  A cut of T from its first-child clause, for a
cut (a, b) of t_{p-i}, is f's cut (a, b), with all of
f_(2) = b t_{p-i+1} ... tp bracketed.  The binary clause fires only for
T = [tp, s1] and gives f (x) g.  The last-child clause and the cuts right
of T mirror these as the terms (f succ g_(1)) (x) g_(2).  Conversely, a
cut of f with a nonempty suffix of its f_(2) bracketed is a cut left of T
when the suffix is whole trees of f, and a first-child cut of T when it
starts at the b of a cut (a, b) of a tree; mirrored for g.
(4) With the cross term of both rules scaled by s (the negative controls'
s = 0 or -1), s * D satisfies them, and by (1) nothing else does.  The
``compat`` suite checks both rules on all basis pairs up to its degree.

Primitives are the kernel of D; their dimension in each degree is a
little Schroeder number, the witness that forests are cofree over the
span of trees.  The unital extension adjoins 1, a two-sided unit of both
products, with d(x) = 1 (x) x + x (x) 1 + D(x), which satisfies the same
rules with the cross term subtracted instead of added.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping
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
    _exact,
    _format_terms,
    _items,
    _linear,
    _parse_terms,
    _succ_forests,
    star,
    succ,
)
from .trees import Forest, PlanarTree, enumerate_forests, format_forest

# A tensor slot is a basis forest, or None for the unit 1 of the unital
# extension (nonunital operations never produce None slots).
Slot = Forest | None


def _slot_key(s: Slot):
    """Canonical order of slots: the unit before every forest."""
    return (0, 0, ()) if s is None else s._key


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
        return tuple(map(_slot_key, key))

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
        return self._splice(index, 1, lambda slot: (((s,), d) for s, d in fn(slot)))

    def _splice(self, index: int, width: int, image) -> TensorElement:
        """Substitute for slot ``index`` the ``width`` slots of each
        (slots, nonzero coefficient) pair of image(slot), linearly."""
        terms = _collect(
            (key[:index] + inner + key[index + 1:], c * d)
            for key, c in self._terms.items()
            for inner, d in image(key[index])
        )
        return self._of(terms, self.arity + width - 1)

    def __str__(self) -> str:
        return format_tensor(self)

    def __repr__(self) -> str:
        return f"TensorElement({self.arity}, {format_tensor(self)!r})"


def tensor_of_elements(*factors: LinComb) -> TensorElement:
    """The tensor x1 (x) ... (x) xk of elements, expanded bilinearly.

    The factors may be unital elements, whose unit is the slot None.
    """
    if not factors:
        raise ValueError("tensor arity must be positive, got 0")
    terms: dict = {(): _ONE}
    for x in factors:  # the keys stay distinct, so nothing is collected
        terms = {key + (s,): c * d for key, c in terms.items() for s, d in x._terms.items()}
    return TensorElement._of(terms, len(factors))


@functools.cache
def _cuts(t: PlanarTree) -> tuple[tuple[PlanarTree, PlanarTree], ...]:
    """The cuts (a, b) of a tree, pairs of trees (module docstring)."""
    if t.is_leaf:
        return ()
    cs = t.children
    first = [(a, PlanarTree(children=(b,) + cs[1:])) for a, b in _cuts(cs[0])]
    last = [(PlanarTree(children=cs[:-1] + (a,)), b) for a, b in _cuts(cs[-1])]
    binary = [(cs[0], cs[1])] if len(cs) == 2 else []
    return tuple(first + binary + last)


@functools.cache
def _cut_coproduct(f: Forest) -> TensorElement:
    """D(f) by the cut rule: its deconcatenations and its trees' cuts."""
    ts = f.trees
    cuts = [(ts[:i], ts[i:]) for i in range(1, len(ts))]
    cuts += [(ts[:i] + (a,), (b,) + ts[i + 1:]) for i, t in enumerate(ts) for a, b in _cuts(t)]
    return TensorElement._of({(Forest(u), Forest(v)): _ONE for u, v in cuts}, 2)


class CoproductEngine:
    """The coproduct D scaled by ``cross_sign``, the coefficient of the
    x (x) y cross term in both compatibility rules (module docstring, 4).
    +1 is the real coproduct; -1 and 0 are deliberately broken variants
    for negative-control verification.  -D is caught by the compatibility
    and deconcatenation checks, and 0, under which every forest is
    primitive, by the primitive-dimension witness.
    """

    def __init__(self, cross_sign: int = 1):
        if cross_sign not in (1, 0, -1):
            raise ValueError("cross_sign must be +1, 0 or -1")
        self.cross_sign = cross_sign

    def coproduct_basis(self, f: Forest) -> TensorElement:
        """The coproduct of a basis forest (arity-2 tensor)."""
        d = _cut_coproduct(f)
        return d if self.cross_sign == 1 else d.scaled(self.cross_sign)

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

    With D(x) = sum_b x_b (x) b over its distinct right factors b (basis
    forests, so independent), D^r(x) = sum_b D^(r-1)(x_b) (x) b: the level
    of x is 1 + the largest level of the x_b, each of lower degree.  As
    level(c x) = level(x) for c != 0, x is scaled to integer coefficients.
    """
    engine = engine or _DEFAULT_ENGINE

    @functools.cache
    def level(terms: frozenset) -> int:
        lefts: dict[Forest, dict] = {}
        for (a, b), c in engine.coproduct(Element._of(dict(terms)))._terms.items():
            lefts.setdefault(b, {})[a] = c
        return 1 + max((level(frozenset(x_b.items())) for x_b in lefts.values()), default=0)

    m = math.lcm(*[c.denominator for c in x._terms.values()])
    scaled = frozenset([(f, c.numerator * (m // c.denominator)) for f, c in x._terms.items()])
    result = level(scaled) if scaled else 0
    if result > x.max_degree():
        raise AssertionError("filtration level exceeded the degree bound")
    return result


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
    return [Element._of({forests[j]: c for j, c in vec.items()}) for vec in linalg._kernel_vectors(matrix)]


def _resolve_op(which: str):
    if which in ("*", "star"):
        return star
    if which in (">", "succ", "≻"):
        return succ
    raise ValueError(f"operation must be 'star'/'*' or 'succ'/'>', got {which!r}")


def _rule_holds(x: LinComb, y: LinComb, op, cop, cross: int, factor_cop=None) -> bool:
    """Exact equality of both sides of a compatibility rule,

        cop(x op y) = x_(1) (x) (x_(2) op y) + (x op y_(1)) (x) y_(2) + cross * x (x) y,

    with Sweedler components taken for the coproduct ``cop``.  The left
    side applies ``cop`` to the expanded product; the right side is
    assembled from cop(x) and cop(y) (or ``factor_cop``, a sweep's memo),
    a slot s standing for the basis element with key s.  Written apart
    from the cut rule, so the two evaluations are independent.
    """
    basis = type(x)._of
    left = (factor_cop or cop)(x).map_slot(1, lambda b: op(basis({b: _ONE}), y)._terms.items())
    right = (factor_cop or cop)(y).map_slot(0, lambda a: op(x, basis({a: _ONE}))._terms.items())
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
    return UnitalElement._of(_collect(_parse_terms(text, alphabet_size, unital=True)))
