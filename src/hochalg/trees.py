"""Planar rooted trees and forests.

A tree is either a leaf carrying a generator label, or an internal node
with an ordered tuple of at least two subtrees.  A forest is a nonempty
ordered word of trees.  Trees with n leaves are counted by the little
Schroeder numbers (A001003), forests by the large Schroeder numbers
(A006318).

Trees and forests are hash-consed: a constructor returns the live object
equal to its arguments when there is one, so equal values are one object
and ``==`` and ``hash`` are identity.  Values are read-only and keep their
canonical text once it is first formatted.  A lookup that finds a live
value takes no lock; only building a new value holds the one module lock,
so the module is safe for concurrent use.

Each character parser has a text memo in front of it: here the run of
forest characters at a forest's start, with the alphabet size, maps to its
forest, and in ``algebra`` each term of an element.  A text is stripped of
trailing spaces and tabs, and what follows it is spaces and then a
character outside its grammar, or the end of the input, so it parses the
same way in any context.  An entry is written only from the character
parser's own result, and only once the whole input has parsed, so every
miss and every error goes through the character parser.  Such a parse
ended at the end of its text, so no position is checked: in an input that
parses, a term or a forest is followed by spaces and then '+', '-' or the
end of the input, while its text holds no '+' or '-' and does not end in
a space.  A memo is a plain dict (a race at worst parses a text twice) of
at most 16,384 entries, cleared when full, and no text longer than 128
characters is stored.
"""

from __future__ import annotations

import functools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Iterator, Sequence


class ParseError(ValueError):
    """Syntax error in the tree/forest/element text grammar.

    ``position`` is the 0-based offset into the input where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_LOCK = threading.Lock()
_set = object.__setattr__


class _Entry(weakref.ref):
    __slots__ = ("key",)  # a table entry knows its key


class _Value:
    """Base of the hash-consed, read-only values, ordered by ``_key``.  Each
    subclass's table ``_made`` maps a constructor key to an ``_Entry``, which
    its value's death removes only while dead (as ``WeakValueDictionary``)."""

    __slots__ = ("_key", "_text", "__weakref__")  # _text: None until first formatted

    def __init_subclass__(cls):
        made = cls._made = {}
        # the helper is bound as a default: globals may be gone when the last values die
        cls._forget = lambda entry, remove=_remove_dead_weakref: remove(made, entry.key)

    @classmethod
    def _build(cls, key):
        """The miss path: under the lock, look again, else build and enter the value."""
        with _LOCK:
            entry = cls._made.get(key)
            self = entry and entry()
            if self is None:
                self = object.__new__(cls)
                self._fill(key)
                _set(self, "_text", None)
                entry = cls._made[key] = _Entry(self, cls._forget)
                entry.key = key
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def sort_key(self):
        """Canonical comparison key (see the subclass)."""
        return self._key

    def __lt__(self, other) -> bool:
        return self._key < other._key


class PlanarTree(_Value):
    """A planar rooted tree.

    A leaf has ``children == ()`` and carries a generator ``label``
    (a nonnegative index into the generator alphabet).  An internal node
    has at least two ordered children and label 0.  The leaf count and
    sort key are computed once, from the children's, when the tree is
    first built.  The sort key orders by leaf count, then leaf before
    internal node, then the generator label (leaves) or the children's
    keys (internal nodes).
    """

    __slots__ = ("label", "children", "leaf_count")

    def __new__(cls, label: int = 0, children: tuple[PlanarTree, ...] = ()):
        if len(children) == 1:
            raise ValueError("internal nodes need at least 2 children")
        if children and label != 0:
            raise ValueError("only leaves carry generator labels")
        if label < 0:
            raise ValueError("generator labels are nonnegative")
        entry = cls._made.get((label, children))
        self = entry and entry()
        return cls._build((label, children)) if self is None else self

    def _fill(self, key):
        label, children = key
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "leaf_count", sum([c.leaf_count for c in children]) if children else 1)
        _set(self, "_key", (self.leaf_count, 1, tuple([c._key for c in children])) if children else (1, 0, label))

    def __reduce__(self):
        return (PlanarTree, (self.label, self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __str__(self) -> str:
        return format_tree(self)

    def __repr__(self) -> str:
        return f"PlanarTree({format_tree(self)!r})"


def leaf(label: int = 0) -> PlanarTree:
    """The single-leaf tree for the given generator."""
    return PlanarTree(label=label)


def graft(children: Sequence[PlanarTree]) -> PlanarTree:
    """Join the given trees under a new common root.

    Raises ValueError unless at least two children are supplied; unary and
    nullary nodes are not in the tree family.
    """
    children = tuple(children)
    if len(children) < 2:
        raise ValueError(f"graft needs at least 2 children, got {len(children)}")
    return PlanarTree(children=children)


def decompose(t: PlanarTree) -> tuple[PlanarTree, ...]:
    """The unique tuple (t1, ..., tp), p >= 2, with t = graft(t1, ..., tp).

    Raises ValueError on a leaf, which has no such decomposition.
    """
    if t.is_leaf:
        raise ValueError("a leaf cannot be decomposed")
    return t.children


class Forest(_Value):
    """A nonempty ordered word of planar rooted trees, hash-consed like
    trees.  The sort key orders by degree (total number of leaves)
    ascending, then number of trees descending (the all-leaves word comes
    first in each degree), then trees compared left to right."""

    __slots__ = ("trees", "degree")

    def __new__(cls, trees: tuple[PlanarTree, ...]):
        if not trees:
            raise ValueError("a forest holds at least one tree")
        entry = cls._made.get(trees)
        self = entry and entry()
        return cls._build(trees) if self is None else self

    def _fill(self, trees):
        _set(self, "trees", trees)
        _set(self, "degree", sum([t.leaf_count for t in trees]))
        _set(self, "_key", (self.degree, -len(trees), tuple([t._key for t in trees])))

    def __reduce__(self):
        return (Forest, (self.trees,))

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[PlanarTree]:
        return iter(self.trees)

    def __getitem__(self, i):
        return self.trees[i]

    def concat(self, other: Forest) -> Forest:
        return Forest(self.trees + other.trees)

    def __str__(self) -> str:
        return format_forest(self)

    def __repr__(self) -> str:
        return f"Forest({format_forest(self)!r})"


def forest(*trees: PlanarTree) -> Forest:
    return Forest(tuple(trees))


def compare(a: Forest, b: Forest) -> int:
    """Total order on forests: -1, 0 or 1 as a <, == or > b canonically."""
    return (a._key > b._key) - (a._key < b._key)


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


@functools.cache
def _forests_cached(n: int, alphabet_size: int) -> tuple[Forest, ...]:
    """All forests of degree n, canonically ordered.  A forest of several
    trees is a tree (a one-tree forest) followed by a forest; a tree is a
    leaf or, above degree 1, the graft of a forest of several trees."""
    several = [
        f.concat(rest)
        for k in range(1, n)
        for f in _forests_cached(k, alphabet_size)
        if len(f) == 1
        for rest in _forests_cached(n - k, alphabet_size)
    ]
    trees = [leaf(a) for a in range(alphabet_size)] if n == 1 else [graft(f.trees) for f in several]
    return tuple(sorted([Forest((t,)) for t in trees] + several, key=Forest.sort_key))


def _check_alphabet(alphabet_size: int | None) -> None:
    """Refuse an alphabet of no generators (None means any label)."""
    if alphabet_size is not None and alphabet_size < 1:
        raise ValueError(f"alphabet size must be positive, got {alphabet_size}")


def enumerate_trees(n: int, alphabet_size: int = 1) -> list[PlanarTree]:
    """All trees with exactly n leaves over the alphabet, canonically ordered.

    For alphabet_size 1 the count is the n-th little Schroeder number.
    """
    if n < 1:
        raise ValueError(f"leaf count must be positive, got {n}")
    _check_alphabet(alphabet_size)
    return [f[0] for f in _forests_cached(n, alphabet_size) if len(f) == 1]


def enumerate_forests(n: int, alphabet_size: int = 1) -> list[Forest]:
    """All forests of total leaf count n, canonically ordered.

    For alphabet_size 1 the count is the n-th large Schroeder number.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    _check_alphabet(alphabet_size)
    return list(_forests_cached(n, alphabet_size))


# --- text form ---------------------------------------------------------
#
#   tree   := '|' | '|' digits | '[' tree (',' tree)+ ']'
#   forest := tree (WS tree)*
#
# Spaces and tabs are free inside brackets; at the top level one or more
# of them separate the trees of a forest.  Digits are ASCII 0-9, and '|'
# with no digits means generator 0.


def format_tree(t: PlanarTree) -> str:
    if t._text is None:
        inner = ",".join([format_tree(c) for c in t.children])
        _set(t, "_text", f"[{inner}]" if t.children else f"|{t.label or ''}")
    return t._text


def format_forest(f: Forest) -> str:
    """Canonical text: single spaces between trees, none inside brackets."""
    if f._text is None:
        _set(f, "_text", " ".join([format_tree(t) for t in f.trees]))
    return f._text


_WS = (" ", "\t")
_DIGITS = frozenset("0123456789")


# the text memos (module docstring)
_MEMO_ENTRIES = 1 << 14  # a memo that is full is cleared
_MEMO_TEXT = 128  # a longer text is parsed every time
_FOREST_RUN = re.compile(r"[\[\]|,0-9 \t]*[\[\]|,0-9]")
_FOREST_MEMO: dict[tuple[str, int | None], Forest] = {}


def _remember(pending: list) -> None:
    """Write the (memo, key, value) entries of an input that has parsed."""
    for memo, key, value in pending:
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        memo[key] = value


def _skip_ws(text: str, pos: int) -> int:
    """The position after the spaces and tabs at ``pos``."""
    while text[pos:pos + 1] in _WS:
        pos += 1
    return pos


def _skip_digits(text: str, pos: int) -> int:
    """The position after the digits (ASCII 0-9 only) at ``pos``."""
    while text[pos:pos + 1] in _DIGITS:
        pos += 1
    return pos


def _parse_tree(text: str, pos: int, alphabet_size: int | None) -> tuple[PlanarTree, int]:
    """The tree at ``pos`` and the position after it.  The open brackets are
    an explicit stack of children lists, so nesting costs no recursion."""
    open_nodes: list[list[PlanarTree]] = []
    while True:
        pos = _skip_ws(text, pos)  # free before a child (callers start on the tree)
        c = text[pos:pos + 1]
        if c == "[":
            open_nodes.append([])
            pos += 1
            continue
        if c != "|":
            raise ParseError("expected a tree ('|' or '[')", pos)
        start, pos = pos + 1, _skip_digits(text, pos + 1)
        label = int(text[start:pos]) if pos > start else 0
        if alphabet_size is not None and label >= alphabet_size:
            raise ParseError(f"unknown generator label {label} (alphabet size {alphabet_size})", pos)
        node = PlanarTree(label)
        while open_nodes:  # close the brackets that this tree ends
            children = open_nodes[-1]
            children.append(node)
            pos = _skip_ws(text, pos)
            c = text[pos:pos + 1]
            if c == ",":
                pos += 1
                break
            if len(children) == 1:
                raise ParseError("bracket nodes need at least 2 comma-separated children", pos)
            if c != "]":
                raise ParseError("expected ']'", pos)
            pos += 1
            node = PlanarTree(children=tuple(open_nodes.pop()))
        else:
            return node, pos


def _parse_forest(text: str, pos: int, alphabet_size: int | None, pending: list) -> tuple[Forest, int]:
    """The forest at ``pos`` and the position after its last tree.  The run
    of forest characters at ``pos`` is looked up in ``_FOREST_MEMO`` first;
    a miss parses the trees and goes on ``pending``, which the caller
    writes once its text has parsed."""
    run = _FOREST_RUN.match(text, pos)
    if run is not None:
        end = run.end()
        key = (text[pos:end], alphabet_size)
        f = _FOREST_MEMO.get(key)
        if f is not None:
            return f, end
    tree, at = _parse_tree(text, pos, alphabet_size)
    trees = [tree]
    while True:
        start = _skip_ws(text, at)
        if text[start:start + 1] not in ("|", "["):
            f = Forest(tuple(trees))
            if run is not None and end - pos <= _MEMO_TEXT:
                pending.append((_FOREST_MEMO, key, f))
            return f, at
        if start == at:
            raise ParseError("expected whitespace between trees of a forest", at)
        tree, at = _parse_tree(text, start, alphabet_size)
        trees.append(tree)


def _expect_end(text: str, pos: int, what: str) -> None:
    pos = _skip_ws(text, pos)
    if pos < len(text):
        raise ParseError(f"unexpected {text[pos]!r} after {what}", pos)


def parse_forest(text: str, alphabet_size: int | None = None) -> Forest:
    """Parse the forest grammar.  parse_forest(format_forest(f)) == f.

    When ``alphabet_size`` is given, generator labels outside the alphabet
    are rejected.  Raises ParseError with the failing position otherwise.
    """
    _check_alphabet(alphabet_size)
    pending: list = []
    f, pos = _parse_forest(text, _skip_ws(text, 0), alphabet_size, pending)
    _expect_end(text, pos, "forest")
    _remember(pending)
    return f


def parse_tree(text: str, alphabet_size: int | None = None) -> PlanarTree:
    """Parse a single tree; rejects trailing input."""
    _check_alphabet(alphabet_size)
    t, pos = _parse_tree(text, _skip_ws(text, 0), alphabet_size)
    _expect_end(text, pos, "tree")
    return t
