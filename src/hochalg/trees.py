"""Planar rooted trees and forests.

A tree is either a leaf carrying a generator label, or an internal node
with an ordered tuple of at least two subtrees.  A forest is a nonempty
ordered word of trees.  Trees with n leaves are counted by the little
Schroeder numbers (A001003), forests by the large Schroeder numbers
(A006318).

All values are immutable; every function here is pure, so the module is
safe for concurrent use without locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence


class ParseError(ValueError):
    """Syntax error in the tree/forest/element text grammar.

    ``position`` is the 0-based offset into the input where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class PlanarTree:
    """A planar rooted tree.

    A leaf has ``children == ()`` and carries a generator ``label``
    (a nonnegative index into the generator alphabet).  An internal node
    has at least two ordered children and label 0.  The leaf count, sort
    key and hash are computed once, from the children's, by the
    constructor, which pickling and copying also go through.
    """

    label: int = 0
    children: tuple[PlanarTree, ...] = ()
    leaf_count: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cs = self.children
        if len(cs) == 1:
            raise ValueError("internal nodes need at least 2 children")
        if cs and self.label != 0:
            raise ValueError("only leaves carry generator labels")
        if self.label < 0:
            raise ValueError("generator labels are nonnegative")
        leaves = sum([c.leaf_count for c in cs]) if cs else 1
        key = (leaves, 1, tuple([c._key for c in cs])) if cs else (1, 0, self.label)
        object.__setattr__(self, "leaf_count", leaves)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.label, cs)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (PlanarTree, (self.label, self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def sort_key(self):
        """Canonical comparison key: leaf count, then leaf < internal, then
        the generator label (leaves) or the children keys (internal nodes)."""
        return self._key

    def __lt__(self, other: PlanarTree) -> bool:
        return self._key < other._key

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


@dataclass(frozen=True, slots=True)
class Forest:
    """A nonempty ordered word of planar rooted trees.  The degree (total
    number of leaves), sort key and hash are computed as for trees."""

    trees: tuple[PlanarTree, ...]
    degree: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ts = self.trees
        if not ts:
            raise ValueError("a forest holds at least one tree")
        degree = sum([t.leaf_count for t in ts])
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_key", (degree, -len(ts), tuple([t._key for t in ts])))
        object.__setattr__(self, "_hash", hash((ts,)))

    def __hash__(self) -> int:
        return self._hash

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

    def sort_key(self):
        """Canonical comparison key: degree ascending, then number of trees
        descending (the all-leaves word comes first in each degree), then
        trees compared left to right."""
        return self._key

    def __lt__(self, other: Forest) -> bool:
        return self._key < other._key

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


@lru_cache(maxsize=None)
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


def enumerate_trees(n: int, alphabet_size: int = 1) -> list[PlanarTree]:
    """All trees with exactly n leaves over the alphabet, canonically ordered.

    For alphabet_size 1 the count is the n-th little Schroeder number.
    """
    if n < 1:
        raise ValueError(f"leaf count must be positive, got {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be positive, got {alphabet_size}")
    return [f[0] for f in _forests_cached(n, alphabet_size) if len(f) == 1]


def enumerate_forests(n: int, alphabet_size: int = 1) -> list[Forest]:
    """All forests of total leaf count n, canonically ordered.

    For alphabet_size 1 the count is the n-th large Schroeder number.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet size must be positive, got {alphabet_size}")
    return list(_forests_cached(n, alphabet_size))


# --- text form ---------------------------------------------------------
#
#   tree   := '|' | '|' digits | '[' tree (',' tree)+ ']'
#   forest := tree (WS tree)*
#
# Whitespace is free inside brackets; at the top level one or more spaces
# separate the trees of a forest.  '|' with no digits means generator 0.


def format_tree(t: PlanarTree) -> str:
    if t.is_leaf:
        return "|" if t.label == 0 else f"|{t.label}"
    return "[" + ",".join(format_tree(c) for c in t.children) + "]"


def format_forest(f: Forest) -> str:
    """Canonical text: single spaces between trees, none inside brackets."""
    return " ".join(format_tree(t) for t in f.trees)


class _Cursor:
    """Scanner over the expression grammars, tracking the error position."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def digits(self) -> str:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return self.text[start:self.pos]

    def skip_ws(self) -> int:
        start = self.pos
        while self.peek() in (" ", "\t"):
            self.pos += 1
        return self.pos - start

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def fail(self, message: str) -> "ParseError":
        return ParseError(message, self.pos)


def _parse_tree(cur: _Cursor, alphabet_size: int | None) -> PlanarTree:
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
        children.append(_parse_tree(cur, alphabet_size))
        cur.skip_ws()
        if cur.peek() != ",":
            raise cur.fail("bracket nodes need at least 2 comma-separated children")
        while cur.peek() == ",":
            cur.advance()
            cur.skip_ws()
            children.append(_parse_tree(cur, alphabet_size))
            cur.skip_ws()
        cur.expect("]")
        return graft(children)
    raise cur.fail("expected a tree ('|' or '[')")


def _starts_tree(c: str) -> bool:
    return c in ("|", "[")


def _parse_forest(cur: _Cursor, alphabet_size: int | None) -> Forest:
    trees = [_parse_tree(cur, alphabet_size)]
    while True:
        mark = cur.pos
        ws = cur.skip_ws()
        if _starts_tree(cur.peek()):
            if ws == 0:
                raise cur.fail("expected whitespace between trees of a forest")
            trees.append(_parse_tree(cur, alphabet_size))
        else:
            cur.pos = mark
            return Forest(tuple(trees))


def parse_forest(text: str, alphabet_size: int | None = None) -> Forest:
    """Parse the forest grammar.  parse_forest(format_forest(f)) == f.

    When ``alphabet_size`` is given, generator labels outside the alphabet
    are rejected.  Raises ParseError with the failing position otherwise.
    """
    cur = _Cursor(text)
    cur.skip_ws()
    f = _parse_forest(cur, alphabet_size)
    cur.skip_ws()
    if not cur.at_end():
        raise cur.fail(f"unexpected {cur.peek()!r} after forest")
    return f


def parse_tree(text: str, alphabet_size: int | None = None) -> PlanarTree:
    """Parse a single tree; rejects trailing input."""
    cur = _Cursor(text)
    cur.skip_ws()
    t = _parse_tree(cur, alphabet_size)
    cur.skip_ws()
    if not cur.at_end():
        raise cur.fail(f"unexpected {cur.peek()!r} after tree")
    return t
