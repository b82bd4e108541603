"""Seeded request generator for the expr_stream workload.

Writes random planar trees, forests and elements as text in the hochalg
grammar with its own composition sampler; it imports nothing from
hochalg, so the program under test receives only generated text.

The requests form a fixed pool (drawn from POOL_SEED) whose output
digests are recorded in ``expected.json``; a run's seed picks the order
in which it sends them, so every request of every seed has a recorded
expected output.
"""

from __future__ import annotations

import random
from fractions import Fraction

POOL_SEED = 20081
POOL_SIZE = 2000
SMOKE_STREAM_LEN = 60

# op name -> (weight, arity, max degree of each operand)
OP_MIX = {
    "star": (20, 2, 5),
    "succ": (20, 2, 5),
    "bracket2": (15, 2, 5),
    "bracket3": (10, 3, 3),
    "coproduct": (15, 1, 7),
    "unital_coproduct": (10, 1, 6),
    "filtration": (10, 1, 5),
}
MAX_TERMS = 4


def composition(rng: random.Random, n: int, parts: int) -> list[int]:
    """A uniform composition of n into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0] + cuts + [n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def tree_text(rng: random.Random, n: int) -> str:
    """A random planar tree with n leaves, every internal node of arity >= 2."""
    if n == 1:
        return "|"
    parts = rng.randint(2, min(n, 4))
    return "[" + ",".join(tree_text(rng, k) for k in composition(rng, n, parts)) + "]"


def forest_trees(rng: random.Random, degree: int) -> list[str]:
    """The trees of a random forest of the given degree, left to right."""
    parts = rng.randint(1, min(degree, 4))
    return [tree_text(rng, k) for k in composition(rng, degree, parts)]


def coefficient(rng: random.Random) -> Fraction:
    """A rational coefficient other than 0, 1 and -1."""
    while True:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c not in (0, 1, -1):
            return c


def element_terms(rng: random.Random, max_degree: int, n_terms: int) -> list[tuple[Fraction, list[str]]]:
    """Distinct (coefficient, trees) terms of a random element."""
    terms: list[tuple[Fraction, list[str]]] = []
    seen: set[str] = set()
    while len(terms) < n_terms:
        trees = forest_trees(rng, rng.randint(1, max_degree))
        key = " ".join(trees)
        if key not in seen:
            seen.add(key)
            terms.append((coefficient(rng), trees))
    return terms


def element_text(terms: list[tuple[Fraction, list[str]]], unit: Fraction | None = None) -> str:
    """The element in the input grammar, e.g. '-3/2*[|,|] + 5*| |'; a
    nonzero ``unit`` adds a multiple of the unit '1' as the first term."""
    chunks = [] if unit is None else [(unit, "1")]
    chunks += [(c, " ".join(trees)) for c, trees in terms]
    out = []
    for idx, (c, body) in enumerate(chunks):
        sign = ("- " if c < 0 else "+ ") if idx else ("-" if c < 0 else "")
        out.append(f"{sign}{abs(c)}*{body}")
    return " ".join(out)


def request(rng: random.Random) -> dict:
    """One request: an op name, its operands as text, and for single-term
    products each operand's coefficient and trees (for the gate)."""
    names = list(OP_MIX)
    op = rng.choices(names, weights=[OP_MIX[n][0] for n in names])[0]
    _, arity, max_degree = OP_MIX[op]
    operands = [element_terms(rng, max_degree, rng.randint(1, MAX_TERMS)) for _ in range(arity)]
    unit = coefficient(rng) if op == "unital_coproduct" and rng.random() < 0.5 else None
    req = {"op": op, "args": [element_text(t, unit) for t in operands]}
    if op in ("star", "succ") and all(len(t) == 1 for t in operands):
        req["single"] = [[str(t[0][0]), t[0][1]] for t in operands]
    return req


def pool_request(i: int) -> dict:
    """Request i of the fixed pool, drawn from its own generator so that a
    stream builds only the requests it sends."""
    return request(random.Random(POOL_SEED * 1_000_000 + i))


def stream(seed: int) -> list[int]:
    """Pool indices in the order a run with this seed sends them."""
    return random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)
