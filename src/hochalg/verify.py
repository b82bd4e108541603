"""Verification suites: each check recomputes an identity two ways.

Every suite returns a list of CheckResult and never raises on a FAIL; the
CLI turns the results into a PASS/FAIL table and an exit code.  Suites
accept an optional CoproductEngine so the negative-control tests can run
them against a deliberately broken coproduct; without one, every
coproduct falls back to the shared default engine of ``coalgebra``, so
one verify run fills one memo.

Every exhaustive sweep has the same shape: ``_basis_tuples`` enumerates
the tuples of basis elements of bounded total degree, degree by degree,
and ``_tally`` runs the identity on each and reports how many it saw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import linalg
from .algebra import (
    Element,
    format_element,
    nary_bracket,
    parse_element,
    pbw_basis_element,
    star,
    star_all,
    succ,
)
from .coalgebra import (
    ONE,
    CoproductEngine,
    TensorElement,
    UnitalElement,
    apply_coproduct_at,
    check_compatibility,
    check_unital_compatibility,
    filtration_level,
    is_primitive,
    iterated_coproduct,
    primitive_basis,
    tensor_of_elements,
    unital_coproduct,
    unital_ops,
)
from .series import (
    compose,
    geometric_series,
    hoch_series,
    large_by_convolution,
    schroeder,
    tinf_series,
)
from .trees import enumerate_forests, enumerate_trees, parse_forest

RANDOM_SEED = 271828
# A random element has 1..RANDOM_TERMS terms of degree 1..RANDOM_DEGREE;
# the cocycle suite draws RANDOM_TRIPLES triples of them.
RANDOM_DEGREE = 3
RANDOM_TERMS = 3
RANDOM_TRIPLES = 100

LITTLE_SCHROEDER = (1, 1, 3, 11, 45, 197, 903, 4279, 20793)
LARGE_SCHROEDER = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool


def random_element(rng: random.Random) -> Element:
    """A small random linear combination of basis forests."""
    terms = []
    for _ in range(rng.randint(1, RANDOM_TERMS)):
        degree = rng.randint(1, RANDOM_DEGREE)
        forests = enumerate_forests(degree)
        f = forests[rng.randrange(len(forests))]
        num = rng.randint(-9, 9) or 1
        den = rng.randint(1, 9)
        terms.append((f, Fraction(num, den)))
    return Element(terms)


def _elements(n: int) -> list[Element]:
    """The basis forests of degree n as elements."""
    return [Element.from_forest(f) for f in enumerate_forests(n)]


def _unital_basis(n: int) -> list[UnitalElement]:
    """The unital basis in degree n: 1 in degree 0, the forests above it."""
    return [ONE] if n == 0 else [UnitalElement.from_element(x) for x in _elements(n)]


def _basis_tuples(
    total: int, arity: int, basis: Callable[[int], Sequence] = _elements, lowest: int = 1
) -> Iterator[tuple]:
    """All tuples of arity basis elements, basis(d) in degree d >= lowest,
    whose degrees sum to at most total; one degree tuple at a time."""
    for degs in itertools.product(range(lowest, total + 1), repeat=arity):
        if sum(degs) <= total:
            yield from itertools.product(*map(basis, degs))


def _tally(suite: str, label: str, cases: Iterable[tuple], holds: Callable[..., bool]) -> CheckResult:
    """PASS iff holds(*case) for every case; ``{count}`` in label becomes
    the number of cases.  Every case runs, also after a failure."""
    count = bad = 0
    for case in cases:
        count += 1
        bad += not holds(*case)
    return CheckResult(suite, label.format(count=count), bad == 0)


# --- suites -------------------------------------------------------------


def dims_table(max_degree: int) -> list[tuple[int, tuple, tuple]]:
    """Per degree n = 1..max_degree: n, then for trees and for forests the
    triple (enumerated count, series coefficient, known Schroeder value or
    None past the table)."""
    pad = (None,) * max_degree
    kinds = (
        (enumerate_trees, tinf_series(max_degree), LITTLE_SCHROEDER + pad),
        (enumerate_forests, hoch_series(max_degree), LARGE_SCHROEDER + pad),
    )
    return [
        (n, *((len(enum(n)), s.coefficient(n), known[n - 1]) for enum, s, known in kinds))
        for n in range(1, max_degree + 1)
    ]


def suite_dims(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """Enumerated tree/forest counts against the series oracles and the
    known Schroeder values."""
    out = []
    for n, trees, forests in dims_table(max_degree):
        ok = all(count == series and known in (None, count) for count, series, known in (trees, forests))
        out.append(CheckResult("dims", f"degree {n}: trees={trees[0]} forests={forests[0]}", ok))
    return out


def suite_genfunc(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """Forest series == geometric composed with tree series; convolution
    identity for the large Schroeder numbers."""
    order = max(max_degree, 2)
    lhs = hoch_series(order)
    rhs = compose(geometric_series(order), tinf_series(order))
    out = [CheckResult("genfunc", f"composition identity to order {order}", lhs == rhs)]
    conv_ok = all(
        large_by_convolution(n) == schroeder("large", n) for n in range(1, min(order, 9) + 1)
    )
    out.append(CheckResult("genfunc", f"convolution identity to order {min(order, 9)}", conv_ok))
    return out


def suite_products(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """The two worked magmatic products, term for term."""
    checks = [
        ("| | |", "|", "| | [|,|] + | [|,|,|] + [|,|,|,|]"),
        ("|", "| [|,|]", "[|,|] [|,|] + [|,|,[|,|]]"),
    ]
    out = []
    for left, right, expected in checks:
        got = format_element(succ(parse_element(left), parse_element(right)))
        out.append(CheckResult("products", f"({left}) succ ({right})", got == expected))
    return out


def _cocycle_holds(x: Element, y: Element, z: Element) -> bool:
    lhs = star(succ(x, y), z) + succ(star(x, y), z)
    rhs = succ(x, star(y, z)) + star(x, succ(y, z))
    return lhs == rhs


def suite_cocycle(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """The Hochschild two-cocycle relation, exhaustively on basis triples
    of bounded total degree and on seeded random elements."""
    rng = random.Random(RANDOM_SEED)
    randoms = ((random_element(rng), random_element(rng), random_element(rng)) for _ in range(RANDOM_TRIPLES))
    label = f"all {{count}} basis triples, total degree <= {max_degree}"
    return [
        _tally("cocycle", label, _basis_tuples(max_degree, 3), _cocycle_holds),
        _tally("cocycle", "{count} random element triples", randoms, _cocycle_holds),
    ]


def suite_coassoc(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """(D (x) id) D == (id (x) D) D on all basis forests."""

    def coassociative(x: Element) -> bool:
        d = iterated_coproduct(x, 1, engine)
        return apply_coproduct_at(d, 0, engine) == apply_coproduct_at(d, 1, engine)

    label = f"all {{count}} basis forests, degree <= {max_degree}"
    return [_tally("coassoc", label, _basis_tuples(max_degree, 1), coassociative)]


def suite_compat(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """Both compatibility rules, recursion versus formula, on all basis
    pairs of bounded total degree."""
    return [
        _tally(
            "compat",
            f"{which} rule on {{count}} basis pairs, total degree <= {max_degree}",
            _basis_tuples(max_degree, 2),
            lambda x, y: check_compatibility(x, y, which, engine),
        )
        for which in ("star", "succ")
    ]


def suite_filtration(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """Connectedness: the filtration level never exceeds the degree, and
    the degree-fold coproduct vanishes."""

    def connected(x: Element) -> bool:
        n = x.max_degree()
        return 1 <= filtration_level(x, engine) <= n and iterated_coproduct(x, n, engine).is_zero

    label = f"all {{count}} basis forests, degree <= {max_degree}"
    return [_tally("filtration", label, _basis_tuples(max_degree, 1), connected)]


def suite_primdims(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """dim Prim in each degree equals the little Schroeder number."""
    out = []
    for n in range(1, max_degree + 1):
        size = len(primitive_basis(n, engine=engine))
        out.append(CheckResult("primdims", f"degree {n}: dim Prim = {size}", size == schroeder("little", n)))
    return out


def pbw_matrix(n: int) -> linalg.RatMatrix:
    """Change-of-basis matrix of the PBW elements over the canonical
    forest basis in degree n (rows and columns canonically ordered)."""
    forests = enumerate_forests(n)
    return linalg._from_columns(forests, len(forests), (pbw_basis_element(f)._terms for f in forests))


def _unitriangular(m: linalg.RatMatrix) -> bool:
    """Upper unitriangular: for the PBW matrix, pbw(f) = f + strictly
    earlier forests in the canonical order, coefficient 1 on f."""
    return all(m.entry(i, i) == 1 and min(m._rows[i]) == i for i in range(m.nrows))


def suite_pbw(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """PBW change of basis is unitriangular and invertible per degree."""
    out = []
    for n in range(1, max_degree + 1):
        m = pbw_matrix(n)
        ok = _unitriangular(m) and linalg.is_invertible(m)
        out.append(CheckResult("pbw", f"degree {n}: unitriangular and invertible", ok))
    return out


def deconcatenation_tensor(primitives: list[Element]) -> TensorElement:
    """Expected coproduct of a product of primitives: the sum of the k-1
    ways to cut the word in two."""
    acc = TensorElement.zero(2)
    for i in range(1, len(primitives)):
        acc = acc + tensor_of_elements(star_all(primitives[:i]), star_all(primitives[i:]))
    return acc


def suite_brackets(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """Brackets of primitives are primitive; products of primitives
    deconcatenate."""
    bases = {n: primitive_basis(n, engine=engine) for n in range(1, max_degree)}
    # the words of 2, 3 and 4 primitives are the bracket arguments
    words = {arity: list(_basis_tuples(max_degree, arity, bases.__getitem__)) for arity in (2, 3, 4)}

    def deconcatenates(*word: Element) -> bool:
        return iterated_coproduct(star_all(word), 1, engine) == deconcatenation_tensor(list(word))

    out = [
        _tally(
            "brackets",
            f"{arity}-ary brackets of primitives ({{count}} cases), total degree <= {max_degree}",
            words[arity],
            lambda *word: is_primitive(nary_bracket(list(word)), engine),
        )
        for arity in words
    ]
    label = f"deconcatenation of primitive products ({{count}} cases), total degree <= {max_degree}"
    return [*out, _tally("brackets", label, itertools.chain(*words.values()), deconcatenates)]


def suite_unital(max_degree: int, engine: CoproductEngine | None = None) -> list[CheckResult]:
    """The unit laws, the two pinned coproduct values, and the minus-sign
    relations on all unital basis pairs of bounded total degree."""
    out = []
    d_one = unital_coproduct(ONE, engine)
    out.append(CheckResult("unital", "d(1) = 1 (x) 1", d_one == TensorElement(2, {(None, None): 1})))
    bar = UnitalElement.from_element(Element.from_forest(parse_forest("|")))
    d_bar = unital_coproduct(bar, engine)
    expected = TensorElement(2, {(None, parse_forest("|")): 1, (parse_forest("|"), None): 1})
    out.append(CheckResult("unital", "d(|) = 1 (x) | + | (x) 1", d_bar == expected))
    out.extend(
        _tally(
            "unital",
            f"minus-sign {which} rule on {{count}} unital basis pairs, total degree <= {max_degree}",
            _basis_tuples(max_degree, 2, _unital_basis, lowest=0),
            lambda x, y: check_unital_compatibility(x, y, which, engine),
        )
        for which in ("star", "succ")
    )
    first = itertools.islice(_basis_tuples(max_degree, 1, _unital_basis, lowest=0), 10)
    unit_law_ok = all(
        unital_ops(ONE, x, w) == x and unital_ops(x, ONE, w) == x
        for (x,) in first
        for w in ("star", "succ")
    )
    out.append(CheckResult("unital", "1 is a two-sided unit for both operations", unit_law_ok))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "dims": suite_dims,
    "genfunc": suite_genfunc,
    "products": suite_products,
    "cocycle": suite_cocycle,
    "coassoc": suite_coassoc,
    "compat": suite_compat,
    "filtration": suite_filtration,
    "primdims": suite_primdims,
    "pbw": suite_pbw,
    "brackets": suite_brackets,
    "unital": suite_unital,
}


def run_suites(
    names: Iterable[str], max_degree: int = 5, engine: CoproductEngine | None = None
) -> list[CheckResult]:
    """Run the named suites in the registry order; 'all' runs everything.

    Every suite sweeps up to the given degree bound (total degree for the
    pair/triple sweeps, truncation order for genfunc).
    """
    requested = list(names)
    if "all" in requested:
        requested = list(SUITES)
    unknown = [n for n in requested if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results: list[CheckResult] = []
    for name in SUITES:
        if name not in requested:
            continue
        results.extend(SUITES[name](max_degree=max_degree, engine=engine))
    return results
