"""Correctness gate, applied outside the timed region.

Two kinds of check, both needed:
- the outputs recorded at the benchmark's first commit (``expected.json``):
  exit codes and stdout digests of the CLI workloads, one output digest
  per expr_stream pool request;
- identities that do not depend on the code under test: the number of
  primitive-basis lines is the little Schroeder number (OEIS A001003),
  every printed element is well formed and homogeneous of the asked
  degree, verify ends in ``N/N checks passed``, a single-term star is the
  concatenation with the product coefficient, a single-term succ has
  len(f) * len(g) terms, and a filtration level lies in 1..degree.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import re
from fractions import Fraction

LITTLE_SCHROEDER = (1, 1, 3, 11, 45, 197, 903, 4279, 20793)
_TERM_SPLIT = re.compile(r" [+-] ")
_VERDICT = re.compile(r"^(\d+)/(\d+) checks passed$")


def forest_degree(text: str) -> int:
    """Leaf count of a forest in canonical text (trees separated by single
    spaces, no spaces inside brackets); ValueError if malformed."""
    degree = 0
    for tree in text.split(" "):
        children: list[int] = []  # child count of each open node
        expect_tree = True
        for ch in tree:
            if expect_tree and ch == "|":
                degree += 1
                expect_tree = False
            elif expect_tree and ch == "[":
                children.append(0)
            elif not expect_tree and ch in ",]" and children:
                children[-1] += 1
                if ch == "]":
                    if children.pop() < 2:
                        raise ValueError(f"node with fewer than 2 children in {text!r}")
                else:
                    expect_tree = True
            else:
                raise ValueError(f"malformed forest {text!r}")
        if expect_tree or children:
            raise ValueError(f"malformed forest {text!r}")
    return degree


def split_terms(text: str) -> list[tuple[Fraction, str]]:
    """(coefficient, basis text) of each term of a printed element or
    tensor; ValueError if a coefficient is malformed."""
    if text == "0":
        return []
    sign = -1 if text.startswith("-") else 1
    chunks = _TERM_SPLIT.split(text.lstrip("-"))
    signs = [sign] + [-1 if m == " - " else 1 for m in re.findall(r" [+-] ", text.lstrip("-"))]
    out = []
    for s, chunk in zip(signs, chunks):
        coeff, star, basis = chunk.partition("*")
        if not star:
            coeff, basis = "1", chunk
        out.append((s * Fraction(coeff), basis))
    return out


def element_degrees(text: str) -> list[int]:
    """Degree of each term of a printed element; ValueError if malformed."""
    return [forest_degree(basis) for _, basis in split_terms(text)]


def check_cli(workload: str, calls: list[dict], expected: list[dict]) -> list[str]:
    """Exit codes and digests against the record, and the identities on
    any call whose text was kept."""
    errors = []
    if len(calls) != len(expected):
        return [f"{workload}: {len(calls)} calls, expected {len(expected)}"]
    for call, exp in zip(calls, expected):
        name = " ".join(call["argv"])
        if call["rc"] != exp["rc"]:
            errors.append(f"{name}: exit code {call['rc']}, expected {exp['rc']}")
        if call["digest"] != exp["digest"]:
            errors.append(f"{name}: stdout digest {call['digest']}, expected {exp['digest']}")
        if call.get("text") is not None:
            errors += [f"{name}: {e}" for e in check_cli_text(call["argv"], call["text"])]
    return errors


def check_cli_text(argv: list[str], text: str) -> list[str]:
    lines = text.splitlines()
    if argv[0] == "verify":
        m = _VERDICT.match(lines[-1]) if lines else None
        if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 2:
            return [f"verify verdict line {lines[-1:]!r} is not N/N over the table"]
        if any(not line.startswith("PASS ") for line in lines[1:-1]):
            return ["verify table has a row that is not PASS"]
        return []
    if argv[0] == "primitive-basis":
        degree = int(argv[2])
        if len(lines) != LITTLE_SCHROEDER[degree - 1]:
            return [f"{len(lines)} primitives, expected {LITTLE_SCHROEDER[degree - 1]} (A001003)"]
        for line in lines:
            try:
                degrees = element_degrees(line)
            except ValueError as exc:
                return [f"unparsable primitive: {exc}"]
            if not degrees or set(degrees) != {degree}:
                return [f"primitive not homogeneous of degree {degree}: {line[:80]!r}"]
        return []
    return []


def _format_coeff(c: Fraction, basis: str) -> str:
    sign = "-" if c < 0 else ""
    return f"{sign}{basis}" if abs(c) == 1 else f"{sign}{abs(c)}*{basis}"


def check_expr(req: dict, res: dict, expected_digest: str) -> list[str]:
    """One expr_stream request: digest, then, when its output text was
    kept, the identities that apply."""
    errors = []
    where = f"request {res['index']} ({req['op']})"
    if res["digest"] != expected_digest:
        errors.append(f"{where}: output digest {res['digest']}, expected {expected_digest}")
    text = res.get("text")
    if text is None:
        return errors
    try:
        if "single" in req:
            (c1, f1), (c2, f2) = req["single"]
            c = Fraction(c1) * Fraction(c2)
            if req["op"] == "star":
                want = _format_coeff(c, " ".join(f1 + f2))
                if text != want:
                    errors.append(f"{where}: single-term star gave {text!r}, expected {want!r}")
            else:
                terms = split_terms(text)
                if len(terms) != len(f1) * len(f2) or any(k != c for k, _ in terms):
                    errors.append(f"{where}: single-term succ has {len(terms)} terms, expected "
                                  f"{len(f1) * len(f2)} each with coefficient {c}")
        if req["op"] == "filtration":
            bound = max(element_degrees(req["args"][0]))
            if not 1 <= int(text) <= bound:
                errors.append(f"{where}: filtration level {text} outside 1..{bound}")
        if req["op"] in ("star", "succ", "bracket2", "bracket3"):
            element_degrees(text)
    except ValueError as exc:
        errors.append(f"{where}: malformed output: {exc}")
    return errors
