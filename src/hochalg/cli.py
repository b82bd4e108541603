"""Command-line front end.

Exit codes: 0 success, 1 failed verification, 2 parse or usage error,
3 internal invariant violation.  All output is deterministic and
canonically ordered; re-parsing any printed element yields an equal one.
"""

from __future__ import annotations

import argparse
import sys

from . import verify
from .algebra import format_element, nary_bracket, parse_element, star, succ
from .coalgebra import (
    filtration_level,
    format_tensor,
    iterated_coproduct,
    parse_unital_element,
    primitive_basis,
    unital_coproduct,
)
from .trees import ParseError, enumerate_forests, enumerate_trees, format_forest, format_tree

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochalg",
        description="Exact computation in the free Hoch-algebra on planar rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate trees or forests of a given leaf count")
    p.set_defaults(handler=_cmd_enum)
    p.add_argument("kind", choices=("trees", "forests"))
    p.add_argument("--leaves", type=int, required=True, metavar="N")
    p.add_argument("--alphabet", type=int, default=1, metavar="M")

    p = sub.add_parser("op", help="apply a binary operation to two elements")
    p.set_defaults(handler=_cmd_op)
    p.add_argument("which", choices=("star", "succ"))
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.add_argument("--alphabet", type=int, default=None, metavar="M")

    p = sub.add_parser("coproduct", help="infinitesimal coproduct of an element")
    p.set_defaults(handler=_cmd_coproduct)
    p.add_argument("expr", nargs="?", metavar="EXPR")
    p.add_argument("--iterate", type=int, default=1, metavar="R")
    p.add_argument("--unital", action="store_true", help="unital coproduct on 1 + body")
    p.add_argument("--alphabet", type=int, default=None, metavar="M")
    p.add_argument("--from-file", metavar="FILE", help="batch: one expression per line")

    p = sub.add_parser("bracket", help="n-ary bracket of two or more elements")
    p.set_defaults(handler=_cmd_bracket)
    p.add_argument("exprs", nargs="*", metavar="EXPR")
    p.add_argument("--alphabet", type=int, default=None, metavar="M")
    p.add_argument("--from-file", metavar="FILE", help="read the arguments, one per line")

    p = sub.add_parser("primitive-basis", help="basis of the primitives in one degree")
    p.set_defaults(handler=_cmd_primitive_basis)
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--alphabet", type=int, default=1, metavar="M")

    p = sub.add_parser("dims", help="dimension table: enumeration vs series vs known values")
    p.set_defaults(handler=_cmd_dims)
    p.add_argument("--max-degree", type=int, required=True, metavar="N")
    p.add_argument("--tsv", action="store_true")

    p = sub.add_parser("verify", help="run verification suites; exit 0 iff all pass")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--max-degree", type=int, default=5, metavar="N")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify.SUITES) + ["all"],
        help="one suite, or 'all'",
    )
    p.add_argument("--tsv", action="store_true")

    p = sub.add_parser("filtration", help="least r whose r-fold coproduct kills the element")
    p.set_defaults(handler=_cmd_filtration)
    p.add_argument("expr", nargs="?", metavar="EXPR")
    p.add_argument("--alphabet", type=int, default=None, metavar="M")
    p.add_argument("--from-file", metavar="FILE", help="batch: one expression per line")

    return parser


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _batch_inputs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> list[str]:
    if args.from_file is not None:
        if args.expr is not None:
            parser.error("give either EXPR or --from-file, not both")
        return _read_lines(args.from_file)
    if args.expr is None:
        parser.error("an expression is required (or use --from-file)")
    return [args.expr]


def _cmd_enum(args, parser) -> int:
    if args.kind == "trees":
        for t in enumerate_trees(args.leaves, args.alphabet):
            print(format_tree(t))
    else:
        for f in enumerate_forests(args.leaves, args.alphabet):
            print(format_forest(f))
    return EXIT_OK


def _cmd_op(args, parser) -> int:
    x = parse_element(args.exprs[0], args.alphabet)
    y = parse_element(args.exprs[1], args.alphabet)
    result = star(x, y) if args.which == "star" else succ(x, y)
    print(format_element(result))
    return EXIT_OK


def _cmd_coproduct(args, parser) -> int:
    if args.iterate < 1:
        parser.error("--iterate must be at least 1")
    if args.unital and args.iterate != 1:
        parser.error("--iterate is only supported without --unital")
    for text in _batch_inputs(args, parser):
        if args.unital:
            x = parse_unital_element(text, args.alphabet)
            print(format_tensor(unital_coproduct(x)))
        else:
            elem = parse_element(text, args.alphabet)
            print(format_tensor(iterated_coproduct(elem, args.iterate)))
    return EXIT_OK


def _cmd_bracket(args, parser) -> int:
    texts = list(args.exprs)
    if args.from_file is not None:
        if texts:
            parser.error("give either EXPR arguments or --from-file, not both")
        texts = _read_lines(args.from_file)
    if len(texts) < 2:
        parser.error("bracket needs at least 2 expressions")
    elems = [parse_element(t, args.alphabet) for t in texts]
    print(format_element(nary_bracket(elems)))
    return EXIT_OK


def _cmd_primitive_basis(args, parser) -> int:
    for elem in primitive_basis(args.degree, args.alphabet):
        print(format_element(elem))
    return EXIT_OK


def _print_table(headers: list[str], rows: list[list[str]], tsv: bool) -> None:
    if tsv:
        print("\t".join(headers))
        for row in rows:
            print("\t".join(row))
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _cmd_dims(args, parser) -> int:
    headers = ["degree", "trees", "trees(series)", "trees(known)", "forests", "forests(series)", "forests(known)"]
    rows = [
        [str(n)] + ["-" if v is None else str(v) for v in (*trees, *forests)]
        for n, trees, forests in verify.dims_table(args.max_degree)
    ]
    _print_table(headers, rows, args.tsv)
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    results = verify.run_suites([args.suite], max_degree=args.max_degree)
    headers = ["status", "suite", "check"]
    rows = [["PASS" if r.passed else "FAIL", r.suite, r.name] for r in results]
    _print_table(headers, rows, args.tsv)
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_filtration(args, parser) -> int:
    for text in _batch_inputs(args, parser):
        elem = parse_element(text, args.alphabet)
        level = filtration_level(elem)
        print("zero-element" if level == 0 else level)
    return EXIT_OK


def run(argv: list[str]) -> int:
    """Parse argv, execute, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_degree", 1) < 1:  # dims and verify
            print("--max-degree must be at least 1", file=sys.stderr)
            return EXIT_PARSE
        return args.handler(args, parser)
    except SystemExit as exc:
        # argparse reports usage errors itself and exits 2
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
