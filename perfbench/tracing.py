"""Span tracer that wraps hochalg's public functions from outside.

``install`` re-binds every wrapped function under each name it has in the
hochalg modules (``star`` in algebra, coalgebra and verify, and so on),
the two ``CoproductEngine`` methods, and each entry of ``verify.SUITES``,
so calls that cross module boundaries are seen.  Spans are aggregated in
memory per function: call count, self time (inclusive time minus the time
of the wrapped calls inside it) and outermost inclusive time.  Nothing in
the program is changed on disk and no private attribute is read.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict

# module -> public functions wrapped in it
TARGETS = {
    "trees": ["enumerate_trees", "enumerate_forests", "parse_forest", "parse_tree", "format_forest"],
    "algebra": [
        "star", "succ", "nary_bracket", "tree_to_primitive", "pbw_basis_element",
        "parse_element", "format_element",
    ],
    "coalgebra": [
        "coproduct", "coproduct_basis", "apply_coproduct_at", "iterated_coproduct",
        "is_primitive", "filtration_level", "unital_coproduct", "coproduct_matrix",
        "primitive_basis", "check_compatibility", "check_unital_compatibility", "unital_ops",
        "unital_star", "unital_succ", "format_tensor", "format_unital_element",
        "parse_unital_element",
    ],
    "linalg": ["rref", "rank", "kernel_basis", "is_invertible"],
    "series": [
        "compose", "geometric_series", "tinf_series", "hoch_series", "schroeder",
        "large_by_convolution",
    ],
    "verify": ["run_suites", "random_element", "pbw_matrix", "deconcatenation_tensor"],
    "cli": ["run"],
}
ENGINE_METHODS = ["coproduct_basis", "coproduct"]
SUITE_NAMES = [
    "dims", "genfunc", "products", "cocycle", "coassoc", "compat", "filtration",
    "primdims", "pbw", "brackets", "unital",
]

# per-layer time metric -> spans whose self times it sums
SELF_TIME = {
    "trees.enumerate_s": ["trees.enumerate_trees", "trees.enumerate_forests"],
    "algebra.star_s": ["algebra.star"],
    "algebra.succ_s": ["algebra.succ"],
    "algebra.bracket_s": ["algebra.nary_bracket"],
    "algebra.pbw_element_s": ["algebra.pbw_basis_element", "algebra.tree_to_primitive"],
    "algebra.parse_s": [
        "algebra.parse_element", "trees.parse_forest", "trees.parse_tree",
        "coalgebra.parse_unital_element",
    ],
    "algebra.format_s": ["algebra.format_element", "trees.format_forest"],
    "coalgebra.coproduct_s": [
        "CoproductEngine.coproduct_basis", "CoproductEngine.coproduct", "coalgebra.coproduct",
        "coalgebra.coproduct_basis", "coalgebra.apply_coproduct_at",
        "coalgebra.iterated_coproduct", "coalgebra.is_primitive", "coalgebra.filtration_level",
        "coalgebra.unital_coproduct",
    ],
    "coalgebra.compat_check_s": [
        "coalgebra.check_compatibility", "coalgebra.check_unital_compatibility",
        "coalgebra.unital_ops", "coalgebra.unital_star", "coalgebra.unital_succ",
    ],
    "coalgebra.matrix_s": ["coalgebra.coproduct_matrix", "coalgebra.primitive_basis", "verify.pbw_matrix"],
    "coalgebra.format_s": ["coalgebra.format_tensor", "coalgebra.format_unital_element"],
    "linalg.kernel_s": ["linalg.kernel_basis", "linalg.rref"],
    "linalg.rank_s": ["linalg.rank", "linalg.is_invertible"],
    "series.s": [f"series.{name}" for name in TARGETS["series"]],
    "verify.self_s": [
        "verify.run_suites", "verify.random_element", "verify.deconcatenation_tensor",
        *(f"verify.suite.{name}" for name in SUITE_NAMES),
    ],
    "cli.self_s": ["cli.run"],
}
# linalg entry points whose input matrix is counted (is_invertible delegates to rank)
LINALG_COUNTED = ("linalg.rref", "linalg.rank", "linalg.kernel_basis")


class Span:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Aggregates spans of wrapped calls; one per traced process."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counters: dict[str, int] = defaultdict(int)
        # child time of each open span, innermost last
        self._open: list[float] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs
        outside the span and is charged to no span's self time."""
        span = self.spans[name]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            span.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - open_spans.pop()
                if not span.depth:
                    span.incl_s += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                hook_start = clock()
                after(args, result)
                if open_spans:
                    open_spans[-1] += clock() - hook_start
            return result

        return traced

    # --- counters read from arguments and results through the public API

    def _count_terms(self, args, result) -> None:
        self.counters["algebra.terms_out"] += len(result.terms())

    def _count_coproduct_basis(self, args, result) -> None:
        engine, forest = args[0], args[1]
        seen = self._seen.setdefault(engine, set())
        self.counters["coalgebra.coproduct_basis_calls"] += 1
        if forest not in seen:
            seen.add(forest)
            self.counters["coalgebra.memo_misses"] += 1

    def _count_matrix(self, args, result) -> None:
        m = args[0]
        self.counters["linalg.calls"] += 1
        self.counters["linalg.nnz_in"] += sum(len(m.row(i)) for i in range(m.nrows))
        self.counters["linalg.cells_in"] += m.nrows * m.ncols

    def install(self) -> None:
        """Wrap the targets in the imported hochalg package."""
        import hochalg
        from hochalg import algebra, cli, coalgebra, linalg, series, trees, verify

        modules = {
            "trees": trees, "algebra": algebra, "coalgebra": coalgebra, "linalg": linalg,
            "series": series, "verify": verify, "cli": cli,
        }
        hooks = {"algebra.star": self._count_terms, "algebra.succ": self._count_terms}
        hooks.update({name: self._count_matrix for name in LINALG_COUNTED})
        namespaces = [vars(hochalg), *(vars(m) for m in modules.values())]
        for mod_name, names in TARGETS.items():
            for fname in names:
                fn = getattr(modules[mod_name], fname)
                name = f"{mod_name}.{fname}"
                self._rebind(namespaces, fn, self.wrap(name, fn, hooks.get(name)))
        engine = coalgebra.CoproductEngine
        for meth in ENGINE_METHODS:
            fn = getattr(engine, meth)
            after = self._count_coproduct_basis if meth == "coproduct_basis" else None
            setattr(engine, meth, self.wrap(f"CoproductEngine.{meth}", fn, after))
        for name in SUITE_NAMES:
            fn = verify.SUITES[name]
            wrapped = self.wrap(f"verify.suite.{name}", fn)
            verify.SUITES[name] = wrapped
            self._rebind(namespaces, fn, wrapped)

    @staticmethod
    def _rebind(namespaces, fn, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if value is fn:
                    ns[attr] = wrapped

    def report(self, stdout_bytes: int) -> dict[str, float]:
        """The per-layer metrics of the traced process, except the
        overhead, which needs an untraced run to compare against."""
        spans, counters = self.spans, self.counters
        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(spans[n].self_s for n in names if n in spans)
        for name in SUITE_NAMES:
            out[f"verify.suite.{name}_s"] = spans[f"verify.suite.{name}"].incl_s
        calls = counters["coalgebra.coproduct_basis_calls"]
        misses = counters["coalgebra.memo_misses"]
        out.update(
            {
                "trees.enumerate_calls": spans["trees.enumerate_trees"].calls
                + spans["trees.enumerate_forests"].calls,
                "algebra.star_calls": spans["algebra.star"].calls,
                "algebra.succ_calls": spans["algebra.succ"].calls,
                "algebra.terms_out": counters["algebra.terms_out"],
                "coalgebra.coproduct_basis_calls": calls,
                "coalgebra.memo_misses": misses,
                "coalgebra.memo_hit_ratio": (calls - misses) / calls if calls else 0.0,
                "linalg.calls": counters["linalg.calls"],
                "linalg.nnz_in": counters["linalg.nnz_in"],
                "linalg.cells_in": counters["linalg.cells_in"],
                "cli.stdout_bytes": stdout_bytes,
            }
        )
        return out
