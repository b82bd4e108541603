"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case replays one command line through ``cli.run`` in-process and
compares with the files under ``tests/golden/``: ``<name>.out`` holds
stdout, and ``expected.json`` holds the exit code and stderr of every
case.  To re-record after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of ``tests/golden/``.  Commands run from the root of
the repository, where the ``--from-file`` cases find their ``.in`` files;
their lines repeat terms in new positions and spacing, so a warm parse is
checked in one process.

``verify_all_8.out`` is not a case here: it is the stdout of
``verify --max-degree 8 --suite all``, which CI compares with ``diff -u``
(``.github/workflows/tests.yml``).  As a case it would add about 7 s to
these tests.  ``record`` does not rewrite it; re-record it by running that
command.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from hochalg.cli import run

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED = GOLDEN_DIR / "expected.json"

CASES: dict[str, list[str]] = {
    "enum_trees_5": ["enum", "trees", "--leaves", "5"],
    "enum_forests_5": ["enum", "forests", "--leaves", "5"],
    "enum_trees_5_alphabet_2": ["enum", "trees", "--leaves", "5", "--alphabet", "2"],
    "op_star_rational": ["op", "star", "3/2*| - 2/7*[|,|]", "-1/3*| | + 5*[|,[|,|]]"],
    "op_succ_rational": ["op", "succ", "1/2*| [|,|] - 3*| |", "2/3*| - [|,|] |"],
    "coproduct_iterate_2": ["coproduct", "| [|,|] | - 1/2*[|,|,|] |", "--iterate", "2"],
    "coproduct_iterate_3": ["coproduct", "[|,|] | | + 4/5*[[|,|],|,|]", "--iterate", "3"],
    "coproduct_unital_mixed": ["coproduct", "--unital", "1 + | - 3/2*[|,|] | |"],
    "coproduct_unital_unit": ["coproduct", "--unital", "2*1"],
    "coproduct_unital_zero": ["coproduct", "--unital", "0"],
    "bracket_ternary": ["bracket", "| - 1/2*[|,|]", "| |", "2*|"],
    "bracket_quaternary": ["bracket", "2/3*| [|,|] - [|,|]", "| + 1/2*|1", "3*| |", "|1 | - 5/4*[|,|1]"],
    "primitive_basis_5": ["primitive-basis", "--degree", "5"],
    "primitive_basis_3_alphabet_2": ["primitive-basis", "--degree", "3", "--alphabet", "2"],
    "dims_8": ["dims", "--max-degree", "8"],
    "dims_tsv": ["dims", "--max-degree", "6", "--tsv"],
    "verify_all_5": ["verify", "--max-degree", "5", "--suite", "all"],
    "verify_all_6": ["verify", "--max-degree", "6", "--suite", "all"],
    "verify_unital_4_tsv": ["verify", "--max-degree", "4", "--suite", "unital", "--tsv"],
    "verify_pbw_6": ["verify", "--max-degree", "6", "--suite", "pbw"],
    "filtration": ["filtration", "| [|,|] | - 2*[|,[|,|]] |"],
    "filtration_zero": ["filtration", "0"],
    "coproduct_batch": ["coproduct", "--from-file", "tests/golden/coproduct_batch.in"],
    "filtration_batch": ["filtration", "--from-file", "tests/golden/filtration_batch.in"],
    "parse_error_unary_node": ["op", "star", "[|]", "|"],
    "parse_error_coefficient": ["coproduct", "3 |"],
    "parse_error_non_ascii_digit": ["filtration", "|²"],
    "parse_error_non_ascii_label": ["op", "star", "|٣", "|", "--alphabet", "5"],
}


def replay(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def record() -> None:
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    expected = {}
    for name, argv in CASES.items():
        code, out, err = replay(argv)
        (GOLDEN_DIR / f"{name}.out").write_text(out, encoding="utf-8")
        expected[name] = {"argv": argv, "exit": code, "stderr": err}
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_case_is_recorded(expected):
    assert sorted(expected) == sorted(CASES)
    for name, argv in CASES.items():
        assert expected[name]["argv"] == argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = replay(CASES[name])
    want_out = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert out == want_out
    assert err == expected[name]["stderr"]
    assert code == expected[name]["exit"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
