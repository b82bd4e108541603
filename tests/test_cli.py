import time

import pytest

from hochalg import verify
from hochalg.algebra import parse_element
from hochalg.cli import run


# a tree 1,200 levels deep: deeper than the recursion limit lets the parser go
DEEP = "[|," * 1200 + "|" + "]" * 1200


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


class TestEnum:
    def test_trees(self, capsys):
        assert run(["enum", "trees", "--leaves", "3"]) == 0
        assert out_lines(capsys) == ["[|,|,|]", "[|,[|,|]]", "[[|,|],|]"]

    def test_forests(self, capsys):
        assert run(["enum", "forests", "--leaves", "2"]) == 0
        assert out_lines(capsys) == ["| |", "[|,|]"]

    def test_alphabet(self, capsys):
        assert run(["enum", "trees", "--leaves", "1", "--alphabet", "3"]) == 0
        assert out_lines(capsys) == ["|", "|1", "|2"]

    def test_invalid_leaves(self, capsys):
        assert run(["enum", "trees", "--leaves", "0"]) == 2


class TestOp:
    def test_succ_worked_product(self, capsys):
        assert run(["op", "succ", "| | |", "|"]) == 0
        assert out_lines(capsys) == ["| | [|,|] + | [|,|,|] + [|,|,|,|]"]

    def test_star(self, capsys):
        assert run(["op", "star", "2*|", "| - [|,|]"]) == 0
        assert out_lines(capsys) == ["2*| | - 2*| [|,|]"]

    def test_parse_error_exit_code(self, capsys):
        assert run(["op", "star", "[|]", "|"]) == 2
        assert "parse error" in capsys.readouterr().err


class TestCoproduct:
    def test_generator_is_primitive(self, capsys):
        assert run(["coproduct", "|"]) == 0
        assert out_lines(capsys) == ["0"]

    def test_word(self, capsys):
        assert run(["coproduct", "| |"]) == 0
        assert out_lines(capsys) == ["| (x) |"]

    def test_iterated(self, capsys):
        assert run(["coproduct", "| | |", "--iterate", "2"]) == 0
        assert out_lines(capsys) == ["| (x) | (x) |"]

    def test_iteration_stops_once_the_tensor_is_zero(self, capsys):
        start = time.monotonic()
        assert run(["coproduct", "[|,|]", "--iterate", str(10**9)]) == 0
        assert out_lines(capsys) == ["0"]
        assert time.monotonic() - start < 5

    def test_unital(self, capsys):
        assert run(["coproduct", "1 + |", "--unital"]) == 0
        assert out_lines(capsys) == ["1 (x) 1 + 1 (x) | + | (x) 1"]

    def test_unital_with_iterate_rejected(self, capsys):
        assert run(["coproduct", "|", "--unital", "--iterate", "2"]) == 2

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "exprs.txt"
        path.write_text("|\n| |\n[|,|] - | |\n")
        assert run(["coproduct", "--from-file", str(path)]) == 0
        assert out_lines(capsys) == ["0", "| (x) |", "0"]

    def test_expr_and_file_conflict(self, tmp_path, capsys):
        path = tmp_path / "exprs.txt"
        path.write_text("|\n")
        assert run(["coproduct", "|", "--from-file", str(path)]) == 2


class TestBracket:
    def test_binary(self, capsys):
        assert run(["bracket", "|", "|"]) == 0
        assert out_lines(capsys) == ["-| | + [|,|]"]

    def test_ternary(self, capsys):
        assert run(["bracket", "|", "|", "|"]) == 0
        assert out_lines(capsys) == ["[|,|,|]"]

    def test_too_few_arguments(self, capsys):
        assert run(["bracket", "|"]) == 2

    def test_arguments_from_file(self, tmp_path, capsys):
        path = tmp_path / "args.txt"
        path.write_text("|\n|\n|\n|\n")
        assert run(["bracket", "--from-file", str(path)]) == 0
        assert out_lines(capsys) == ["[|,|,|,|]"]


class TestPrimitiveBasis:
    def test_degree_two(self, capsys):
        assert run(["primitive-basis", "--degree", "2"]) == 0
        assert out_lines(capsys) == ["| | - [|,|]"]

    def test_degree_three_count(self, capsys):
        assert run(["primitive-basis", "--degree", "3"]) == 0
        assert len(out_lines(capsys)) == 3

    def test_printed_elements_reparse(self, capsys):
        assert run(["primitive-basis", "--degree", "4"]) == 0
        from hochalg.coalgebra import coproduct

        for line in out_lines(capsys):
            elem = parse_element(line)
            assert coproduct(elem).is_zero


class TestDims:
    def test_table_rows(self, capsys):
        assert run(["dims", "--max-degree", "5", "--tsv"]) == 0
        lines = out_lines(capsys)
        assert lines[0].split("\t") == [
            "degree", "trees", "trees(series)", "trees(known)",
            "forests", "forests(series)", "forests(known)",
        ]
        forests = [(row.split("\t")[0], row.split("\t")[4]) for row in lines[1:]]
        assert forests == [("1", "1"), ("2", "2"), ("3", "6"), ("4", "22"), ("5", "90")]

    def test_aligned_output(self, capsys):
        assert run(["dims", "--max-degree", "3"]) == 0
        lines = out_lines(capsys)
        assert lines[0].startswith("degree")
        assert len(lines) == 4

    def test_wrong_known_value_fails_in_its_degree(self, monkeypatch, capsys):
        # negative control: the suite reads the same table that dims prints
        wrong = list(verify.LITTLE_SCHROEDER)
        wrong[3] = 12
        monkeypatch.setattr(verify, "LITTLE_SCHROEDER", tuple(wrong))
        results = verify.suite_dims(5)
        assert [r.passed for r in results] == [True, True, True, False, True]
        assert run(["dims", "--max-degree", "5", "--tsv"]) == 0
        assert out_lines(capsys)[4].split("\t")[:4] == ["4", "11", "11", "12"]


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run(["verify", "--max-degree", "4", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_single_suite(self, capsys):
        assert run(["verify", "--max-degree", "4", "--suite", "cocycle"]) == 0
        out = capsys.readouterr().out
        assert "cocycle" in out
        assert "coassoc" not in out

    def test_unknown_suite_rejected(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2

    @pytest.mark.parametrize("suite", ["genfunc", "primdims", "all"])
    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_max_degree_below_one_rejected(self, capsys, suite, degree):
        assert run(["verify", "--max-degree", degree, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--max-degree must be at least 1\n"


class TestFiltration:
    def test_levels(self, capsys):
        assert run(["filtration", "| | |"]) == 0
        assert out_lines(capsys) == ["3"]

    def test_zero_element(self, capsys):
        assert run(["filtration", "0"]) == 0
        assert out_lines(capsys) == ["zero-element"]

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "exprs.txt"
        path.write_text("|\n| |\n")
        assert run(["filtration", "--from-file", str(path)]) == 0
        assert out_lines(capsys) == ["1", "2"]


class TestContract:
    def test_unknown_flag_rejected(self, capsys):
        assert run(["enum", "trees", "--leaves", "2", "--frobnicate"]) == 2

    def test_parse_error_reports_position(self, capsys):
        assert run(["coproduct", "[|,"]) == 2
        assert "position" in capsys.readouterr().err

    def test_internal_invariant_violation_exits_three(self, capsys, monkeypatch):
        def broken(x, y):
            raise AssertionError("deliberately broken for the exit-code contract")

        monkeypatch.setattr("hochalg.cli.succ", broken)
        assert run(["op", "succ", "|", "|"]) == 3
        assert "internal invariant violation" in capsys.readouterr().err

    def test_unknown_command_rejected(self, capsys):
        assert run(["transmogrify"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["filtration", DEEP],
            ["op", "star", DEEP, "|"],
            ["op", "succ", "|", DEEP],
            ["coproduct", DEEP],
            ["coproduct", "--unital", "1 + " + DEEP],
            ["bracket", DEEP, "|"],
        ],
        ids=["filtration", "op-left", "op-right", "coproduct", "coproduct-unital", "bracket"],
    )
    def test_deeply_nested_input_exits_two(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input nested too deeply\n"

    @pytest.mark.parametrize("command", ["coproduct", "bracket", "filtration"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, command, target):
        path = tmp_path / "absent.txt" if target == "missing" else tmp_path
        assert run([command, "--from-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "No such file or directory" if target == "missing" else "Is a directory"
        assert captured.err == f"error: cannot read {path}: {reason}\n"

    def test_printed_elements_roundtrip(self, capsys):
        from hochalg.algebra import nary_bracket, succ

        assert run(["op", "succ", "| [|,|]", "3/2*| - |1"]) == 0
        line = out_lines(capsys)[-1]
        expected = succ(parse_element("| [|,|]"), parse_element("3/2*| - |1"))
        assert parse_element(line) == expected

        assert run(["bracket", "| - 2*[|,|]", "|"]) == 0
        line = out_lines(capsys)[-1]
        expected = nary_bracket([parse_element("| - 2*[|,|]"), parse_element("|")])
        assert parse_element(line) == expected
