"""The benchmark's own tests, at smoke size.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def table_rows(stdout: str) -> dict[str, tuple[str, float, int]]:
    """metric -> (unit, median, samples) from the printed tables."""
    rows = {}
    workload = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            workload = line.split()[1]
        elif workload and line.split() and not line.startswith(("metric", "{", "GATE", "note")):
            name, unit, value, n = line.split()
            rows[f"{workload}.{name}"] = (unit, float(value), int(n))
    return rows


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit_and_samples(trace, key):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    rows = table_rows(proc.stdout)
    for workload in run.WORKLOADS:
        for metric in BENCH[key]:
            name = f"{workload}.{metric['name']}"
            assert result["metrics"][name]["unit"] == metric["unit"]
            unit, _, samples = rows[name]
            assert unit == metric["unit"] and samples >= 1
        assert rows[f"{workload}.failed_frac"][1] == 0
        if trace == 0:
            assert all(result["metrics"][f"{workload}.{m['name']}"]["value"] > 0 for m in BENCH[key])
    assert proc.stdout.startswith("env ")
    env = json.loads(proc.stdout.splitlines()[0][4:])
    assert {"python", "cpu", "nproc", "git_commit"} <= set(env)


def test_corrupted_digest_fails_gate(tmp_path, monkeypatch, capsys):
    """Negative control: one wrong recorded digest per workload must count
    as a failed operation and fail the gate."""
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    expected["smoke"]["verify_d5"][0]["digest"] = "0" * 16
    expected["smoke"]["certify_d6"][1]["digest"] = "0" * 16
    expected["expr_pool_digests"][gen.stream(1)[0]] = "0" * 16
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    for workload in run.WORKLOADS:
        code = run.main(["--workload", workload, "--seed", "1", "--smoke", "--seconds", "1"])
        stdout = capsys.readouterr().out
        result = json.loads(stdout.splitlines()[-1])
        assert code == 1
        assert not result["correct"] and result["failed"] >= 1
        assert table_rows(stdout)[f"{workload}.failed_frac"][1] > 0


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, exit nonzero
    without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify_d5", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_identities_catch_wrong_outputs():
    assert gate.forest_degree("| [|,[|,|]] |") == 5
    for bad in ("[|]", "[|,|", "|,|", "||", "[|,|]]", ""):
        with pytest.raises(ValueError):
            gate.forest_degree(bad)
    assert gate.split_terms("-3/2*| | + [|,|] - 5*|") == [(-1.5, "| |"), (1, "[|,|]"), (-5, "|")]
    primitives = ["| | | |", "[|,|] | |", "| [|,|] |"]
    assert gate.check_cli_text(["primitive-basis", "--degree", "4"], "\n".join(primitives))
    assert gate.check_cli_text(["verify"], "status  suite  check\nPASS  a  b\n0/1 checks passed")
    req = {"op": "succ", "args": ["2*| |", "3*|"], "single": [["2", ["|", "|"]], ["3", ["|"]]]}
    good = {"index": 0, "digest": "d", "text": "6*| [|,|] + 6*[|,|,|]"}
    assert gate.check_expr(req, good, "d") == []
    assert gate.check_expr(req, {**good, "text": "6*[|,|,|]"}, "d")
    star = {"op": "star", "args": ["2*| |", "-1/2*|"], "single": [["2", ["|", "|"]], ["-1/2", ["|"]]]}
    assert gate.check_expr(star, {"index": 0, "digest": "d", "text": "-| | |"}, "d") == []


def test_stream_is_seeded():
    assert gen.stream(7) == gen.stream(7) != gen.stream(8)
    assert sorted(gen.stream(7)) == list(range(gen.POOL_SIZE))
    assert gen.pool_request(5) == gen.pool_request(5)
