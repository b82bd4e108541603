"""The hochalg benchmark: drives the library from outside, one fresh
interpreter per measured request sequence.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_d5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1

Workloads (see perfbench/README.md for why each exists):
  verify_d5    cli.run(["verify", "--max-degree", "5", "--suite", "all"])
  certify_d6   cli.run(["primitive-basis", "--degree", "6"]) then
               cli.run(["verify", "--max-degree", "6", "--suite", "pbw"])
  expr_stream  a closed loop with one client over seeded text requests

With ``--trace 0`` each worker process is measured untraced until the
next one would end past ``--seconds``, and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced workers alternate, and
the per-layer metrics come from the traced ones.  Every output is checked
(gate.py) after the timed region.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when the gate fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("verify_d5", "certify_d6", "expr_stream")
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 120

E2E_UNITS = {
    "verdict_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    **{m: "s" for m in tracing.SELF_TIME},
    **{f"verify.suite.{n}_s": "s" for n in tracing.SUITE_NAMES},
    "trees.enumerate_calls": "count",
    "algebra.star_calls": "count",
    "algebra.succ_calls": "count",
    "algebra.terms_out": "count",
    "coalgebra.coproduct_basis_calls": "count",
    "coalgebra.memo_misses": "count",
    "coalgebra.memo_hit_ratio": "ratio",
    "linalg.calls": "count",
    "linalg.nnz_in": "count",
    "linalg.cells_in": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run (no program to drive, a worker died)."""


def spawn(config: dict) -> tuple[float, dict]:
    """Run one worker to completion; (monotonic spawn time, its result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {config} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return start, json.loads(proc.stdout)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Spawn workers for ``seconds``; return the raw samples."""
    base = {"workload": workload, "seed": seed, "smoke": smoke}

    def setup_sample() -> float:
        start, res = spawn({**base, "setup_only": True})
        return res["ready"] - start

    setup_sample()  # warm the bytecode cache; not counted
    plain, with_trace, setups = [], [], []
    began = time.monotonic()
    while True:
        for is_traced in (False, True) if traced else (False,):
            start, res = spawn({**base, "trace": is_traced, "keep_outputs": not plain})
            res["setup_s"] = res["ready"] - start
            setups.append(res["setup_s"])
            (with_trace if is_traced else plain).append(res)
        # spread the set-up samples over the run rather than bunching them
        for _ in range(2):
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample())
        rounds = len(plain)
        per_round = (time.monotonic() - began) / rounds
        if time.monotonic() - began + per_round > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    return {"setups": setups, "plain": plain, "traced": with_trace}


def check(workload: str, samples: list[dict], smoke: bool, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every worker's outputs."""
    attempted = failed = 0
    errors: list[str] = []
    if workload == "expr_stream":
        want = expected["expr_pool_digests"]
        requests: dict[int, dict] = {}
        for sample in samples:
            for res in sample["results"]:
                idx = res["index"]
                req = requests.setdefault(idx, gen.pool_request(idx))
                errs = gate.check_expr(req, res, want[idx])
                attempted += 1
                failed += bool(errs)
                errors += errs
    else:
        want = expected["smoke" if smoke else "full"][workload]
        for sample in samples:
            errs = gate.check_cli(workload, sample["results"], want)
            attempted += 1
            failed += bool(errs)
            errors += errs
    return attempted, failed, errors


def end_to_end(raw: dict) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count) from the untraced workers."""
    plain = raw["plain"]
    lat = [x for r in plain for x in r["latencies_s"]]
    busy = sum(r["wall_s"] for r in plain)
    return {
        "verdict_s": (statistics.median(r["wall_s"] for r in plain), len(plain)),
        "ops_per_s": (len(lat) / busy, len(lat)),
        "op_p50_ms": (1e3 * percentile(lat, 50), len(lat)),
        "op_p99_ms": (1e3 * percentile(lat, 99), len(lat)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), len(plain)),
        "setup_s": (statistics.median(raw["setups"]), len(raw["setups"])),
    }


def per_layer(raw: dict) -> dict[str, tuple[float, int]]:
    """metric -> (median over traced workers, sample count)."""
    traced = raw["traced"]
    out = {
        name: (statistics.median_low(r["layers"][name] for r in traced), len(traced))
        for name in traced[0]["layers"]
    }
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in raw["plain"]
    )
    out["trace.overhead_s"] = (overhead, len(traced) + len(raw["plain"]))
    return out


def environment() -> dict:
    """Where the numbers were measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hochalg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def run_workload(workload: str, args, expected: dict) -> tuple[dict, int, int]:
    """Measure and check one workload; print its table.  Returns
    (metrics as the contract's JSON wants them, attempted, failed)."""
    raw = measure(workload, args.seed, args.seconds, args.trace == 1, args.smoke)
    samples = raw["plain"] + raw["traced"]
    attempted, failed, errors = check(workload, samples, args.smoke, expected)
    if args.trace:
        values, units = per_layer(raw), LAYER_UNITS
    else:
        values, units = end_to_end(raw), E2E_UNITS
    print(f"== {workload} (seed {args.seed}, trace {args.trace}, {len(samples)} workers)")
    print(f"{'metric':40} {'unit':6} {'median':>14} {'samples':>8}")
    for name, (value, n) in values.items():
        print(f"{name:40} {units[name]:6} {value:14.6g} {n:8d}")
    print(f"{'failed_frac':40} {'ratio':6} {failed / attempted:14.6g} {attempted:8d}")
    if workload != "expr_stream" and not args.trace:
        print("note: one worker is one request here, so ops_per_s, op_p50_ms and op_p99_ms come "
              "from the same walls as verdict_s; see perfbench/README.md on their resolution")
    for message in errors[:20]:
        print(f"GATE FAIL {workload}: {message}")
    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hochalg" / "__init__.py").is_file():
        print(f"no hochalg package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    print("env " + json.dumps(environment()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            got, n_attempted, n_failed = run_workload(name, args, expected)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += n_attempted
            failed += n_failed
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
