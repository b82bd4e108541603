"""One measured process of the benchmark.

Usage: python3 perfbench/worker.py '<json config>'   (with src on PYTHONPATH)

Config keys: ``workload``, ``seed``, ``smoke``, ``trace`` (wrap the
public functions with the span tracer), ``setup_only`` (stop once the
inputs are ready), ``keep_outputs`` (return full output text for the
independent checks) and, for recording, ``indices`` (the expr_stream pool
requests to send, in order).  Every worker is a fresh interpreter, so it
pays for hochalg's cold module caches the way a command-line user does.
It prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import gen

# workload -> the CLI calls of one request, full size and smoke size
CLI_WORKLOADS = {
    "verify_d5": (
        [["verify", "--max-degree", "5", "--suite", "all"]],
        [["verify", "--max-degree", "3", "--suite", "all"]],
    ),
    "certify_d6": (
        [["primitive-basis", "--degree", "6"], ["verify", "--max-degree", "6", "--suite", "pbw"]],
        [["primitive-basis", "--degree", "4"], ["verify", "--max-degree", "4", "--suite", "pbw"]],
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expr_op(h, req: dict) -> str:
    """Parse the request's operands, apply its op, format the result."""
    op, args = req["op"], req["args"]
    if op == "unital_coproduct":
        return h.format_tensor(h.unital_coproduct(h.parse_unital_element(args[0])))
    xs = [h.parse_element(a) for a in args]
    if op == "star":
        return h.format_element(h.star(*xs))
    if op == "succ":
        return h.format_element(h.succ(*xs))
    if op in ("bracket2", "bracket3"):
        return h.format_element(h.nary_bracket(xs))
    if op == "coproduct":
        return h.format_tensor(h.coproduct(xs[0]))
    if op == "filtration":
        return str(h.filtration_level(xs[0]))
    raise ValueError(f"unknown op {op!r}")


def run_cli(cli, calls: list[list[str]]) -> list[tuple[list[str], int, str]]:
    """(argv, exit code, stdout) of each call, run in order."""
    done = []
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.run(argv)
            except Exception as exc:  # a crash is a failed call, caught by the gate
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        done.append((argv, rc, buf.getvalue()))
    return done


def run_stream(h, requests: list[dict]) -> tuple[list[float], list[str]]:
    """Closed loop with one client: each request starts when the last
    ends.  Returns each request's latency and output."""
    lat, outputs = [], []
    clock = time.perf_counter
    for req in requests:
        start = clock()
        try:
            out = expr_op(h, req)
        except Exception as exc:  # a crash is a failed op, caught by the gate
            out = f"uncaught {type(exc).__name__}: {exc}"
        lat.append(clock() - start)
        outputs.append(out)
    return lat, outputs


def main(config: dict) -> dict:
    import hochalg
    from hochalg import cli

    workload, smoke = config["workload"], config.get("smoke", False)
    if workload == "expr_stream":
        indices = config.get("indices")
        if indices is None:
            indices = gen.stream(config["seed"])
            if smoke:
                indices = indices[: gen.SMOKE_STREAM_LEN]
        requests = [gen.pool_request(i) for i in indices]
    else:
        calls = CLI_WORKLOADS[workload][1 if smoke else 0]
    ready = time.monotonic()
    if config.get("setup_only"):
        return {"ready": ready}
    tracer = None
    if config.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    keep = config.get("keep_outputs", False)
    start = time.perf_counter()
    if workload == "expr_stream":
        lat, outputs = run_stream(hochalg, requests)
    else:
        done = run_cli(cli, calls)
    wall = time.perf_counter() - start
    if workload == "expr_stream":
        results = [
            {"index": i, "digest": digest(out),
             "text": out if keep or "single" in req or req["op"] == "filtration" else None}
            for i, req, out in zip(indices, requests, outputs)
        ]
        out_bytes = 0
    else:
        lat = [wall]  # the CLI calls of a worker are one request
        results = [
            {"argv": argv, "rc": rc, "digest": digest(text), "text": text if keep else None}
            for argv, rc, text in done
        ]
        out_bytes = sum(len(text.encode()) for _, _, text in done)
    return {
        "ready": ready,
        "wall_s": wall,
        "latencies_s": lat,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
        "layers": tracer.report(out_bytes) if tracer else None,
    }


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)
