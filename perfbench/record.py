"""Record the expected outputs the correctness gate checks against.

Usage (from the repository root, at the commit whose outputs are the
reference): python3 perfbench/record.py

Writes perfbench/expected.json: exit code and stdout digest of every CLI
call of the CLI workloads at full and smoke size, and the output digest
of every expr_stream pool request.  The gate's identities (gate.py) do
not come from this record.
"""

from __future__ import annotations

import json

import gen
from run import EXPECTED, environment, spawn
from worker import CLI_WORKLOADS


def main() -> None:
    record: dict = {"recorded_at": environment(), "full": {}, "smoke": {}}
    for workload in CLI_WORKLOADS:
        for size in ("full", "smoke"):
            _, res = spawn({"workload": workload, "seed": 0, "smoke": size == "smoke"})
            record[size][workload] = [{"rc": r["rc"], "digest": r["digest"]} for r in res["results"]]
    _, res = spawn({"workload": "expr_stream", "seed": 0, "indices": list(range(gen.POOL_SIZE))})
    record["expr_pool_seed"] = gen.POOL_SEED
    record["expr_pool_digests"] = [r["digest"] for r in res["results"]]
    EXPECTED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
