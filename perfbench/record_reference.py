"""Record the reference values that the benchmark draws by and checks against.

Usage, from the repository root:  python3 perfbench/record_reference.py

Runs every request of each workload's population once, in one round the
way the benchmark does, and writes reference/<workload>.json: per request
key, its latency (`cost_s`, by which cli_calls stratifies its seeded draws)
and the SHA-256 of its output (`digest`: the coefficient list of degree_sweep, the
stdout bytes of cli_calls, null where the request checks itself).  Run it
only on a commit whose outputs are trusted: the benchmark counts any later
difference as a failed request.  Re-recording changes the draws, so it is a
change of the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import OUT, REFERENCE, cli_round, worker_round
from workloads import WORKLOADS, request_key


def record(workload: str, tmp: Path) -> dict:
    population = WORKLOADS[workload][0]
    requests = list(population())
    run_round = cli_round if workload == "cli_calls" else worker_round
    result = run_round(requests, False, tmp, tmp / "unused.tsv")
    if result["failed"]:
        for error in result["errors"]:
            print(error, file=sys.stderr)
        raise SystemExit(f"{workload}: {len(result['failed'])} requests failed")
    return {request_key(req): {"cost_s": round(cost, 4), "digest": digest}
            for req, cost, digest in zip(requests, result["latencies"], result["outputs"])}


def main() -> None:
    OUT.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            values = record(workload, Path(tmp))
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(values, indent=0, sort_keys=True) + "\n")
        print(f"{path}: {len(values)} requests")


if __name__ == "__main__":
    main()
