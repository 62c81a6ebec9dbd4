"""Smoke check of the benchmark itself, at a tiny size.

Usage, from the repository root:  python3 perfbench/smoke.py

Checks that:
- every workload, on the first two requests of its seed-0 draw, emits every
  end-to-end metric of BENCHMARK.json with its unit (untraced) and every
  per-layer metric with its unit (traced), with no failed request;
- a deliberately corrupted reference digest (degree_sweep, cli_calls) is
  counted as a failed request, once per round;
- the command line prints the result object as its last line;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 1 and names the failed checks when any does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, draw, request_key

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
problems = []


def check(ok: bool, what: str) -> None:
    print(("ok     " if ok else "FAILED ") + what)
    if not ok:
        problems.append(what)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def tiny_draw(workload: str) -> list:
    costs = {k: v["cost_s"] for k, v in run.load_reference(workload).items()}
    return draw(workload, 0, costs)[:2]


def metrics_and_failures() -> None:
    for workload in WORKLOADS:
        requests = tiny_draw(workload)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = run.measure(workload, 0, 0, trace, requests=requests)
            got = {name: m["unit"] for name, m in record["result"]["metrics"].items()}
            check(got == units(section), f"{workload} trace={int(trace)}: {section} metrics and units")
            check(record["failed"] == 0, f"{workload} trace={int(trace)}: no failed request")


def corrupted_reference() -> None:
    for workload in ("degree_sweep", "cli_calls"):
        requests = tiny_draw(workload)
        reference = run.load_reference(workload)
        reference[request_key(requests[0])]["digest"] = "0" * 64
        record = run.measure(workload, 0, 0, False, requests=requests, reference=reference)
        rounds = len(record["rounds"])
        check(record["failed"] == rounds and record["failed_frac"] == 0.5
              and not record["result"]["correct"],
              f"{workload}: corrupted reference counted as failed "
              f"({record['failed']}/{record['attempted']})")


def command_line() -> None:
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "cli_calls",
                          "--seed", "0", "--seconds", "0", "--trace", "0"],
                         cwd=run.ROOT, capture_output=True, text=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    check(out.returncode == 0 and set(last) == RESULT_KEYS and last["correct"],
          "command line prints the result object last")
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quasipoly",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
    check(out.returncode != 0 and "correct" not in out.stdout,
          "without the package: non-zero exit and no result")


def main() -> int:
    metrics_and_failures()
    corrupted_reference()
    command_line()
    print("smoke check " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
