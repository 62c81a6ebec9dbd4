"""In-process cost of three of the benchmark's library populations, on one or more source trees.

Usage, from the repository root:

    python3 bench/in_process.py --src src [--src OTHER/src ...] [--rounds N] --out FILE.json

Runs three populations of `perfbench/workloads.py` through the library:

    route_agreement  all 174 profiles: the disconnected and connected
                     character series through b = 5, and at each b the
                     oracle's disconnected and the fock route's connected
                     coefficient
    degree_sweep     all 126 connected character series through genus 1
    quasipoly        `verify_quasipolynomiality` on the first residue class
                     of each orbit (54 requests)

Each population runs in a fresh `python -s` process per round, with
PYTHONPATH set to the tree, PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1.
Each round runs every tree once, the trees' order rotating from round to
round, and each tree its populations in the order above.

Per population and round the record holds the child's CPU (user + system)
and peak RSS from os.wait4, the CPU and wall time of its requests alone as
the child measured them, and a SHA-256 over every answer; per population
the medians over rounds; and each tree's git sha and a SHA-256 over its
`hurwitz/*.py`.  The record also names the Python version and the number
of CPUs, and is written as JSON to --out.

Exits 1 when a child fails, when a population's digest differs between
rounds, or when two trees' digests differ on any population.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ and bench/ as they are
sys.path.insert(0, str(ROOT / "bench"))
from cli_startup import child_env, tree_identity  # noqa: E402
from workloads import (ROUTE_B_MAX, quasipoly_population, residue_orbit,  # noqa: E402
                       route_population, sweep_population)

# The child reads its job from stdin and prints its timings and digest.
CHILD = r'''
import hashlib, json, sys, time
from hurwitz.counts import (connected_series_character, disconnected_series_character,
                            fock_shifted_coefficient, oracle_group_algebra)
from hurwitz.kinds import HurwitzKind
from hurwitz.polycheck import verify_quasipolynomiality

job = json.load(sys.stdin)
B = job["b_max"]


def route(kind, r, mus):
    kind = HurwitzKind.parse(kind)
    disc = disconnected_series_character(kind, r, mus, B)
    conn = connected_series_character(kind, r, mus, B)
    return [[disc.coefficient(u=b), conn.coefficient(u=b), oracle_group_algebra(kind, r, b, mus),
             fock_shifted_coefficient(kind, r, mus, b, True)] for b in range(B + 1)]


def sweep(kind, r, mus, order):
    series = connected_series_character(HurwitzKind.parse(kind), r, mus, order)
    return [series.coefficient(u=b) for b in range(order + 1)]


def quasipoly(kind, r, g, n, eta):
    return verify_quasipolynomiality(HurwitzKind.parse(kind), r, g, n, eta).to_json()


runners = {"route": route, "sweep": sweep, "quasipoly": quasipoly}
answers = []
cpu, wall = time.process_time(), time.perf_counter()
for request in job["requests"]:
    answers.append(runners[request[0]](*request[1:]))
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
digest = hashlib.sha256()
for answer in answers:
    digest.update(json.dumps(answer, default=str, sort_keys=True).encode() + b"\n")
json.dump({"run_cpu_s": cpu, "run_wall_s": wall, "answers": len(answers),
           "sha256": digest.hexdigest()}, sys.stdout)
'''


def populations() -> dict:
    """The request lists, by population name, in population order."""
    orbits: dict = {}
    for request in quasipoly_population():
        orbits.setdefault(residue_orbit(request, None), request)
    return {"route_agreement": list(route_population()),
            "degree_sweep": list(sweep_population()),
            "quasipoly": list(orbits.values())}


def run_population(src: Path, requests: list, workdir: Path) -> dict:
    """One population in one fresh process: its timings, peak RSS and digest."""
    job = workdir / "job.json"
    job.write_text(json.dumps({"b_max": ROUTE_B_MAX, "requests": requests}))
    with open(job, "rb") as stdin:
        proc = subprocess.Popen([sys.executable, "-s", "-c", CHILD], stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=child_env(src.resolve()), cwd=workdir)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    result = {"exit": code, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    if code == 0:
        result.update(json.loads(out))
    return result


def summarize(src: Path, names: list, rounds: list) -> tuple[dict, list]:
    """A tree's record over its rounds, and the problems found in them."""
    record, problems = tree_identity(src), []
    record["populations"] = {}
    for name in names:
        runs = [r[name] for r in rounds]
        failed = sorted({run["exit"] for run in runs if run["exit"] != 0})
        if failed:
            problems.append(f"{src}: {name} exited {failed}")
            record["populations"][name] = {"rounds": runs}
            continue
        digests = sorted({run["sha256"] for run in runs})
        if len(digests) > 1:
            problems.append(f"{src}: {name} gave different answers across rounds")
        entry = {key: statistics.median(run[key] for run in runs)
                 for key in ("cpu_s", "run_cpu_s", "run_wall_s")}
        entry["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
        entry["answers"] = runs[0]["answers"]
        entry["sha256"] = digests[0]
        entry["rounds"] = runs
        record["populations"][name] = entry
    return record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a directory holding the hurwitz package; repeat to compare trees")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = args.src
    for src in trees:
        if not (src / "hurwitz" / "__init__.py").is_file():
            parser.error(f"no hurwitz package under {src}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    work = populations()
    rounds = [[] for _ in trees]
    order = list(range(len(trees)))
    with tempfile.TemporaryDirectory(prefix="in-process-") as tmp:
        for k in range(args.rounds):
            for i in order[k % len(trees):] + order[:k % len(trees)]:
                rounds[i].append({name: run_population(trees[i], requests, Path(tmp))
                                  for name, requests in work.items()})
    records, problems = [], []
    for src, tree_rounds in zip(trees, rounds):
        record, found = summarize(src, list(work), tree_rounds)
        records.append(record)
        problems += found
    base = records[0]["populations"]
    for record in records[1:]:
        for name, entry in record["populations"].items():
            if entry.get("sha256") != base[name].get("sha256"):
                problems.append(f"{name}: answers of {record['src']} differ from "
                                f"{records[0]['src']}")
    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "rounds": args.rounds,
              "requests": {name: len(requests) for name, requests in work.items()},
              "env": {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"},
              "trees": records, "problems": problems}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for record in records:
        print(f"{record['src']} ({(record['git_sha'] or '?')[:10]}):")
        for name, entry in record["populations"].items():
            if "sha256" not in entry:
                continue
            ratio = ""
            if record is not records[0] and "run_cpu_s" in base[name]:
                ratio = f"  x{entry['run_cpu_s'] / base[name]['run_cpu_s']:.3f} run cpu"
            print(f"  {name:16} run {entry['run_cpu_s']:.3f} s cpu  {entry['run_wall_s']:.3f} s "
                  f"wall  process {entry['cpu_s']:.3f} s cpu  {entry['peak_rss_mb']:.1f} MB{ratio}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
