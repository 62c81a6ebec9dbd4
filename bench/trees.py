"""Run cost of the benchmark's CLI calls and library populations, on one or more source trees.

Usage, from the repository root:

    python3 bench/trees.py --src src [--src OTHER/src ...] [--rounds N] --out FILE.json

Every case runs as one fresh `python -s` process per tree and round, with
PYTHONPATH set to the tree, PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1
(so it compiles what it imports), the trees' order rotating by round.  The
76 cases, in order, by group:

    import           `import hurwitz, hurwitz.cli`
    each command     the 66 calls of `perfbench/workloads.py`'s
                     `cli_population()`, each as `-m hurwitz.cli ...`
    route_agreement  all 174 profiles: the disconnected and connected
                     character series through b = 5, and at each b the
                     oracle's disconnected and fock's connected coefficient
    degree_sweep     all 126 connected character series through genus 1
    quasipoly        `verify_quasipolynomiality` on the first residue class
                     of each orbit (54 requests)
    frontier         six cases, one per verifier tensor grid with residues
                     0: (g,n) = (2,3) at r = 3 for every kind, monotone
                     (1,4) and (3,3) at r = 3, and usual (2,3) at r = 4;
                     each point's connected number on the fock route

A library case (the last nine) reads its requests on stdin, prints the
answer count and a SHA-256 over every answer on stdout, and the CPU and
wall time of its requests alone as JSON on stderr.

Per case the record holds the exit codes, the median wall time and child
CPU (user + system, from os.wait4), the largest peak RSS, the stdout
SHA-256, for a library case the medians of its requests' own times, and
its CPU times in every round;
per group the sums of those medians, the largest RSS and the group's totals
in every round; per tree its path, git sha, dirty flag and a SHA-256 over
its `hurwitz/*.py`; and the Python version, CPU count, rounds and env.

Each tree after the first also gets, per group (`paired`) and per case
(`paired_cases`), the median over rounds of its ratio to the first tree in
the same round, for `cpu_s` and `run_cpu_s`, and the number of rounds in
which it was lower.  The trees of one round run back to back, so a ratio
divides out most of the host's drift between rounds, which moved the group
medians of two identical trees apart by up to 38% in BENCH_29.json.

Exits 1 when a case exits nonzero (the problem carries its last stderr
line), when a case's stdout differs between rounds, or when two trees'
stdout differ on any case; the record is written either way.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import (ROUTE_B_MAX, cli_population, quasipoly_population,  # noqa: E402
                       residue_orbit, route_population, sweep_population)

ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
TIMES = ("wall_s", "cpu_s", "run_cpu_s", "run_wall_s")
PAIRED = ("cpu_s", "run_cpu_s")
# (kind, r, g, n) of each frontier case
FRONTIER = [("monotone", 3, 2, 3), ("strict", 3, 2, 3), ("usual", 3, 2, 3),
            ("monotone", 3, 1, 4), ("monotone", 3, 3, 3), ("usual", 4, 2, 3)]

CHILD = r'''
import hashlib, json, sys, time
from hurwitz.counts import (HurwitzRequest, connected_series_character,
                            disconnected_series_character, fock_shifted_coefficient,
                            hurwitz_number, oracle_group_algebra)
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

def fock(kind, r, g, mus):
    return str(hurwitz_number(HurwitzRequest(HurwitzKind.parse(kind), r, g, mus, method="fock")))

runners = {"route": route, "sweep": sweep, "quasipoly": quasipoly, "fock": fock}
answers = []
cpu, wall = time.process_time(), time.perf_counter()
for request in job["requests"]:
    answers.append(runners[request[0]](*request[1:]))
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
digest = hashlib.sha256()
for answer in answers:
    digest.update(json.dumps(answer, default=str, sort_keys=True).encode() + b"\n")
json.dump({"answers": len(answers), "sha256": digest.hexdigest()}, sys.stdout)
json.dump({"run_cpu_s": cpu, "run_wall_s": wall}, sys.stderr)
'''


def cases() -> list:
    """Every case in run order: group, name, interpreter arguments, a library case's requests."""
    found = [{"group": "import", "name": "import",
              "argv": ["-c", "import hurwitz, hurwitz.cli"]}]
    for request in cli_population():
        call = request[1:]
        found.append({"group": call[0], "name": " ".join(call),
                      "argv": ["-m", "hurwitz.cli", *call]})
    orbits: dict = {}
    for request in quasipoly_population():
        orbits.setdefault(residue_orbit(request, None), request)
    for name, requests in (("route_agreement", list(route_population())),
                           ("degree_sweep", list(sweep_population())),
                           ("quasipoly", list(orbits.values()))):
        found.append({"group": name, "name": name, "argv": ["-c", CHILD],
                      "requests": requests})
    for kind, r, g, n in FRONTIER:
        # the verifier's tensor grid: nu from 1 to 3g - 2 + n per axis, mu = r nu
        grid = itertools.product(range(1, 3 * g - 1 + n), repeat=n)
        found.append({"group": "frontier", "name": f"frontier {kind} r={r} (g,n)=({g},{n})",
                      "argv": ["-c", CHILD],
                      "requests": [["fock", kind, r, g, [r * nu for nu in point]]
                                   for point in grid]})
    return found


def run_case(case: dict, env: dict, workdir: Path) -> dict:
    """One case in one fresh process: its exit code, times, peak RSS and stdout digest."""
    (workdir / "stdin").write_text(json.dumps({"b_max": ROUTE_B_MAX, "requests": case["requests"]})
                                   if "requests" in case else "")
    with open(workdir / "stdin", "rb") as stdin, open(workdir / "stdout", "wb") as out, \
            open(workdir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-s", *case["argv"]], stdin=stdin,
                                stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    stdout = (workdir / "stdout").read_bytes()
    lines = (workdir / "stderr").read_text(errors="replace").splitlines()
    last = next((line for line in reversed(lines) if line.strip()), "")
    run = {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024,
           "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
    if run["exit"] != 0:
        run["stderr"] = last
    elif "requests" in case:
        run.update(json.loads(stdout), **json.loads(last))
    return run


def tree_identity(src: Path) -> dict:
    """Where a tree's source came from: path as given, git sha, dirty flag, package digest."""
    digest = hashlib.sha256()
    for path in sorted((src / "hurwitz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args):
        proc = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    return {"src": str(src), "git_sha": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def summarize(src, work: list, rounds: list) -> tuple[dict, list]:
    """A tree's groups and cases over its rounds, and the problems found in them."""
    groups, entries, problems = {}, [], []
    for i, case in enumerate(work):
        runs = [r[i] for r in rounds]
        codes = sorted({run["exit"] for run in runs})
        digests = sorted({run["stdout_sha256"] for run in runs})
        if codes != [0]:
            why = next(run["stderr"] for run in runs if run["exit"] != 0)
            problems.append(f"{src}: {case['name']} exited {codes}: {why}")
        if len(digests) > 1:
            problems.append(f"{src}: {case['name']} printed different stdout across rounds")
        keys = [key for key in TIMES if all(key in run for run in runs)]
        entry = {"group": case["group"], "name": case["name"], "exit": codes,
                 **{key: statistics.median(run[key] for run in runs) for key in keys},
                 "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
                 "stdout_sha256": digests[0],
                 "rounds": [{key: run[key] for key in PAIRED if key in run} for run in runs]}
        if "requests" in case:
            entry["requests"] = len(case["requests"])
            entry.update({key: runs[0][key] for key in ("answers", "sha256") if key in runs[0]})
        entries.append(entry)
        group = groups.setdefault(case["group"], {"cases": 0, "peak_rss_mb": 0.0,
                                                  "rounds": [{} for _ in runs]})
        group["cases"] += 1
        group["peak_rss_mb"] = max(group["peak_rss_mb"], entry["peak_rss_mb"])
        for key in keys:
            group[key] = group.get(key, 0.0) + entry[key]
            for total, run in zip(group["rounds"], runs):
                total[key] = total.get(key, 0.0) + run[key]
    return {"groups": groups, "cases": entries}, problems


def compare_trees(records: list) -> list:
    """A problem for every case whose stdout differs from the first tree's."""
    base = records[0]
    return [f"{mine['name']}: stdout of {record['src']} differs from {base['src']}"
            for record in records[1:] for theirs, mine in zip(base["cases"], record["cases"])
            if mine["stdout_sha256"] != theirs["stdout_sha256"]]


def _paired(mine: list, theirs: list) -> dict:
    """Per PAIRED key every round holds: the median of mine/theirs by round, and rounds lower."""
    paired = {}
    for key in PAIRED:
        if all(key in run for run in mine + theirs):
            ratios = [m[key] / t[key] for m, t in zip(mine, theirs)]
            paired[key] = {"median_ratio": statistics.median(ratios),
                           "lower": sum(ratio < 1 for ratio in ratios), "rounds": len(ratios)}
    return paired


def paired_rounds(base: dict, record: dict) -> dict:
    """Per group and PAIRED key, record's median ratio to base over rounds run side by side.

    Round k of each tree's group totals is its k-th visit of every case;
    `lower` counts the rounds whose ratio is below 1.  A key some round
    lacks (a failed case) is left out.
    """
    return {name: paired for name, group in record["groups"].items()
            if (paired := _paired(group["rounds"], base["groups"][name]["rounds"]))}


def paired_cases(base: dict, record: dict) -> dict:
    """`paired_rounds` per case, by name: a case's own time in round k against base's."""
    return {mine["name"]: paired for theirs, mine in zip(base["cases"], record["cases"])
            if (paired := _paired(mine["rounds"], theirs["rounds"]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a directory holding the hurwitz package; repeat to compare trees")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = args.src
    for src in trees:
        if not (src / "hurwitz" / "__init__.py").is_file():
            parser.error(f"no hurwitz package under {src}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    work = cases()
    envs = [dict(os.environ, PYTHONPATH=str(src.resolve()), **ENV) for src in trees]
    rounds = [[] for _ in trees]
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as tmp:
        for k in range(args.rounds):
            for i in [(k + j) % len(trees) for j in range(len(trees))]:
                rounds[i].append([run_case(case, envs[i], Path(tmp)) for case in work])
    records, problems = [], []
    for src, tree_rounds in zip(trees, rounds):
        summary, found = summarize(src, work, tree_rounds)
        records.append({**tree_identity(src), **summary})
        problems += found
    problems += compare_trees(records)
    for record in records[1:]:
        record["paired"] = paired_rounds(records[0], record)
        record["paired_cases"] = paired_cases(records[0], record)
    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "rounds": args.rounds, "cases": len(work), "env": ENV,
              "trees": records, "problems": problems}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for record in records:
        print(f"{record['src']} ({(record['git_sha'] or '?')[:10]}):")
        for name, group in record["groups"].items():
            run = f"  run {group['run_cpu_s']:.3f} s cpu" if "run_cpu_s" in group else ""
            print(f"  {name:16} {group['cases']:3} cases  {group['wall_s']:.3f} s wall  "
                  f"{group['cpu_s']:.3f} s cpu  {group['peak_rss_mb']:.1f} MB{run}")
    for record in records[1:]:
        print(f"{record['src']} against {records[0]['src']}, median of per-round ratios:")
        # every group, then each library case of a group of several
        library = {name: ratios for name, ratios in record["paired_cases"].items()
                   if "run_cpu_s" in ratios and name not in record["paired"]}
        for name, ratios in [*record["paired"].items(), *library.items()]:
            print(f"  {name:16} " + "  ".join(
                f"{key} {r['median_ratio']:.3f} ({r['lower']}/{r['rounds']} lower)"
                for key, r in ratios.items()))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
