"""Start-up and run cost of the CLI calls the benchmark makes, on one or more source trees.

Usage, from the repository root:

    python3 bench/cli_startup.py --src src [--src OTHER/src ...] [--rounds N] --out FILE.json

Runs every call of `perfbench/workloads.py`'s `cli_population()` (66 small
`compute`, `series`, `xi`, `verify-quasipoly` and `unstable-check` calls) as
a fresh `python -s -m hurwitz.cli` process, with PYTHONPATH set to the tree,
PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, so that every process
compiles what it imports, as it does on a host that keeps no bytecode.
Each round runs every tree once, the trees' order rotating from round to
round, and before each tree's calls one probe process that imports
`hurwitz` and `hurwitz.cli` and prints the time at which it finished.

Per tree the record holds, for every call, the median wall time and child
CPU (user + system, from os.wait4), the peak RSS and the SHA-256 of its
stdout; per command the sums of those medians and the largest RSS; per
round the summed wall and CPU and the import probe; and the tree's git sha
and a SHA-256 over its `hurwitz/*.py`.  The record also names the Python
version and the number of CPUs, and is written as JSON to --out.

Exits 1 when a call exits nonzero, when a call's stdout differs between
rounds, or when two trees' stdout differ on any call.
"""

from __future__ import annotations

import argparse
import hashlib
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
from workloads import cli_population  # noqa: E402

PROBE = "import sys, time\nimport hurwitz, hurwitz.cli\nsys.stdout.write(repr(time.monotonic()))"


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1")


def spawn(argv: list, env: dict, workdir: Path):
    """Run argv to completion: (exit code, start time, wall s, rusage, stdout bytes)."""
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env,
                                cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    return os.waitstatus_to_exitcode(status), start, wall, usage, out_path.read_bytes()


def tree_identity(src: Path) -> dict:
    """Where a tree's source came from: the path as given, git sha and dirty flag,
    and a digest of the package."""
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


def run_tree(src: Path, calls: list, workdir: Path) -> dict:
    """One round on one tree: the import probe, then every call once."""
    env = child_env(src.resolve())
    code, start, _, _, out = spawn([sys.executable, "-s", "-c", PROBE], env, workdir)
    if code != 0:
        raise SystemExit(f"import probe on {src} exited {code}")
    probe = float(out) - start
    results = []
    for argv in calls:
        code, _, wall, usage, out = spawn([sys.executable, "-s", "-m", "hurwitz.cli", *argv],
                                          env, workdir)
        results.append({"exit": code, "wall_s": wall,
                        "cpu_s": usage.ru_utime + usage.ru_stime,
                        "peak_rss_mb": usage.ru_maxrss / 1024,
                        "stdout_sha256": hashlib.sha256(out).hexdigest()})
    return {"import_probe_s": probe, "calls": results}


def summarize(src: Path, calls: list, rounds: list) -> tuple[dict, list]:
    """A tree's record over its rounds, and the problems found in them."""
    record = tree_identity(src)
    record["rounds"] = [{"wall_s": sum(c["wall_s"] for c in r["calls"]),
                         "cpu_s": sum(c["cpu_s"] for c in r["calls"]),
                         "import_probe_s": r["import_probe_s"]} for r in rounds]
    for key in ("wall_s", "cpu_s", "import_probe_s"):
        record[f"median_round_{key}"] = statistics.median(r[key] for r in record["rounds"])
    problems, per_call, commands = [], [], {}
    for i, argv in enumerate(calls):
        runs = [r["calls"][i] for r in rounds]
        digests = {c["stdout_sha256"] for c in runs}
        codes = sorted({c["exit"] for c in runs})
        if codes != [0]:
            problems.append(f"{src}: {' '.join(argv)} exited {codes}")
        if len(digests) > 1:
            problems.append(f"{src}: {' '.join(argv)} printed different stdout across rounds")
        call = {"argv": argv, "exit": codes,
                "wall_s": statistics.median(c["wall_s"] for c in runs),
                "cpu_s": statistics.median(c["cpu_s"] for c in runs),
                "peak_rss_mb": max(c["peak_rss_mb"] for c in runs),
                "stdout_sha256": sorted(digests)[0]}
        per_call.append(call)
        command = commands.setdefault(argv[0], {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                                "peak_rss_mb": 0.0})
        command["calls"] += 1
        command["wall_s"] += call["wall_s"]
        command["cpu_s"] += call["cpu_s"]
        command["peak_rss_mb"] = max(command["peak_rss_mb"], call["peak_rss_mb"])
    record["commands"] = commands
    record["calls"] = per_call
    return record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a directory holding the hurwitz package; repeat to compare trees")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = args.src
    for src in trees:
        if not (src / "hurwitz" / "__init__.py").is_file():
            parser.error(f"no hurwitz package under {src}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    calls = [request[1:] for request in cli_population()]
    rounds = [[] for _ in trees]
    order = list(range(len(trees)))
    with tempfile.TemporaryDirectory(prefix="cli-startup-") as tmp:
        for k in range(args.rounds):
            for i in order[k % len(trees):] + order[:k % len(trees)]:
                rounds[i].append(run_tree(trees[i], calls, Path(tmp)))
    records, problems = [], []
    for src, tree_rounds in zip(trees, rounds):
        record, found = summarize(src, calls, tree_rounds)
        records.append(record)
        problems += found
    for record in records[1:]:
        for base, other in zip(records[0]["calls"], record["calls"]):
            if base["stdout_sha256"] != other["stdout_sha256"]:
                problems.append(f"{' '.join(base['argv'])}: stdout of {record['src']} "
                                f"differs from {records[0]['src']}")
    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "rounds": args.rounds, "calls": len(calls),
              "env": {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"},
              "trees": records, "problems": problems}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for record in records:
        print(f"{record['src']}: median round {record['median_round_wall_s']:.3f} s wall, "
              f"{record['median_round_cpu_s']:.3f} s cpu, import probe "
              f"{1000 * record['median_round_import_probe_s']:.1f} ms")
        for name, command in sorted(record["commands"].items()):
            print(f"  {name:18} {command['calls']:3} calls  {command['wall_s']:.3f} s wall  "
                  f"{command['cpu_s']:.3f} s cpu  {command['peak_rss_mb']:.1f} MB")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
