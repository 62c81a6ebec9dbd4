"""Benchmark of the hurwitz package: four seeded workloads, measured from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (populations and draws in workloads.py; reasons in BENCHMARK.json):

    route_agreement  character route against the group-algebra oracle and the
                     fock route, every kind, r <= 3, |mu| <= 6 with at most
                     5 parts, b <= 5
    quasipoly        verify_quasipolynomiality, every kind, r <= 3,
                     (g,n) in {(0,3),(1,1),(1,2),(2,1)}
    degree_sweep     connected series through genus 1 of every mu |- 8 with
                     at most 7 parts, every kind, r in {1,2}
    cli_calls        `python -m hurwitz.cli` processes: compute --method all,
                     series, xi, unstable-check, verify-quasipoly

A round runs the seed's request list once, closed loop, in a fresh
interpreter (CLI calls: one fresh interpreter per call, all calls of the
round sharing a new character-cache directory).  Rounds repeat until the
next one would end after S seconds.  Every child gets PYTHONHASHSEED=0 and
its own HURWITZ_CACHE_DIR, so nothing outside the checkout can change a
timing or a result.  Only one benchmark process runs at a time.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters importing hurwitz and hurwitz.cli), the medians over rounds of
wall_norm_s, cpu_norm_s and peak_rss_mb, and request latency percentiles
pooled over the rounds.  The shared host's speed swings by 15-30% over
seconds and minutes, so next to every request a fixed calibration slice
runs outside the timed window (calibrate.py), and the _norm times are the
request times scaled to the reference speed by the slices around each
request: a change to the package moves them as it moves the raw times, the
host's swings hardly.  The raw times are printed too and kept in the run
record.  --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of tracer.py (raw times), with trace.overhead_frac.

Outputs are checked exactly: route agreement on every b, report.passed,
reference digests (reference/) plus genus-0 closed forms for the sweep, and
exit code plus byte-identical stdout for CLI calls.  A request that raises or
fails a check counts in `failed`.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the whole run record
(provenance, per-round figures) goes to .perfbench/runs/, the spans of the
last traced round to .perfbench/spans/.
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

from calibrate import REFERENCE_S, slice_
from tracer import combine, metric_names
from workloads import WORKLOADS, draw, request_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

SETUP_PROBES = 6  # before each untraced round, so they sample the whole run
MIN_ROUNDS = 2
PROBE = ("import sys, time\nimport hurwitz, hurwitz.cli\n"
         "sys.stdout.write(repr(time.monotonic()))")

# Times but setup_s are normalized to the reference speed (calibrate.py):
# each request's time is scaled by REFERENCE_S over the median of the
# NORM_WINDOW calibration slices run on each side of it.
NORM_WINDOW = 3
END_TO_END = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("cpu_norm_s", "s"),
    ("request_p50_norm_ms", "ms"),
    ("request_p90_norm_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(RuntimeError):
    """A child process of the benchmark itself failed; nothing was measured."""


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               HURWITZ_CACHE_DIR=str(cache_dir))
    return env


def spawn(argv: list, env: dict, stdout_path: Path):
    """Run argv to completion: (exit code, wall s, rusage of the process)."""
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def stderr_tail(stdout_path: Path) -> str:
    return Path(f"{stdout_path}.err").read_text(errors="replace")[-2000:]


def measure_setup(tmp: Path) -> float:
    """Seconds from spawning a fresh interpreter until hurwitz.cli is imported."""
    out = tmp / "probe.out"
    start = time.monotonic()
    code, _, _ = spawn([sys.executable, "-s", "-c", PROBE], child_env(tmp / "cache"), out)
    if code != 0:
        raise HarnessError(f"setup probe exited {code}: {stderr_tail(out)}")
    return float(out.read_text()) - start


# -- rounds --------------------------------------------------------------------


def worker_round(requests, traced, tmp: Path, spans: Path) -> dict:
    job = tmp / "job.json"
    job.write_text(json.dumps({"requests": requests, "trace": traced,
                               "spans": str(spans)}))
    out = tmp / "worker.out"
    code, _, usage = spawn([sys.executable, "-s", HERE / "worker.py", job],
                           child_env(tmp / "cache"), out)
    if code != 0:
        raise HarnessError(f"worker exited {code}: {stderr_tail(out)}")
    result = json.loads(out.read_text())
    wall_s = sum(result["latencies"])
    return {"wall_s": wall_s, "cpu_s": sum(result["cpu_times"]),
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "latencies": result["latencies"], "cpu_times": result["cpu_times"],
            "slices": result["slices"],
            "failed": set(result["failed"]),
            "outputs": result["digests"],
            "nonzero": result["nonzero"],
            "max_degree": result["max_degree"], "b_max": result["b_max"],
            "errors": result["errors"],
            "layers": (combine([result["trace"]], wall_s)
                       if traced else None)}


def count_nonzero_values(node) -> int:
    """Nonzero `value` fields anywhere in a CLI JSON payload."""
    if isinstance(node, dict):
        own = int(node.get("value") not in (None, "0"))
        return own + sum(count_nonzero_values(v) for v in node.values())
    if isinstance(node, list):
        return sum(count_nonzero_values(v) for v in node)
    return 0


def _option(request: list, flag: str, default: str) -> str:
    return request[request.index(flag) + 1] if flag in request else default


def cli_round(requests, traced, tmp: Path, spans: Path) -> dict:
    cache = tmp / "cache"
    env = child_env(cache)
    latencies, cpu_times, slices, codes, outputs, summaries = [], [], [], [], [], []
    rss = bytes_read = 0
    for i, request in enumerate(requests):
        slices.append(slice_())
        characters = cache / "characters.txt"
        bytes_read += characters.stat().st_size if characters.exists() else 0
        out = tmp / f"call{i}.out"
        if traced:
            summary = tmp / f"call{i}.trace.json"
            argv = [sys.executable, "-s", HERE / "trace_cli.py", summary, spans, i,
                    *request[1:]]
        else:
            argv = [sys.executable, "-s", "-m", "hurwitz.cli", *request[1:]]
        code, wall, usage = spawn(argv, env, out)
        latencies.append(wall)
        codes.append(code)
        cpu_times.append(usage.ru_utime + usage.ru_stime)
        rss = max(rss, usage.ru_maxrss)
        outputs.append(out)
        if traced and code == 0:
            summaries.append(json.loads(summary.read_text()))
    slices.append(slice_())
    failed, digests, nonzero, errors = set(), [], 0, []
    for i, (code, out) in enumerate(zip(codes, outputs)):
        stdout = out.read_bytes()
        digests.append(hashlib.sha256(stdout).hexdigest())
        if code != 0:
            failed.add(i)
            errors.append(f"{requests[i]} exited {code}: {stderr_tail(out)}")
            continue
        nonzero += count_nonzero_values(json.loads(stdout))
    layers = None
    if traced:
        layers = combine(summaries, sum(latencies))
        layers["partitions.cache_bytes_read"] = bytes_read
    return {"wall_s": sum(latencies), "cpu_s": sum(cpu_times), "peak_rss_mb": rss / 1024,
            "latencies": latencies, "cpu_times": cpu_times, "slices": slices,
            "failed": failed, "outputs": digests,
            "nonzero": nonzero, "errors": errors,
            "max_degree": max(sum(map(int, _option(r, "--mu", "0").split(",")))
                              for r in requests),
            "b_max": max(int(_option(r, "--order", "0")) for r in requests),
            "layers": layers}


def check_references(requests, round_: dict, reference: dict) -> None:
    """Count a request as failed when its output digest differs from the reference."""
    for i, (request, digest) in enumerate(zip(requests, round_["outputs"])):
        if digest is not None and reference[request_key(request)]["digest"] != digest:
            if i not in round_["failed"]:
                round_["errors"].append(f"{request}: output differs from the reference")
            round_["failed"].add(i)


# -- one benchmark run -----------------------------------------------------------


def load_reference(workload: str) -> dict:
    """Request key -> {"cost_s": recorded latency, "digest": output digest or None}."""
    return json.loads((REFERENCE / f"{workload}.json").read_text())


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def normalized(round_: dict, key: str) -> list:
    """Per-request times of `key` ("latencies", "cpu_times") at the reference speed."""
    slices = round_["slices"]  # slices[i] ran just before request i, slices[i + 1] after
    return [t * REFERENCE_S
            / statistics.median(slices[max(0, i - NORM_WINDOW + 1):i + NORM_WINDOW + 1])
            for i, t in enumerate(round_[key])]


def latency_metrics(rounds) -> dict:
    """wall, cpu and pooled latency percentiles, raw and at the reference speed."""
    out = {}
    for suffix, scale in (("", lambda r, key: r[key]), ("_norm", normalized)):
        latencies = [scale(r, "latencies") for r in rounds]
        pooled = [x for round_latencies in latencies for x in round_latencies]
        out[f"wall{suffix}_s"] = statistics.median(map(sum, latencies))
        out[f"cpu{suffix}_s"] = statistics.median(sum(scale(r, "cpu_times")) for r in rounds)
        out[f"request_p50{suffix}_ms"] = 1000 * statistics.median(pooled)
        out[f"request_p90{suffix}_ms"] = 1000 * statistics.quantiles(pooled, n=10)[8]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            requests: list | None = None, reference: dict | None = None) -> dict:
    """Run rounds for `seconds` and return the run record (metrics included)."""
    reference = load_reference(workload) if reference is None else reference
    if requests is None:
        requests = draw(workload, seed, {k: v["cost_s"] for k, v in reference.items()})
    run_round = cli_round if workload == "cli_calls" else worker_round
    OUT.mkdir(exist_ok=True)
    (OUT / "spans").mkdir(exist_ok=True)
    spans = OUT / "spans" / f"{workload}-seed{seed}.tsv"
    plain, traced = [], []
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        setup = []
        start = time.monotonic()
        durations = {False: [], True: []}
        while True:
            # --trace 1 alternates untraced and traced rounds, untraced first
            tracing = trace and len(traced) < len(plain)
            began = time.monotonic()
            if tracing:
                spans.unlink(missing_ok=True)
            elif not trace:
                setup.extend(measure_setup(tmp) for _ in range(SETUP_PROBES))
            round_dir = Path(tempfile.mkdtemp(dir=tmp))
            result = run_round(requests, tracing, round_dir, spans)
            result["traced"] = tracing
            durations[tracing].append(time.monotonic() - began)
            check_references(requests, result, reference)
            (traced if tracing else plain).append(result)
            enough = (traced and plain) if trace else len(plain) >= MIN_ROUNDS
            next_tracing = trace and len(traced) < len(plain)
            expected = statistics.mean(durations[next_tracing] or durations[False])
            if enough and time.monotonic() - start + expected > seconds:
                break
    rounds = plain + traced
    attempted = len(requests) * len(rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    timings = latency_metrics(plain)
    if trace:
        metrics = {}
        for name, unit, _ in metric_names():
            if name == "trace.overhead_frac":
                value = latency_metrics(traced)["wall_norm_s"] / timings["wall_norm_s"] - 1
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = dict(timings, peak_rss_mb=_median(plain, "peak_rss_mb"),
                      setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "input": {"requests": len(requests),
                  "max_degree": max(r["max_degree"] for r in rounds),
                  "b_max": max(r["b_max"] for r in rounds),
                  "nonzero_coefficients": rounds[0]["nonzero"]},
        "setup_s": setup,
        "timings": timings,
        "rounds": [{k: (sorted(v) if isinstance(v, set) else v) for k, v in r.items()
                    if k != "outputs"} for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hurwitz").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hurwitz" / "__init__.py").is_file():
        print(f"error: no hurwitz package under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for round_ in record["rounds"]:
        for error in round_["errors"]:
            print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "input": record["input"],
                      "failed_frac": record["failed_frac"]}))
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print("at this host's speed: " + ", ".join(
            f"{name} = {value:.6g}" for name, value in record["timings"].items()
            if "_norm" not in name))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
