"""Median and quartiles of the benchmark's metrics over recorded runs.

Usage, from the repository root:

    python3 perfbench/summarize.py [RUN_RECORD.json ...]

Reads run records (default: every .perfbench/runs/*.json), groups them by
workload and trace flag, and prints one JSON object: per workload, per
metric, the number of runs, the median, the first and third quartiles and
the spread (q3 - q1) / median, the statistic the end-to-end bounds of
BENCHMARK.json apply to.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import OUT


def summarize(paths) -> dict:
    groups: dict[str, dict[str, list]] = {}
    units: dict[str, str] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        group = groups.setdefault(f"{record['workload']}/trace{int(record['trace'])}", {})
        for name, metric in record["result"]["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for group, metrics in sorted(groups.items()):
        out[group] = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            out[group][name] = {"unit": units[name], "runs": len(values), "median": median,
                                "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median if median else None}
    return out


def main() -> None:
    paths = sys.argv[1:] or sorted((OUT / "runs").glob("*.json"))
    print(json.dumps(summarize(paths), indent=1))


if __name__ == "__main__":
    main()
