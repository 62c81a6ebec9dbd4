"""Traced stand-in for `python -m hurwitz.cli`.

Usage: python trace_cli.py SUMMARY.json SPANS.tsv REQUEST_ID CLI_ARGS...

Imports the CLI (timing the import), installs the tracer, runs the command
exactly as `hurwitz.cli.main` would, writes the trace summary to
SUMMARY.json, appends the spans to SPANS.tsv, and exits with the CLI's code.
"""

import json
import sys
import time

start = time.perf_counter()
import hurwitz.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, spans_path, request, argv = (sys.argv[1], sys.argv[2],
                                               int(sys.argv[3]), sys.argv[4:])
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    code = hurwitz.cli.run(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["counters"]["cli.import_s"] = import_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
