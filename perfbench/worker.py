"""One round of an in-process workload, in a fresh interpreter.

Usage: python worker.py JOB.json   (PYTHONPATH must reach src/)

The job holds the request list, whether to trace, and where to write the
spans.  The worker imports the package, runs every request back to back
(closed loop, one client) with a calibration slice (calibrate.py) before
each, outside its timed window, checks the results outside the timed window
too, and prints one JSON object with its timings, failures, result digests and work
units on stdout.  The parent compares the digests with the recorded
references.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction
from math import comb, factorial, prod

# Calls go through the module attributes, so that a traced round reaches the
# wrappers the tracer installs there.
from hurwitz import counts, polycheck
from hurwitz.counts import HurwitzKind

from calibrate import slice_
from workloads import ROUTE_B_MAX


def coefficient_digest(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


# Each runner returns (ok, nonzero coefficients, max |mu|, max b, kept values).


def run_route(kind, r, mus):
    kind = HurwitzKind.parse(kind)
    disc = counts.disconnected_series_character(kind, r, mus, ROUTE_B_MAX)
    conn = counts.connected_series_character(kind, r, mus, ROUTE_B_MAX)
    ok, nonzero = True, 0
    for b in range(ROUTE_B_MAX + 1):
        d_b, c_b = disc.coefficient(u=b), conn.coefficient(u=b)
        ok &= d_b == counts.oracle_group_algebra(kind, r, b, mus)
        ok &= c_b == counts.fock_shifted_coefficient(kind, r, mus, b, True)
        nonzero += (d_b != 0) + (c_b != 0)
    return ok, nonzero, sum(mus), ROUTE_B_MAX, None


def run_quasipoly(kind, r, g, n, eta):
    report = polycheck.verify_quasipolynomiality(HurwitzKind.parse(kind), r, g, n, eta)
    points = [p for p, _ in report.grid] + [h[0] for h in report.holdouts]
    values = [v for _, v in report.grid] + [h[1] for h in report.holdouts]
    degree = max((sum(r * nu + e for nu, e in zip(p, eta)) for p in points), default=0)
    b_max = 2 * g - 2 + n + degree // r
    return report.passed, sum(1 for v in values if v), degree, b_max, None


def run_sweep(kind, r, mus, order):
    series = counts.connected_series_character(HurwitzKind.parse(kind), r, mus, order)
    coeffs = [series.coefficient(u=b) for b in range(order + 1)]
    return True, sum(1 for c in coeffs if c), sum(mus), order, coeffs


RUNNERS = {"route": run_route, "quasipoly": run_quasipoly, "sweep": run_sweep}


def genus_zero_closed_form(kind: str, mus) -> Fraction | None:
    """Route-independent r = 1, g = 0 values (ROADMAP item 5).

    usual: d^(n-3) prod mu^mu/mu!;  monotone: (2d+1)^rising(n-3) prod C(2mu, mu),
    where a rising factorial of negative index k is 1/((x-1)...(x-|k|)).
    """
    d, n = sum(mus), len(mus)
    if kind == "usual":
        return Fraction(d) ** (n - 3) * prod(Fraction(m ** m, factorial(m)) for m in mus)
    if kind == "monotone":
        x, k = 2 * d + 1, n - 3
        rising = (Fraction(prod(range(x, x + k))) if k >= 0
                  else Fraction(1, prod(x - j for j in range(1, 1 - k))))
        return rising * prod(comb(2 * m, m) for m in mus)
    return None


def matches_closed_form(request, coeffs) -> bool:
    _, kind, r, mus, _ = request
    expected = genus_zero_closed_form(kind, mus) if r == 1 else None
    return expected is None or coeffs[len(mus) + sum(mus) - 2] == expected


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    requests = job["requests"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, cpu_times, slices, failed, errors, kept = [], [], [], [], [], []
    nonzero = max_degree = b_max = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    for i, request in enumerate(requests):
        slices.append(slice_())
        if tracer is not None:
            tracer.request = i
        cpu = cpu_clock()
        start = clock()
        try:
            ok, nz, degree, b, values = RUNNERS[request[0]](*request[1:])
        except Exception:
            ok, nz, degree, b, values = False, 0, 0, 0, None
            errors.append(traceback.format_exc(limit=3))
        latencies.append(clock() - start)
        cpu_times.append(cpu_clock() - cpu)
        if not ok:
            failed.append(i)
        kept.append(values)
        nonzero += nz
        max_degree, b_max = max(max_degree, degree), max(b_max, b)
    slices.append(slice_())
    # checks outside the timed window
    digests = [None if values is None else coefficient_digest(values) for values in kept]
    for i, (request, values) in enumerate(zip(requests, kept)):
        if values is not None and not matches_closed_form(request, values):
            failed.append(i)
    out = {
        "latencies": latencies,
        "cpu_times": cpu_times,
        "slices": slices,
        "failed": sorted(set(failed)),
        "digests": digests,
        "errors": errors,
        "nonzero": nonzero,
        "max_degree": max_degree,
        "b_max": b_max,
        "trace": None,
    }
    if tracer is not None:
        tracer.request = -1
        out["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
