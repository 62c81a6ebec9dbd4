"""A fixed slice of pure-Python work that samples the host's current speed.

The benchmark runs on a few cores of a shared host whose speed swings by
15-30% over seconds and minutes, as other tenants load it; CPU time swings
with it.  So the benchmark runs one `slice_()` next to every request (in the
worker between requests, in the parent between CLI calls), outside the
request's timed window, and divides each round's times by the median slice
time of that round.  A normalized time is the time the request set would
take at the reference speed, where one slice takes REFERENCE_S.

The slice does what the package spends its time on: products of truncated
series with Fraction coefficients, keyed by exponent tuples in dicts.  It
does not import `hurwitz`, so no change to the package can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median time of one slice on the reference machine (2-vCPU VM of a shared
# host, Python 3.11.7).  Only a fixed scale: changing it changes no ratio.
REFERENCE_S = 0.0028
ORDER = 8


def _series(seed: int) -> dict:
    return {(i, j): Fraction(seed + i - j, 1 + i + 2 * j + seed % 5)
            for i in range(ORDER + 1) for j in range(ORDER + 1 - i)}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if i + j + k + l <= ORDER:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
    return out


def slice_() -> float:
    """Seconds one fixed slice of work takes now."""
    start = time.perf_counter()
    _mul(_series(3), _series(7))
    return time.perf_counter() - start
