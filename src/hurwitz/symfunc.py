"""Complete/elementary symmetric polynomials and Stirling numbers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def sym_poly(kind: str, k: int, values: Sequence) -> Fraction:
    """Evaluate h_k (kind="complete") or sigma_k (kind="elementary").

    h_0 = sigma_0 = 1; sigma_k = 0 when k exceeds the number of values.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    vals = [Fraction(v) for v in values]
    if kind == "complete":
        return Fraction(complete_coeffs(vals, k)[k])
    if kind == "elementary":
        return Fraction(elementary_coeffs(vals, k)[k])
    raise ValueError(f"unknown symmetric polynomial kind: {kind!r}")


def complete_coeffs(values: Sequence, order: int) -> list:
    """Coefficients [h_0, ..., h_order] of prod 1/(1 - u*x_i).

    Starts from the ints 1 and 0, so integer values give integer coefficients.
    """
    coeffs = [1] + [0] * order
    for x in values:
        if x == 0:
            continue
        # multiply by 1/(1 - u*x): c_j += x * c_{j-1}
        for j in range(1, order + 1):
            coeffs[j] += x * coeffs[j - 1]
    return coeffs


def elementary_coeffs(values: Sequence, order: int) -> list:
    """Coefficients [sigma_0, ..., sigma_order] of prod (1 + u*x_i).

    Starts from the ints 1 and 0, so integer values give integer coefficients.
    Each pass stops at the number k of nonzero values taken so far, since
    sigma_j of k values is 0 for j > k.
    """
    coeffs = [1] + [0] * order
    k = 0
    for x in values:
        if x == 0:
            continue
        k += 1
        for j in range(min(order, k), 0, -1):
            coeffs[j] += x * coeffs[j - 1]
    return coeffs


@lru_cache(maxsize=None)
def _stirling_first_row(j: int) -> tuple:
    # coefficients of T(T+1)...(T+j-1) as a polynomial in T
    poly = [1]  # the empty product
    for i in range(j):
        # multiply by (T + i)
        new = [0] * (len(poly) + 1)
        for e, c in enumerate(poly):
            new[e + 1] += c
            new[e] += i * c
        poly = new
    return tuple(poly)


@lru_cache(maxsize=None)
def _stirling_second(j: int, t: int) -> int:
    if j == 0:
        return 1 if t == 0 else 0
    if t <= 0 or t > j:
        return 0
    return t * _stirling_second(j - 1, t) + _stirling_second(j - 1, t - 1)


def stirling(kind: str, j: int, t: int) -> Fraction:
    """Unsigned Stirling numbers: first kind c(j,t), second kind S(j,t).

    c(j,t) is the coefficient of T^t in the rising factorial T(T+1)...(T+j-1);
    S(j,t) expands T^j over falling factorials. Both vanish for t > j, and
    for convenience also for t < 0.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if t > j or t < 0:
        return Fraction(0)
    if kind == "first":
        return Fraction(_stirling_first_row(j)[t])
    if kind == "second":
        return Fraction(_stirling_second(j, t))
    raise ValueError(f"unknown Stirling kind: {kind!r}")
