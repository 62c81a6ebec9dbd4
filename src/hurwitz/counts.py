"""Hurwitz numbers by the character route and the group-algebra oracle.

The disconnected genus series for a ramification profile mu over an
r-orbifold point is the partition sum

    H(u) = sum_{lam |- d} chi^lam((r^m)) / (r^m m!) * W_lam(u) * chi^lam(mu) / prod(mu)

with m = d/r and W_lam the content weight of the chosen kind: the complete
(monotone) or elementary (strictly monotone) symmetric generating series in
the contents, or exp(u * sum of contents) in the usual case.  Connected
numbers come from the connected-from-disconnected recursion at the level of
u-series; the exponent of u counts simple ramifications
b = 2g - 2 + len(mu) + |mu|/r.

The independent oracle multiplies the orbifold class sum against symmetric
polynomials in the Jucys-Murphy elements inside Q[S_d] and reads off the
coefficient of one fixed permutation of cycle type mu.

`route_series` is the one dispatch over these two routes and the fock route
(module `fock`); `hurwitz_number`, the verifiers and the CLI reach the
routes only through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .kinds import HurwitzKind
from .partitions import (
    connected_from_subprofiles,
    contents,
    character,
    enumerate_partitions,
)
from .series import TruncatedSeries
from .symfunc import complete_coeffs, elementary_coeffs

ORACLE_DEGREE_CAP = 6


class DegreeCapError(ValueError):
    """The profile's degree is beyond what the route computes."""


# the three independent routes, in the order the CLI reports them
METHODS = ("character", "fock", "oracle")


@dataclass(frozen=True)
class Profile:
    """A tuple of positive integers with its euclidean data mod r."""

    mus: tuple[int, ...]
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be positive")
        if not self.mus or any(m < 1 for m in self.mus):
            raise ValueError("profile entries must be positive integers")
        object.__setattr__(self, "mus", tuple(self.mus))

    @property
    def degree(self) -> int:
        return sum(self.mus)

    def quotients(self) -> tuple[int, ...]:
        return tuple(m // self.r for m in self.mus)

    def residues(self) -> tuple[int, ...]:
        return tuple(m % self.r for m in self.mus)


@dataclass(frozen=True)
class HurwitzRequest:
    kind: HurwitzKind
    r: int
    g: int
    mus: tuple[int, ...]
    connected: bool = True
    method: str = "character"

    def __post_init__(self):
        object.__setattr__(self, "mus", Profile(self.mus, self.r).mus)

    def branch_count(self) -> Fraction:
        """b = 2g - 2 + n + d/r; integrality is a vanishing condition."""
        return 2 * self.g - 2 + len(self.mus) + Fraction(sum(self.mus), self.r)


def _weight_coeffs(kind: HurwitzKind, lam: tuple[int, ...], order: int) -> list[Fraction]:
    cs = contents(lam)
    if kind is HurwitzKind.MONOTONE:
        return complete_coeffs(cs, order)
    if kind is HurwitzKind.STRICT:
        return elementary_coeffs(cs, order)
    total = sum(cs)
    out, power = [], Fraction(1)
    for b in range(order + 1):
        if b:
            power = power * total / b
        out.append(power)
    return out


@lru_cache(maxsize=None)
def _disconnected_coeffs(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                         order: int) -> tuple[Fraction, ...]:
    d = sum(mus)
    if d % r != 0:
        return (Fraction(0),) * (order + 1)
    m = d // r
    orb = (r,) * m
    acc = [Fraction(0)] * (order + 1)
    rho = tuple(sorted(mus, reverse=True))
    norm = Fraction(1, r ** m * factorial(m) * prod(mus))
    for lam in enumerate_partitions(d):
        chi_orb = character(lam, orb)
        if chi_orb == 0:
            continue
        chi_mu = character(lam, rho)
        if chi_mu == 0:
            continue
        scale = norm * chi_orb * chi_mu
        for b, w in enumerate(_weight_coeffs(kind, lam, order)):
            if w:
                acc[b] += scale * w
    return tuple(acc)


def disconnected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                                  u_order: int) -> TruncatedSeries:
    """Genus series of disconnected Hurwitz numbers, sum_b h_b u^b."""
    coeffs = _disconnected_coeffs(kind, r, tuple(mus), u_order)
    return TruncatedSeries(("u",), {(b,): c for b, c in enumerate(coeffs)},
                           {"u": u_order})


def connected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                               u_order: int) -> TruncatedSeries:
    """Connected genus series via the inclusion-exclusion over sub-profiles."""
    return connected_from_subprofiles(
        mus, lambda sub: disconnected_series_character(kind, r, sub, u_order))


# -- group-algebra oracle ----------------------------------------------------


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p: tuple) -> tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def canonical_permutation(mus: Sequence[int]) -> tuple:
    """One fixed permutation of cycle type mus: consecutive cycles."""
    out, start = [], 0
    for m in mus:
        out.extend(list(range(start + 1, start + m)) + [start])
        start += m
    return tuple(out)


@lru_cache(maxsize=None)
def _class_members(d: int, rho: tuple[int, ...]) -> tuple:
    return tuple(p for p in itertools.permutations(range(d)) if cycle_type(p) == rho)


def _transposition(d: int, i: int, j: int) -> tuple:
    p = list(range(d))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _elem_mul(a: dict, b: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = _compose(pa, pb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _jucys_murphy(d: int, k: int) -> dict:
    # J_k = sum_{i<k} (i k), in 1-based labels; zero-based internally
    return {_transposition(d, i, k - 1): Fraction(1) for i in range(k - 1)}


@lru_cache(maxsize=None)
def _phi(kind: HurwitzKind, d: int, b: int) -> dict:
    """h_b / e_b / (sum J)^b / b! of the Jucys-Murphy elements J_2..J_d."""
    ident = {tuple(range(d)): Fraction(1)}
    if b == 0:
        return ident
    if kind is HurwitzKind.USUAL:
        j_total: dict[tuple, Fraction] = {}
        for k in range(2, d + 1):
            for p, c in _jucys_murphy(d, k).items():
                j_total[p] = j_total.get(p, Fraction(0)) + c
        power = _elem_mul(_phi(kind, d, b - 1), j_total) if b > 1 else j_total
        return {p: c / b for p, c in power.items()}
    table = [ident] + [{} for _ in range(b)]
    for k in range(2, d + 1):
        jk = _jucys_murphy(d, k)
        if kind is HurwitzKind.MONOTONE:
            # h: repeats allowed, so feed the already-updated lower row back in
            for j in range(1, b + 1):
                extra = _elem_mul(table[j - 1], jk)
                merged = dict(table[j])
                for p, c in extra.items():
                    merged[p] = merged.get(p, Fraction(0)) + c
                table[j] = {p: c for p, c in merged.items() if c}
        else:
            # sigma: each J_k used at most once
            for j in range(b, 0, -1):
                extra = _elem_mul(table[j - 1], jk)
                merged = dict(table[j])
                for p, c in extra.items():
                    merged[p] = merged.get(p, Fraction(0)) + c
                table[j] = {p: c for p, c in merged.items() if c}
    return table[b]


def oracle_group_algebra(kind: HurwitzKind, r: int, b: int, mus: Sequence[int],
                         degree_cap: int = ORACLE_DEGREE_CAP) -> Fraction:
    """Disconnected [u^b] via exact multiplication in Q[S_d].

    Coefficient of one fixed permutation of cycle type mus in
    C_{(r^{d/r})} * Phi_b, divided by prod(mus).
    """
    mus = tuple(mus)
    d = sum(mus)
    if d > degree_cap:
        raise DegreeCapError(f"degree {d} exceeds the oracle cap {degree_cap}")
    if b < 0:
        raise ValueError("b must be nonnegative")
    if d % r != 0:
        return Fraction(0)
    phi = _phi(kind, d, b)
    sigma0 = canonical_permutation(mus)
    total = Fraction(0)
    for pi in _class_members(d, tuple(sorted((r,) * (d // r), reverse=True))):
        total += phi.get(_compose(_inverse(pi), sigma0), Fraction(0))
    return total / prod(mus)


def oracle_series(kind: HurwitzKind, r: int, mus: Sequence[int],
                  u_order: int, degree_cap: int = ORACLE_DEGREE_CAP) -> TruncatedSeries:
    terms = {}
    for b in range(u_order + 1):
        c = oracle_group_algebra(kind, r, b, mus, degree_cap)
        if c:
            terms[(b,)] = c
    return TruncatedSeries(("u",), terms, {"u": u_order})


def connected_series_oracle(kind: HurwitzKind, r: int, mus: Sequence[int],
                            u_order: int, degree_cap: int = ORACLE_DEGREE_CAP) -> TruncatedSeries:
    return connected_from_subprofiles(
        mus, lambda sub: oracle_series(kind, r, sub, u_order, degree_cap))


# -- dispatch ----------------------------------------------------------------


def request_status(req: HurwitzRequest) -> str | None:
    """Reason the number vanishes structurally, or None if it may be nonzero."""
    b = req.branch_count()
    if b.denominator != 1:
        return f"b = 2g-2+n+d/r = {b} is not an integer"
    if b < 0:
        return f"b = {b} is negative"
    if sum(req.mus) % req.r != 0:
        return f"r = {req.r} does not divide |mu| = {sum(req.mus)}"
    if req.connected and req.g < 0:
        return f"g = {req.g} is negative, so no cover is connected"
    return None


def route_series(route: str, kind: HurwitzKind, r: int, mus: Sequence[int],
                 b_max: int, connected: bool) -> tuple[Fraction, ...]:
    """h_0..h_{b_max} of the (dis)connected genus series by one route.

    The only dispatch over METHODS.  The fock series counts 2g-2+n, so its
    coefficients are shifted by d/r onto the simple ramification count b.
    """
    mus = tuple(mus)
    if route == "fock":
        d = sum(mus)
        shift = d // r
        if d % r or b_max - shift < -len(mus):
            return (Fraction(0),) * (b_max + 1)
        from .fock import fock_genus_series
        series = fock_genus_series(kind, r, mus, b_max - shift, connected=connected)
        return tuple(series.coefficient(u=b - shift) for b in range(b_max + 1))
    if route == "character":
        build = connected_series_character if connected else disconnected_series_character
    elif route == "oracle":
        build = connected_series_oracle if connected else oracle_series
    else:
        raise ValueError(f"unknown method {route!r}")
    series = build(kind, r, mus, b_max)
    return tuple(series.coefficient(u=b) for b in range(b_max + 1))


def hurwitz_number(req: HurwitzRequest) -> Fraction:
    """Evaluate one Hurwitz number; structurally-vanishing requests give 0."""
    if request_status(req) is not None:
        return Fraction(0)
    b = int(req.branch_count())
    return route_series(req.method, req.kind, req.r, req.mus, b, req.connected)[b]


def fock_shifted_coefficient(kind: HurwitzKind, r: int, mus: Sequence[int],
                             b: int, connected: bool) -> Fraction:
    """[u^b] of the fock-route genus series (graded like the character route)."""
    return route_series("fock", kind, r, mus, b, connected)[b]


def result_record(req: HurwitzRequest, value: Fraction) -> dict:
    """JSON-ready record for one computed number."""
    return {
        "kind": req.kind.value,
        "r": req.r,
        "g": req.g,
        "mu": list(req.mus),
        "connected": req.connected,
        "method": req.method,
        "value": str(value),
    }
