"""Hurwitz numbers by three routes behind one dispatch.

Every route gives the disconnected genus series of a ramification profile
mu over an r-orbifold point as the tuple h_0..h_{b_max} of Fractions, where
b = 2g - 2 + len(mu) + |mu|/r counts simple ramifications; each takes
(kind, r, mus sorted decreasingly, b_max).

The character route (`_disconnected_coeffs`) is the partition sum

    H(u) = sum_{lam |- d} chi^lam((r^m)) / (r^m m!) * W_lam(u) * chi^lam(mu) / prod(mu)

with m = d/r and W_lam the content weight of the chosen kind: the complete
(monotone) or elementary (strictly monotone) symmetric generating series in
the contents, or exp(u * sum of contents) in the usual case.

The sum runs over the smaller support of the two characters, as built by
`partitions.CharacterCache.at`, and in Python integers: for each b it
accumulates chi^lam((r^m)) * chi^lam(mu) * W_lam[b], with h_b, sigma_b or
(sum of contents)^b as the integer weight, and divides once, by
r^m m! prod(mu) (times b! in the usual case).  Each (kind, r, profile)
keeps one memo entry, the longest series computed for it; a shorter order is
a slice of it.

The oracle (`oracle_series`) multiplies the orbifold class sum against
symmetric polynomials in the Jucys-Murphy elements inside Q[S_d] and reads
off the coefficient of one fixed permutation of cycle type mu.  The fock
route is `fock.disconnected_block_series`.

`route_series` is the one dispatch over the three: it takes a connected
series from the route's disconnected series of the sub-multisets of mu by
one inclusion-exclusion, shared by all routes.  `hurwitz_number`, the
verifiers and the CLI reach the routes only through it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .fock import disconnected_block_series
from .kinds import HurwitzKind
from .partitions import active_cache, connected_from_subprofiles, contents
from .series import TruncatedSeries
from .symfunc import complete_coeffs, elementary_coeffs

ORACLE_DEGREE_CAP = 6


class DegreeCapError(ValueError):
    """The profile's degree is beyond what the route computes."""


# the three independent routes, in the order the CLI reports them
METHODS = ("character", "fock", "oracle")


@dataclass(frozen=True)
class HurwitzRequest:
    kind: HurwitzKind
    r: int
    g: int
    mus: tuple[int, ...]
    connected: bool = True
    method: str = "character"

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        mus = tuple(self.mus)
        if not mus or any(m < 1 for m in mus):
            raise ValueError("profile entries must be positive integers")
        object.__setattr__(self, "mus", mus)

    def branch_count(self) -> Fraction:
        """b = 2g - 2 + n + d/r; integrality is a vanishing condition."""
        return 2 * self.g - 2 + len(self.mus) + Fraction(sum(self.mus), self.r)


def _weight_coeffs(kind: HurwitzKind, lam: tuple[int, ...], order: int) -> list[int]:
    """Integer content weights of lam on [0, order]; the usual kind's lack 1/b!."""
    cs = contents(lam)
    if kind is HurwitzKind.MONOTONE:
        return complete_coeffs(cs, order)
    if kind is HurwitzKind.STRICT:
        return elementary_coeffs(cs, order)
    total = sum(cs)
    return [total ** b for b in range(order + 1)]


def _partition_sum(kind: HurwitzKind, r: int, rho: tuple[int, ...],
                   order: int) -> tuple[Fraction, ...]:
    """h_0..h_order of the character route at the sorted profile rho, uncached."""
    d = sum(rho)
    if d % r != 0:
        return (Fraction(0),) * (order + 1)
    m = d // r
    chars = active_cache()
    small, other = sorted((chars.at((r,) * m), chars.at(rho)), key=len)
    acc = [0] * (order + 1)
    for lam, chi in small.items():
        chi *= other.get(lam, 0)
        if chi:
            acc = [a + chi * w for a, w in zip(acc, _weight_coeffs(kind, lam, order))]
    norm = r ** m * factorial(m) * prod(rho)
    if kind is HurwitzKind.USUAL:
        return tuple(Fraction(a, norm * factorial(b)) for b, a in enumerate(acc))
    return tuple(Fraction(a, norm) for a in acc)


# (kind, r, sorted profile) -> the longest coefficient tuple computed for it;
# the lock makes "only ever replaced by a longer prefix" hold across threads
_CHARACTER_SERIES: dict[tuple, tuple[Fraction, ...]] = {}
_CHARACTER_SERIES_LOCK = threading.Lock()


def _disconnected_coeffs(kind: HurwitzKind, r: int, rho: tuple[int, ...],
                         order: int) -> tuple[Fraction, ...]:
    key = (kind, r, rho)
    coeffs = _CHARACTER_SERIES.get(key, ())
    if len(coeffs) <= order:
        coeffs = _partition_sum(kind, r, rho, order)
        with _CHARACTER_SERIES_LOCK:
            if len(coeffs) > len(_CHARACTER_SERIES.get(key, ())):
                _CHARACTER_SERIES[key] = coeffs
    return coeffs[:order + 1]


def disconnected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                                  u_order: int) -> TruncatedSeries:
    """Genus series of disconnected Hurwitz numbers, sum_b h_b u^b."""
    coeffs = _disconnected_coeffs(kind, r, tuple(sorted(mus, reverse=True)), u_order)
    return TruncatedSeries(("u",), {(b,): c for b, c in enumerate(coeffs)}, {"u": u_order})


def connected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                               u_order: int) -> TruncatedSeries:
    """Connected genus series of the character route, as `route_series` builds it."""
    coeffs = route_series("character", kind, r, mus, u_order, True)
    return TruncatedSeries(("u",), {(b,): c for b, c in enumerate(coeffs)}, {"u": u_order})


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
    # h feeds the already-updated lower row back in (repeats allowed);
    # sigma updates from the top, so each J_k is used at most once
    rows = range(1, b + 1) if kind is HurwitzKind.MONOTONE else range(b, 0, -1)
    for k in range(2, d + 1):
        jk = _jucys_murphy(d, k)
        for j in rows:
            merged = dict(table[j])
            for p, c in _elem_mul(table[j - 1], jk).items():
                merged[p] = merged.get(p, Fraction(0)) + c
            table[j] = {p: c for p, c in merged.items() if c}
    return table[b]


def oracle_group_algebra(kind: HurwitzKind, r: int, b: int, mus: Sequence[int]) -> Fraction:
    """Disconnected [u^b] via exact multiplication in Q[S_d].

    Coefficient of one fixed permutation of cycle type mus in
    C_{(r^{d/r})} * Phi_b, divided by prod(mus).
    """
    mus = tuple(mus)
    d = sum(mus)
    if d > ORACLE_DEGREE_CAP:
        raise DegreeCapError(f"degree {d} exceeds the oracle cap {ORACLE_DEGREE_CAP}")
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


def oracle_series(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                  b_max: int) -> tuple[Fraction, ...]:
    return tuple(oracle_group_algebra(kind, r, b, mus) for b in range(b_max + 1))


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

    The only dispatch over METHODS; the route functions are looked up by
    name at each call, so a rebound module attribute is the one that runs.
    A proper sub-profile is zero without asking its route when r does not
    divide its degree or b_max is below |sub|/r - len(sub), the least b of
    a cover (each part its own genus-0 component).
    """
    routes = {"character": _disconnected_coeffs, "fock": disconnected_block_series,
              "oracle": oracle_series}
    if route not in routes:
        raise ValueError(f"unknown method {route!r}")
    mus = tuple(sorted(mus, reverse=True))

    def disconnected(sub: tuple[int, ...]) -> tuple[Fraction, ...]:
        if len(sub) < len(mus) and (sum(sub) % r or b_max < sum(sub) // r - len(sub)):
            return (Fraction(0),) * (b_max + 1)
        return routes[route](kind, r, sub, b_max)

    return connected_from_subprofiles(mus, disconnected) if connected else disconnected(mus)


def hurwitz_number(req: HurwitzRequest) -> Fraction:
    """Evaluate one Hurwitz number; structurally-vanishing requests give 0."""
    if request_status(req) is not None:
        return Fraction(0)
    b = int(req.branch_count())
    return route_series(req.method, req.kind, req.r, req.mus, b, req.connected)[b]


def fock_shifted_coefficient(kind: HurwitzKind, r: int, mus: Sequence[int],
                             b: int, connected: bool) -> Fraction:
    """[u^b] of the fock-route genus series."""
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
