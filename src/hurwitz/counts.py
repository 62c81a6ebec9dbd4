"""Hurwitz numbers by three routes behind one dispatch.

Every route gives the disconnected genus series of a ramification profile
mu over an r-orbifold point as the tuple h_0..h_{b_max} of Fractions, where
b = 2g - 2 + len(mu) + |mu|/r counts simple ramifications; each takes
(kind, r, mus sorted decreasingly, b_max).

The character route (`_partition_sum`) is the partition sum

    H(u) = sum_{lam |- d} chi^lam((r^m)) / (r^m m!) * W_lam(u) * chi^lam(mu) / prod(mu)

with m = d/r and W_lam the content weight of the chosen kind: the complete
(monotone) or elementary (strictly monotone) symmetric generating series in
the contents, or exp(u * sum of contents) in the usual case.

The sum runs over the smaller support of the two characters, as built by
`partitions.CharacterCache.at`, and in Python integers: for each b it
accumulates chi^lam((r^m)) * chi^lam(mu) * W_lam[b], with h_b, sigma_b or
(sum of contents)^b as the integer weight, and divides once, by
r^m m! prod(mu) (times b! in the usual case).  It takes one lam of each
conjugate pair {lam, lam'}: chi^lam'(rho) = sgn(rho) chi^lam(rho), and
the contents of lam' are those of lam negated, so W_lam'[b] = (-1)^b W_lam[b].
With eps = sgn((r^m)) sgn(mu), a pair adds (1 + eps (-1)^b) times lam's
term, twice it or nothing, and a self-conjugate lam its term once, at the
same b only: its chi chi needs eps = 1, and its W_lam[b] vanishes at odd b.
Like the fock route it is an lru_cache on the route contract (kind, r,
sorted profile, b_max).

The oracle (`oracle_series`, degree <= 6) multiplies the orbifold class sum
against symmetric polynomials in the Jucys-Murphy elements inside Z[S_d] and
reads off the coefficient of one fixed permutation of cycle type mu, with one
integer sum and one exact division per b.  Those polynomials are central in
Z[S_k] (Jucys; Murphy), so each is held as a class function (`_phi`), its
value on a class computed at one permutation of it, and the sum runs over
the classes of the products, each with its count; the tests keep the full
rows in Z[S_k] as the reference.  Like the other two routes it is an
lru_cache on the route contract.  The fock route is
`fock.disconnected_block_series`.

`route_series` is the one dispatch over the three: it takes a connected
series from the route's disconnected series of the sub-multisets of mu by
one inclusion-exclusion, shared by all routes.  It answers zeros when r
does not divide |mu|; otherwise every cover of mu has b = |mu|/r + len(mu)
mod 2, so it asks each block only through the last b of that block's
parity that the answer reads, and b_max = 2k and 2k + 1 share one block
build.  `hurwitz_number`, the verifiers and the CLI reach the routes only
through it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .fock import disconnected_block_series
from .kinds import METHODS, HurwitzKind, check_profile, check_r
from .partitions import active_cache, connected_from_subprofiles, enumerate_partitions
from .series import TruncatedSeries
from .symfunc import complete_coeffs, elementary_coeffs

ORACLE_DEGREE_CAP = 6


class DegreeCapError(ValueError):
    """The profile's degree is beyond what the route computes."""


class HurwitzRequest:
    """One Hurwitz number: its kind, r, genus g, profile mus, connectedness and route.

    r < 1, an unknown method or a profile `kinds.check_profile` refuses
    raises ValueError; mus is kept as a tuple.
    """

    __slots__ = ("kind", "r", "g", "mus", "connected", "method")

    def __init__(self, kind: HurwitzKind, r: int, g: int, mus: Sequence[int],
                 connected: bool = True, method: str = "character"):
        check_r(r)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        mus = tuple(mus)
        check_profile(mus, "mus")
        self.kind, self.r, self.g, self.mus = kind, r, g, mus
        self.connected, self.method = connected, method

    def branch_count(self) -> Fraction:
        """b = 2g - 2 + n + d/r; integrality is a vanishing condition."""
        return 2 * self.g - 2 + len(self.mus) + Fraction(sum(self.mus), self.r)


def _weight_coeffs(kind: HurwitzKind, lam: tuple[int, ...], order: int) -> list[int]:
    """Integer content weights of lam on [0, order]; the usual kind's lack 1/b!.

    lam comes from a character table, so it is a partition and its contents
    are read off without `partitions.contents`' validation.
    """
    cs = [j - i for i, row in enumerate(lam) for j in range(row)]
    if kind is HurwitzKind.MONOTONE:
        return complete_coeffs(cs, order)
    if kind is HurwitzKind.STRICT:
        return elementary_coeffs(cs, order)
    total = sum(cs)
    return [total ** b for b in range(order + 1)]


@lru_cache(maxsize=None)
def _partition_sum(kind: HurwitzKind, r: int, rho: tuple[int, ...],
                   order: int) -> tuple[Fraction, ...]:
    """h_0..h_order of the character route at the sorted profile rho."""
    d = sum(rho)
    if d % r != 0:
        return (Fraction(0),) * (order + 1)
    m = d // r
    chars = active_cache()
    small, other = sorted((chars.at((r,) * m), chars.at(rho)), key=len)
    # allocated first: an order past the index range raises OverflowError here
    acc = [0] * (order + 1)
    # eps = sgn((r^m)) sgn(rho) = (-1)^parity; the pair {lam, lam'} adds
    # (1 + eps (-1)^b) chi chi W_lam[b], twice the term at b = parity mod 2, and
    # a self-conjugate lam its term once, nonzero only at those b (see above)
    parity = (d - m + d - len(rho)) % 2
    for lam, chi in small.items():
        if lam[0] < len(lam):
            continue
        weight = 2
        if lam[0] == len(lam):
            conj = tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))
            if lam < conj:
                continue
            weight = 1 + (lam != conj)
        chi *= other.get(lam, 0) * weight
        if not chi:
            continue
        w = _weight_coeffs(kind, lam, order)
        for b in range(parity, order + 1, 2):
            acc[b] += chi * w[b]
    norm = r ** m * factorial(m) * prod(rho)
    if kind is HurwitzKind.USUAL:
        return tuple(Fraction(a, norm * factorial(b)) for b, a in enumerate(acc))
    return tuple(Fraction(a, norm) for a in acc)


def _series_character(kind: HurwitzKind, r: int, mus: Sequence[int], u_order: int,
                      connected: bool) -> TruncatedSeries:
    """sum_b h_b u^b through u_order, from the character route's `route_series`."""
    if u_order < 0:
        raise ValueError(f"u_order must be nonnegative, got {u_order}")
    coeffs = route_series("character", kind, r, mus, u_order, connected)
    return TruncatedSeries(("u",), {(b,): c for b, c in enumerate(coeffs)}, {"u": u_order})


def disconnected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                                  u_order: int) -> TruncatedSeries:
    """Genus series of disconnected Hurwitz numbers, sum_b h_b u^b."""
    return _series_character(kind, r, mus, u_order, False)


def connected_series_character(kind: HurwitzKind, r: int, mus: Sequence[int],
                               u_order: int) -> TruncatedSeries:
    """Connected genus series of the character route, as `route_series` builds it."""
    return _series_character(kind, r, mus, u_order, True)


# -- group-algebra oracle ----------------------------------------------------


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


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
    for part in mus:
        out.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(out)


@lru_cache(maxsize=None)
def _class_members(d: int, r: int) -> tuple:
    """The class (r^{d/r}) of S_d: each r-cycle from the least free point,
    then r - 1 more free points in order."""
    def extend(perm: list, free: tuple):
        if not free:
            yield tuple(perm)
            return
        head, rest = free[0], free[1:]
        for others in itertools.permutations(rest, r - 1):
            cycle = (head, *others)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
            yield from extend(perm, tuple(x for x in rest if x not in others))

    return tuple(extend(list(range(d)), tuple(range(d))))


@lru_cache(maxsize=None)
def _steps(k: int) -> dict:
    """Per class lam |- k, at x = canonical_permutation(lam), two tuples of
    (key, multiplicity) pairs: the classes of x (i k-1), i < k-1, keyed with
    whether the product fixes k-1, and the classes of x (i j), i < j.

    x (i j) is x with its entries at i and j swapped, and x (i k-1) fixes
    k-1 exactly when x(i) = k-1.
    """
    def swapped(x: tuple, i: int, j: int) -> tuple:
        y = list(x)
        y[i], y[j] = y[j], y[i]
        return tuple(y)

    table = {}
    for lam in enumerate_partitions(k):
        x = canonical_permutation(lam)
        last = Counter((cycle_type(swapped(x, i, k - 1)), x[i] == k - 1) for i in range(k - 1))
        pairs = Counter(cycle_type(swapped(x, i, j)) for j in range(k) for i in range(j))
        table[lam] = (tuple(last.items()), tuple(pairs.items()))
    return table


@lru_cache(maxsize=None)
def _phi(kind: HurwitzKind, k: int, b: int) -> dict:
    """h_b / e_b / (sum J)^b of J_2..J_k as a class function on S_k.

    Symmetric polynomials in the Jucys-Murphy elements are central in Z[S_k],
    so the row maps each class lam |- k to its value there, zeros left out,
    and each value is read at one permutation x of the class (`_steps`).
    With lam - 1 the class lam less one part 1, present when x fixes k-1:
    h_b[k](lam) = h_b[k-1](lam - 1) + sum_i h_{b-1}[k](x (i k-1)) and
    e_b[k](lam) = e_b[k-1](lam - 1) + sum_i e_{b-1}[k-1](x (i k-1) - 1), the
    second sum over the i where x (i k-1) fixes k-1, from
    h_b(J_2..J_k) = h_b(J_2..J_{k-1}) + J_k h_{b-1}(J_2..J_k) and
    e_b(J_2..J_k) = e_b(J_2..J_{k-1}) + J_k e_{b-1}(J_2..J_{k-1}); the power
    sum is p_b[k](lam) = sum_{i<j} p_{b-1}[k](x (i j)).
    """
    if b == 0:
        return {(1,) * k: 1}
    if k == 1:
        return {}
    steps = _steps(k)
    if kind is HurwitzKind.USUAL:
        below = _phi(kind, k, b - 1)
        row = {lam: sum(c * below.get(mu, 0) for mu, c in pairs)
               for lam, (_, pairs) in steps.items()}
    else:
        lower = _phi(kind, k - 1, b)
        row = {lam: lower.get(lam[:-1], 0) if lam[-1] == 1 else 0 for lam in steps}
        if kind is HurwitzKind.MONOTONE:
            below = _phi(kind, k, b - 1)
            for lam, (last, _) in steps.items():
                row[lam] += sum(c * below.get(mu, 0) for (mu, _), c in last)
        else:
            below = _phi(kind, k - 1, b - 1)
            for lam, (last, _) in steps.items():
                row[lam] += sum(c * below.get(mu[:-1], 0) for (mu, fixes), c in last if fixes)
    return {lam: v for lam, v in row.items() if v}


@lru_cache(maxsize=None)
def _oracle_classes(r: int, mus: tuple[int, ...]) -> tuple:
    """(class, count) of pi sigma0 over pi in the class (r^{d/r}), sigma0
    the fixed permutation of type mus."""
    sigma0 = canonical_permutation(mus)
    tally = Counter(cycle_type(_compose(pi, sigma0)) for pi in _class_members(sum(mus), r))
    return tuple(tally.items())


@lru_cache(maxsize=None)
def oracle_series(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                  b_max: int) -> tuple[Fraction, ...]:
    """h_0..h_{b_max} of the oracle route by exact multiplication in Z[S_d].

    [u^b] is the coefficient of one fixed permutation sigma0 of cycle type
    mus in C_{(r^{d/r})} * Phi_b: the sum of Phi_b(pi sigma0) over pi in the
    class (closed under inversion), divided by prod(mus), times b! in the
    usual case.  Phi_b is central, so the sum is taken over the classes of
    the products pi sigma0, each counted once (`_oracle_classes`), against
    the class-function row `_phi`; the tests keep the full rows in Z[S_k]
    as the reference.  An lru_cache on the route contract, and the one
    route that refuses: past ORACLE_DEGREE_CAP it raises DegreeCapError.
    """
    d = sum(mus)
    if d > ORACLE_DEGREE_CAP:
        raise DegreeCapError(f"the oracle is capped at degree {ORACLE_DEGREE_CAP}, got {d}")
    if d % r != 0:
        return (Fraction(0),) * (b_max + 1)
    classes = _oracle_classes(r, mus)
    acc = []
    for b in range(b_max + 1):
        phi = _phi(kind, d, b)
        acc.append(sum(c * phi.get(lam, 0) for lam, c in classes))
    norm = prod(mus)
    if kind is HurwitzKind.USUAL:
        return tuple(Fraction(a, norm * factorial(b)) for b, a in enumerate(acc))
    return tuple(Fraction(a, norm) for a in acc)


def oracle_group_algebra(kind: HurwitzKind, r: int, b: int, mus: Sequence[int]) -> Fraction:
    """Disconnected [u^b] of the oracle route."""
    return route_series("oracle", kind, r, mus, b, False)[b]


# -- dispatch ----------------------------------------------------------------


def request_status(req: HurwitzRequest) -> str | None:
    """Reason the number vanishes structurally, or None if it may be nonzero.

    b is an integer exactly when r divides |mu|, so its integrality check
    covers that condition too.
    """
    b = req.branch_count()
    if b.denominator != 1:
        return f"b = 2g-2+n+d/r = {b} is not an integer"
    if b < 0:
        return f"b = {b} is negative"
    if req.connected and req.g < 0:
        return f"g = {req.g} is negative, so no cover is connected"
    return None


def route_series(route: str, kind: HurwitzKind, r: int, mus: Sequence[int],
                 b_max: int, connected: bool) -> tuple[Fraction, ...]:
    """h_0..h_{b_max} of the (dis)connected genus series by one route.

    The only dispatch over METHODS; the route functions are looked up by
    name at each call, so a rebound module attribute is the one that runs.
    An unknown route, r < 1, an empty profile, a part that is not a
    positive integer or b_max < 0 raises ValueError.  When r does not
    divide |mus| there is no cover, and the answer is zeros before any
    route is asked.

    Each block N of the profile M is asked only as far as the answer can
    read it.  A cover of X is a factorization sigma_0 tau_1 ... tau_b
    sigma_inf = 1, sigma_0 of type (r^{|X|/r}) and sigma_inf of type X, so
    (-1)^b = sgn sigma_0 sgn sigma_inf and b = |X|/r + len(X) mod 2, for
    every kind.  Each component c has b_c >= d_c/r - n_c, so D(X) and C(X)
    vanish below v(X), the least b >= max(0, |X|/r - len(X)) of that
    parity: |X|/r - len(X) when positive, else (|X|/r + len(X)) mod 2.
    M's block is asked through top, the last b <= b_max of M's parity, or
    0 when there is none, and the answer is padded with zeros to b_max.
    Every product reaching C(M) at b <= top pairs D(N) with factors covering
    R = M - N, whose least b sum to at least v(R): each v(P) has P's parity
    and is at least max(0, a_P), a_P = |P|/r - len(P), so their sum has R's
    parity and is at least max(0, sum a_P).  So N's block stops at
    b_N = top - v(R), which has N's parity, and the requests at b_max = 2k
    and 2k + 1 are one cache entry of the route.  M's own block always
    reaches its route when r divides |M|, so the oracle's degree cap is
    never skipped.  A proper N is zero, returned as (), without asking its
    route when r does not divide |N| or when b_N < v(N).  When every part
    is at least r, top = b_max and b_N = 2g - 2 + 2n - len(N) + |N|/r
    depends on (g, n) and N alone, so the verifier asks each profile once
    per run.
    """
    routes = {"character": _partition_sum, "fock": disconnected_block_series,
              "oracle": oracle_series}
    if route not in routes:
        raise ValueError(f"unknown method {route!r}")
    check_r(r)
    mus = tuple(sorted(mus, reverse=True))
    check_profile(mus, "mus")
    if b_max < 0:
        raise ValueError(f"b_max must be nonnegative, got {b_max}")
    d, n = sum(mus), len(mus)
    if d % r:
        return (Fraction(0),) * (b_max + 1)
    top = b_max
    if (b_max - d // r - n) % 2:
        top = max(0, b_max - 1)

    # v(X) of a sub-multiset X of mus, given |X| and len(X)
    def least_b(size: int, parts: int) -> int:
        excess = size // r - parts
        return excess if excess > 0 else (size // r + parts) % 2

    def disconnected(sub: tuple[int, ...]) -> tuple[Fraction, ...]:
        if len(sub) == n:
            return routes[route](kind, r, sub, top)
        size = sum(sub)
        if size % r:
            return ()
        b_sub = top - least_b(d - size, n - len(sub))
        if b_sub < least_b(size, len(sub)):
            return ()
        return routes[route](kind, r, sub, b_sub)

    coeffs = connected_from_subprofiles(mus, disconnected) if connected else disconnected(mus)
    return coeffs + (Fraction(0),) * (b_max - top)


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
