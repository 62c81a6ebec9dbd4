import itertools
import sys
import threading
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from hurwitz import counts
from hurwitz.counts import (
    METHODS,
    HurwitzRequest,
    canonical_permutation,
    connected_series_character,
    cycle_type,
    disconnected_series_character,
    fock_shifted_coefficient,
    hurwitz_number,
    oracle_group_algebra,
    oracle_series,
    request_status,
    result_record,
    route_series,
)
from hurwitz.fock import disconnected_block_series
from hurwitz.kinds import ALL_KINDS, HurwitzKind as K
from hurwitz.partitions import connected_from_disconnected, contents, enumerate_partitions
from hurwitz.series import TruncatedSeries
from test_partitions import mn_character


def one_point_closed(kind, r, quotient):
    mu, nu = r * quotient, quotient
    if kind is K.MONOTONE:
        return Fraction(factorial(mu + nu - 2), factorial(mu) * factorial(nu))
    return Fraction(factorial(mu - 1), factorial(mu - nu + 1) * factorial(nu))


def test_branch_count_and_status():
    req = HurwitzRequest(K.MONOTONE, 2, 0, (2,))
    assert req.branch_count() == 0
    assert request_status(req) is None
    req = HurwitzRequest(K.MONOTONE, 2, 0, (1,))
    assert request_status(req) is not None
    assert hurwitz_number(req) == 0


def test_disconnected_series_examples():
    s = disconnected_series_character(K.USUAL, 1, (2,), 2)
    assert s.coefficient(u=1) == Fraction(1, 2)
    s = disconnected_series_character(K.MONOTONE, 2, (2,), 2)
    assert s.coefficient(u=0) == Fraction(1, 2)
    s = disconnected_series_character(K.MONOTONE, 2, (3,), 2)
    assert s.is_zero()


def test_hurwitz_number_examples():
    assert hurwitz_number(HurwitzRequest(K.MONOTONE, 1, 0, (1,))) == 1
    # one-point genus 0 at mu=2, r=2: the closed form gives 1/2
    assert hurwitz_number(HurwitzRequest(K.STRICT, 2, 0, (2,))) == Fraction(1, 2)
    assert hurwitz_number(HurwitzRequest(K.MONOTONE, 2, 0, (2, 2))) == Fraction(3, 2)
    assert hurwitz_number(HurwitzRequest(K.MONOTONE, 2, 0, (1, 3))) == 2


def test_one_point_closed_forms():
    for kind in (K.MONOTONE, K.STRICT):
        for r in (1, 2, 3):
            for q in (1, 2):
                got = hurwitz_number(HurwitzRequest(kind, r, 0, (r * q,)))
                assert got == one_point_closed(kind, r, q), (kind, r, q)


def fraction_weights(kind, lam, order):
    """W_lam[0..order] in Fractions: h_b, sigma_b or (sum of contents)^b / b!."""
    cs = [Fraction(c) for c in contents(lam)]
    if kind is K.USUAL:
        out, power = [], Fraction(1)
        for b in range(order + 1):
            if b:
                power = power * sum(cs) / b
            out.append(power)
        return out
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for x in cs:
        if kind is K.MONOTONE:
            for j in range(1, order + 1):
                coeffs[j] += x * coeffs[j - 1]
        else:
            for j in range(min(order, len(cs)), 0, -1):
                coeffs[j] += x * coeffs[j - 1]
    return coeffs


def fraction_partition_sum(kind, r, mus, order):
    """The character-route sum term by term in Fractions: the reference.

    sum_lam chi^lam(r^m) chi^lam(mu) W_lam[b] / (r^m m! prod mu) over every
    lam |- d, with every term scaled and added as a Fraction and the
    characters from the Murnaghan-Nakayama removal reference.
    """
    d = sum(mus)
    if d % r != 0:
        return (Fraction(0),) * (order + 1)
    m = d // r
    orb = (r,) * m
    rho = tuple(sorted(mus, reverse=True))
    norm = Fraction(1, r ** m * factorial(m) * prod(mus))
    acc = [Fraction(0)] * (order + 1)
    for lam in enumerate_partitions(d):
        chi_orb = mn_character(lam, orb)
        if chi_orb == 0:
            continue
        chi_mu = mn_character(lam, rho)
        if chi_mu == 0:
            continue
        scale = norm * chi_orb * chi_mu
        for b, w in enumerate(fraction_weights(kind, lam, order)):
            acc[b] += scale * w
    return tuple(acc)


def test_character_sum_matches_fraction_reference():
    b_max = 8
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(1, 9):
                for mus in enumerate_partitions(d):
                    expected = fraction_partition_sum(kind, r, mus, b_max)
                    for profile in (mus, mus[::-1]):
                        series = disconnected_series_character(kind, r, profile, b_max)
                        got = tuple(series.coefficient(u=b) for b in range(b_max + 1))
                        assert got == expected, (kind, r, profile)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("orders", [(3, 8, 5), (5, 8, 3), (3, 4)])
def test_character_memo_keeps_the_longest_series(kind, orders, monkeypatch):
    # one entry per profile: a shorter order is a slice of the longest
    # series so far, and a longer one (even by one) replaces it
    monkeypatch.setattr(counts, "_CHARACTER_SERIES", {})
    mus = (3, 2, 1)
    longest = 0
    for order in orders:
        got = disconnected_series_character(kind, 2, mus[::-1], order)
        fresh = counts._partition_sum(kind, 2, mus, order)
        assert tuple(got.coefficient(u=b) for b in range(order + 1)) == fresh
        assert got.orders == {"u": order}
        longest = max(longest, order)
        assert counts._CHARACTER_SERIES == {
            (kind, 2, mus): counts._partition_sum(kind, 2, mus, longest)}


def test_character_memo_under_threads(monkeypatch):
    # concurrent requests at mixed orders: every answer is a prefix of the
    # longest series, and that series is the entry left behind
    monkeypatch.setattr(counts, "_CHARACTER_SERIES", {})
    mus = (2, 2, 1, 1)
    expected = counts._partition_sum(K.MONOTONE, 2, mus, 8)
    results = []

    def ask(order):
        series = disconnected_series_character(K.MONOTONE, 2, mus, order)
        results.append((order, tuple(series.coefficient(u=b) for b in range(order + 1))))

    threads = [threading.Thread(target=ask, args=(order,))
               for order in [1, 6, 3, 8, 2, 5, 7, 4] * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    for order, got in results:
        assert got == expected[:order + 1], order
    assert counts._CHARACTER_SERIES == {(K.MONOTONE, 2, mus): expected}


def test_oracle_examples():
    assert oracle_group_algebra(K.USUAL, 1, 1, (2,)) == Fraction(1, 2)
    assert oracle_group_algebra(K.MONOTONE, 1, 0, (1,)) == 1
    # C_{(2)} * J_2 = id has no (12)-coefficient; both routes give 0
    assert oracle_group_algebra(K.STRICT, 2, 1, (2,)) == 0
    assert disconnected_series_character(K.STRICT, 2, (2,), 1).coefficient(u=1) == 0


def test_oracle_calibration_against_one_point_closed_forms():
    # pin the oracle normalization to the closed (0,1) values before the sweep
    for kind in (K.MONOTONE, K.STRICT):
        for r in (1, 2, 3):
            for q in (1, 2):
                mu = r * q
                if mu > 6:
                    continue
                b = q - 1
                assert oracle_group_algebra(kind, r, b, (mu,)) == \
                    one_point_closed(kind, r, q), (kind, r, q)


def test_oracle_cap():
    with pytest.raises(ValueError):
        oracle_group_algebra(K.USUAL, 1, 1, (7,))


def test_permutation_helpers():
    p = canonical_permutation((3, 2))
    assert cycle_type(p) == (3, 2)
    assert canonical_permutation((2,)) == (1, 0)


def test_route_agreement_small():
    # spot grid here; the full desk-scale sweep lives in the acceptance suite
    for kind in ALL_KINDS:
        for r in (1, 2):
            for d in (1, 2, 3, 4):
                if d % r:
                    continue
                for mus in enumerate_partitions(d):
                    for b in range(4):
                        o = oracle_group_algebra(kind, r, b, mus)
                        c = disconnected_series_character(kind, r, mus, b).coefficient(u=b)
                        assert o == c, (kind, r, mus, b)


def test_connected_vs_fock_small():
    for kind in ALL_KINDS:
        for r, mus in [(1, (1, 1)), (1, (2, 1)), (2, (2, 2)), (2, (1, 1, 2)), (3, (3,))]:
            ch = connected_series_character(kind, r, mus, 4)
            for b in range(5):
                assert ch.coefficient(u=b) == fock_shifted_coefficient(kind, r, mus, b, True), \
                    (kind, r, mus, b)


@pytest.mark.parametrize("route", METHODS)
def test_route_series_matches_per_b_answers(route):
    # one series through b = 5 against each b computed on its own, and
    # against hurwitz_number wherever b gives an integral genus
    b_max = 5
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(1, 6):
                for mus in enumerate_partitions(d):
                    for connected in (True, False):
                        coeffs = route_series(route, kind, r, mus, b_max, connected)
                        assert len(coeffs) == b_max + 1
                        for b, value in enumerate(coeffs):
                            where = (kind, r, mus, connected, b)
                            assert value == route_series(
                                route, kind, r, mus, b, connected)[b], where
                            two_g = b + 2 - len(mus) - Fraction(d, r)
                            if two_g.denominator == 1 and two_g % 2 == 0:
                                req = HurwitzRequest(kind, r, int(two_g) // 2, mus,
                                                     connected, route)
                                assert hurwitz_number(req) == value, where


def test_route_series_rejects_unknown_route():
    with pytest.raises(ValueError):
        route_series("abacus", K.MONOTONE, 1, (2,), 2, True)


def route_block(route, kind, r, sub, b_max):
    """The disconnected u-series of one sub-profile, asked of its route directly."""
    rho = tuple(sorted(sub, reverse=True))
    if route == "character":
        return disconnected_series_character(kind, r, rho, b_max)
    route_fn = {"fock": disconnected_block_series, "oracle": oracle_series}[route]
    coeffs = route_fn(kind, r, rho, b_max)
    assert len(coeffs) == b_max + 1
    return TruncatedSeries(("u",), {(b,): c for b, c in enumerate(coeffs)}, {"u": b_max})


@pytest.mark.parametrize("route", METHODS)
def test_connected_series_unchanged_by_skipping_zero_blocks(route):
    # the index-subset inclusion-exclusion on u-series, with every sub-profile
    # asking its route; the character route also through genus 1 on every
    # mu |- 8 with at most 7 parts at r = 1, 2
    b_max = 3 if route == "oracle" else 5
    cases = [(kind, r, mus, b_max) for kind in ALL_KINDS for r in (1, 2, 3)
             for d in range(1, 7) for mus in enumerate_partitions(d)]
    if route == "character":
        cases += [(kind, r, mus, len(mus) + 8 // r) for kind in ALL_KINDS for r in (1, 2)
                  for mus in enumerate_partitions(8) if len(mus) <= 7]
    for kind, r, mus, b_max in cases:
        blocks = {frozenset(sub): route_block(route, kind, r, [mus[i] for i in sub], b_max)
                  for size in range(1, len(mus) + 1)
                  for sub in itertools.combinations(range(len(mus)), size)}
        want = connected_from_disconnected(blocks)
        assert route_series(route, kind, r, mus, b_max, True) == \
            tuple(want.coefficient(u=b) for b in range(b_max + 1)), (kind, r, mus)


def test_connected_fock_skips_zero_blocks(monkeypatch):
    seen = []

    def recording(kind, r, sub, b_max):
        seen.append(sub)
        return disconnected_block_series(kind, r, sub, b_max)

    monkeypatch.setattr(counts, "disconnected_block_series", recording)
    disconnected_block_series.cache_clear()
    route_series("fock", K.MONOTONE, 2, (3, 2, 1), 5, True)
    # only the sub-profiles of even degree reach the route and its cache
    assert sorted(seen) == [(2,), (3, 1), (3, 2, 1)]
    assert disconnected_block_series.cache_info().currsize == 3


def genus_zero_closed_form(kind, mus):
    """r = 1, g = 0 numbers by formulas independent of all three routes.

    Usual: d^(n-3) prod mu^mu/mu! (Hurwitz's formula divided by b!).
    Monotone: (2d+1)^rising(n-3) prod C(2mu, mu) (Goulden, Guay-Paquet and
    Novak, divided by d!), where the rising factorial of negative index -k
    is 1/((x-1)...(x-k)).
    """
    d, n = sum(mus), len(mus)
    if kind is K.USUAL:
        return Fraction(d) ** (n - 3) * prod(Fraction(m ** m, factorial(m)) for m in mus)
    x = 2 * d + 1
    rising = (Fraction(prod(range(x, x + n - 3))) if n >= 3
              else Fraction(1, prod(range(x - 3 + n, x))))
    return rising * prod(comb(2 * m, m) for m in mus)


def test_genus_zero_closed_forms_at_r_1():
    # the trivial cover: 1/((3-1)(3-2)) * C(2, 1) = 1
    assert genus_zero_closed_form(K.MONOTONE, (1,)) == 1
    # (1^12) and (2, 1^10): many parts, few distinct sub-multisets
    many_parts = [(1,) * 12, (2,) + (1,) * 10]
    for kind in (K.USUAL, K.MONOTONE):
        for mus in [mus for d in range(1, 11) for mus in enumerate_partitions(d)
                    if len(mus) <= 4] + many_parts:
            b = len(mus) + sum(mus) - 2
            got = route_series("character", kind, 1, mus, b, True)[b]
            assert got == genus_zero_closed_form(kind, mus), (kind, mus)


def test_symmetry_under_permutation():
    for kind in ALL_KINDS:
        a = connected_series_character(kind, 2, (1, 2, 3), 4)
        b = connected_series_character(kind, 2, (3, 1, 2), 4)
        for e in range(5):
            assert a.coefficient(u=e) == b.coefficient(u=e)


def test_nonnegativity_of_connected_numbers():
    for kind in ALL_KINDS:
        for r in (1, 2):
            for d in range(1, 6):
                if d % r:
                    continue
                for mus in enumerate_partitions(d):
                    for g in range(3):
                        req = HurwitzRequest(kind, r, g, mus)
                        if request_status(req) is None:
                            assert hurwitz_number(req) >= 0, (kind, r, mus, g)


def test_domination_monotone_over_strict():
    # strictly monotone sequences are a subset of the monotone ones
    for r in (1, 2):
        for d in range(1, 6):
            if d % r:
                continue
            for mus in enumerate_partitions(d):
                mono = disconnected_series_character(K.MONOTONE, r, mus, 5)
                strict = disconnected_series_character(K.STRICT, r, mus, 5)
                for b in range(6):
                    assert mono.coefficient(u=b) >= strict.coefficient(u=b), (r, mus, b)


def test_vanishing_conditions():
    # r does not divide d <=> b is not an integer; both flagged and zero
    req = HurwitzRequest(K.USUAL, 3, 0, (2, 2))
    assert request_status(req) is not None
    assert hurwitz_number(req) == 0
    for method in ("character", "oracle", "fock"):
        req = HurwitzRequest(K.MONOTONE, 2, 0, (3,), method=method)
        assert hurwitz_number(req) == 0


def test_request_rejects_bad_inputs():
    for r, mus in [(0, (2,)), (-2, (2,)), (2, (2, 0)), (2, (-1,)), (2, ())]:
        with pytest.raises(ValueError):
            HurwitzRequest(K.MONOTONE, r, 0, mus)
    # a misspelled route is an error, not a silent zero
    for g in (0, -1):
        with pytest.raises(ValueError):
            HurwitzRequest(K.USUAL, 3, g, (2, 2), method="abacus")
    assert HurwitzRequest(K.MONOTONE, 2, 0, [1, 3]).mus == (1, 3)


def test_negative_genus_is_a_structural_zero():
    req = HurwitzRequest(K.MONOTONE, 1, -1, (1, 1, 1, 1))
    assert request_status(req) is not None
    assert hurwitz_number(req) == 0
    # disconnected covers of negative total genus exist
    req = HurwitzRequest(K.MONOTONE, 1, -1, (1, 1, 1, 1), connected=False)
    assert request_status(req) is None
    assert hurwitz_number(req) != 0


def test_routes_compute_zero_at_negative_genus():
    # the request layer answers 0 without computing; both routes must agree
    checked = 0
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(r, 7, r):
                for mus in enumerate_partitions(d):
                    character = connected_series_character(kind, r, mus, 5)
                    for b in range(6):
                        twice_g = b + 2 - len(mus) - d // r
                        if twice_g >= 0 or twice_g % 2:
                            continue
                        assert character.coefficient(u=b) == 0, (kind, r, mus, b)
                        assert fock_shifted_coefficient(kind, r, mus, b, True) == 0, \
                            (kind, r, mus, b)
                        checked += 1
    assert checked > 100


def test_result_record():
    req = HurwitzRequest(K.MONOTONE, 2, 0, (1, 3))
    rec = result_record(req, Fraction(2))
    assert rec == {"kind": "monotone", "r": 2, "g": 0, "mu": [1, 3],
                   "connected": True, "method": "character", "value": "2"}


def _transpositions(d):
    return [(i, k) for k in range(1, d) for i in range(k)]


def _apply_transposition(p, t):
    i, k = t
    q = list(p)
    q[i], q[k] = q[k], q[i]
    return tuple(q)


def _is_transitive(d, perms):
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, j in enumerate(p):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(d)}) == 1


def direct_count(kind, r, mus, b, connected):
    """First-principles enumeration of weighted transposition factorizations.

    Counts tuples (pi, tau_1..tau_b) with pi of cycle type (r^{d/r}),
    pi . tau_1 ... tau_b equal to one fixed permutation of cycle type mus,
    maxima of the transpositions weakly (monotone) or strictly (strictly
    monotone) increasing, or unconstrained with a 1/b! weight (usual);
    connected counts keep only transitive monodromy. Exponential cost.
    """
    d = sum(mus)
    if d % r:
        return Fraction(0)
    sigma0 = canonical_permutation(mus)
    orb_type = tuple(sorted((r,) * (d // r), reverse=True))
    orbifold_perms = [p for p in itertools.permutations(range(d))
                      if cycle_type(p) == orb_type]
    taus = _transpositions(d)
    total = Fraction(0)
    for pi in orbifold_perms:
        for tuple_taus in itertools.product(taus, repeat=b):
            maxima = [t[1] for t in tuple_taus]
            if kind is K.MONOTONE and any(maxima[j] > maxima[j + 1]
                                          for j in range(b - 1)):
                continue
            if kind is K.STRICT and any(maxima[j] >= maxima[j + 1]
                                        for j in range(b - 1)):
                continue
            prod_perm = pi
            for t in tuple_taus:
                prod_perm = _apply_transposition(prod_perm, t)
            if prod_perm != sigma0:
                continue
            if connected:
                gens = [pi, sigma0] + [
                    _apply_transposition(tuple(range(d)), t) for t in tuple_taus]
                if not _is_transitive(d, gens):
                    continue
            total += 1
    if kind is K.USUAL:
        total /= factorial(b)
    return total / prod_mus(mus)


def prod_mus(mus):
    out = 1
    for m in mus:
        out *= m
    return out


def test_routes_match_direct_enumeration():
    cases = [
        (1, (3,)), (1, (2, 1)), (1, (1, 1)), (1, (4,)), (1, (2, 2)),
        (2, (2,)), (2, (4,)), (2, (2, 2)), (2, (1, 3)), (2, (1, 1, 2)),
        (3, (3,)), (3, (2, 1)), (4, (4,)),
    ]
    for kind in ALL_KINDS:
        for r, mus in cases:
            for b in range(4):
                direct_disc = direct_count(kind, r, mus, b, connected=False)
                char_disc = disconnected_series_character(kind, r, mus, b).coefficient(u=b)
                assert direct_disc == char_disc, ("disc", kind, r, mus, b,
                                                  direct_disc, char_disc)
                direct_conn = direct_count(kind, r, mus, b, connected=True)
                char_conn = connected_series_character(kind, r, mus, b).coefficient(u=b)
                assert direct_conn == char_conn, ("conn", kind, r, mus, b,
                                                  direct_conn, char_conn)
