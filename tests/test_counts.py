import functools
import itertools
import sys
import threading
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from hurwitz import counts, fock, partitions
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
from hurwitz.partitions import (
    CharacterCache,
    connected_from_disconnected,
    contents,
    enumerate_partitions,
)
from hurwitz.series import TruncatedSeries
from hurwitz.symfunc import complete_coeffs, elementary_coeffs
from test_partitions import (
    block_fractions,
    conjugate,
    in_lowest_terms,
    mn_character,
    reference_connected_from_subprofiles,
)


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


def reference_weight_coeffs(kind, lam, order):
    """W_lam[0..order] in integers from the validated contents; usual lacks 1/b!."""
    cs = contents(lam)
    if kind is K.MONOTONE:
        return complete_coeffs(cs, order)
    if kind is K.STRICT:
        return elementary_coeffs(cs, order)
    return [sum(cs) ** b for b in range(order + 1)]


def reference_partition_sum(kind, r, rho, order):
    """The character route summed over every lam of the smaller support, unpaired.

    rho is sorted decreasingly; one integer term per lam and b, one division
    per coefficient.
    """
    d = sum(rho)
    if d % r != 0:
        return (Fraction(0),) * (order + 1)
    m = d // r
    chars = partitions.active_cache()
    small, other = sorted((chars.at((r,) * m), chars.at(rho)), key=len)
    acc = [0] * (order + 1)
    for lam, chi in small.items():
        chi *= other.get(lam, 0)
        if chi:
            acc = [a + chi * w for a, w in zip(acc, reference_weight_coeffs(kind, lam, order))]
    norm = r ** m * factorial(m) * prod(rho)
    if kind is K.USUAL:
        return tuple(Fraction(a, norm * factorial(b)) for b, a in enumerate(acc))
    return tuple(Fraction(a, norm) for a in acc)


def test_conjugate_content_weights_differ_by_the_sign_of_b():
    # the contents of lam' are those of lam negated: W_lam'[b] = (-1)^b W_lam[b]
    for kind in ALL_KINDS:
        for d in range(1, 11):
            for lam in enumerate_partitions(d):
                w = counts._weight_coeffs(kind, lam, 12)
                assert w == reference_weight_coeffs(kind, lam, 12), (kind, lam)
                w_conj = counts._weight_coeffs(kind, conjugate(lam), 12)
                assert w_conj == [(-1) ** b * x for b, x in enumerate(w)], (kind, lam)


def test_pair_sum_matches_unpaired_reference():
    for kind in ALL_KINDS:
        for r in (1, 2, 3, 4):
            for d in range(1, 13):
                for rho in enumerate_partitions(d):
                    got = counts._partition_sum.__wrapped__(kind, r, rho, d + 4)
                    assert in_lowest_terms(got), (kind, r, rho)
                    assert block_fractions(got) == reference_partition_sum(kind, r, rho, d + 4), \
                        (kind, r, rho)


def test_self_conjugate_terms_live_only_at_the_pair_parity():
    # `_partition_sum` adds every lam only at b = parity mod 2.  A
    # self-conjugate lam has nothing elsewhere: its contents are symmetric
    # about 0, so W_lam[b] = 0 at odd b, and chi^lam(rho) = sgn(rho)
    # chi^lam(rho), so chi^lam((r^m)) chi^lam(rho) = 0 unless eps = 1
    cache = CharacterCache()
    for d in range(1, 15):
        for lam in enumerate_partitions(d):
            if lam != conjugate(lam):
                continue
            for kind in ALL_KINDS:
                w = counts._weight_coeffs(kind, lam, d + 4)
                assert not any(w[1::2]), (kind, lam)
            for r in (1, 2, 3, 4):
                if d > 12 or d % r:
                    continue
                m = d // r
                for rho in enumerate_partitions(d):
                    if (d - m + d - len(rho)) % 2:
                        assert cache.at((r,) * m).get(lam, 0) * cache.at(rho).get(lam, 0) == 0


@pytest.mark.parametrize("lam, r, rho, eps", [
    # pairs with lam_1 = len(lam), where the representative is found by comparing
    ((3, 3, 1), 1, (5, 1, 1), 1),
    ((3, 3, 1), 1, (5, 2), -1),
    ((3, 2, 2), 1, (2, 2, 2, 1), -1),
    ((3, 2, 2), 1, (3, 2, 2), 1),
    # self-conjugate: its term is added once, and only ever at eps = 1
    ((3, 2, 1), 3, (3, 3), 1),
    ((3, 2, 1), 1, (5, 1), 1),
])
def test_pair_sum_named_cases(lam, r, rho, eps):
    d = sum(rho)
    m = d // r
    assert lam[0] == len(lam)
    assert (-1) ** (d - m + d - len(rho)) == eps
    cache = CharacterCache()
    for mu in (lam, conjugate(lam)):
        assert cache.at((r,) * m).get(mu, 0) * cache.at(rho).get(mu, 0) != 0, mu
    for kind in ALL_KINDS:
        got = counts._partition_sum.__wrapped__(kind, r, rho, d + 4)
        assert block_fractions(got) == reference_partition_sum(kind, r, rho, d + 4), kind


def test_weights_are_built_once_per_conjugate_pair(monkeypatch):
    # at r = 1 and rho = (1^8) every lam |- 8 is in the support: 22 partitions,
    # two of them self-conjugate, so 12 pairs
    rho = (1,) * 8
    calls = []
    weights = counts._weight_coeffs

    def counted(kind, lam, order):
        calls.append(lam)
        return weights(kind, lam, order)

    monkeypatch.setattr(counts, "_weight_coeffs", counted)
    for kind in ALL_KINDS:
        calls.clear()
        got = counts._partition_sum.__wrapped__(kind, 1, rho, 12)
        assert block_fractions(got) == reference_partition_sum(kind, 1, rho, 12)
        pairs = {frozenset((lam, conjugate(lam))) for lam in enumerate_partitions(8)}
        assert len(calls) == len(pairs) == 12
        assert {frozenset((lam, conjugate(lam))) for lam in calls} == pairs


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("orders", [(3, 8, 5), (5, 8, 3), (3, 4)])
def test_character_memo_keeps_the_longest_series(kind, orders):
    # the route is an lru_cache on (kind, r, sorted profile, order): every
    # answer is the uncached sum at its order, and each distinct order
    # reaches the route once, however often and in whichever order it is
    # asked; the dispatch's answer memo is cleared before each ask, so every
    # ask reaches the route's own cache
    mus = (3, 2, 1)
    counts._partition_sum.cache_clear()
    for order in orders * 2:
        counts._answer.cache_clear()
        got = disconnected_series_character(kind, 2, mus[::-1], order)
        fresh = block_fractions(counts._partition_sum.__wrapped__(kind, 2, mus, order))
        assert tuple(got.coefficient(u=b) for b in range(order + 1)) == fresh
        assert got.orders == {"u": order}
    info = counts._partition_sum.cache_info()
    assert (info.misses, info.hits) == (len(set(orders)), len(orders))
    assert info.currsize == len(set(orders))


def test_character_memo_under_threads():
    # concurrent requests at mixed orders: every answer is a prefix of the
    # longest series.  A cover of (2,2,1,1) at r = 2 has odd b, so the
    # dispatch asks the route only through the last odd b <= order: orders
    # 2k and 2k + 1 share one entry, and one entry per top in 1, 3, 5, 7 is
    # left behind
    mus = (2, 2, 1, 1)
    expected = block_fractions(counts._partition_sum.__wrapped__(K.MONOTONE, 2, mus, 8))
    counts._partition_sum.cache_clear()
    counts._answer.cache_clear()
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
    assert counts._partition_sum.cache_info().currsize == 4


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


def _reference_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


# The full group algebra Z[S_d], the reference for the oracle's class
# functions: a permutation is the tuple of its images, products compose.


def _transposition(d, i, j):
    p = list(range(d))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _elem_mul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = counts._compose(pa, pb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@functools.lru_cache(maxsize=None)
def _jucys_murphy(d, k):
    # J_k = sum_{i<k} (i k), in 1-based labels; zero-based internally
    return {_transposition(d, i, k - 1): 1 for i in range(k - 1)}


@functools.lru_cache(maxsize=None)
def full_phi(kind, d, b):
    """Row b of the kind's table in Z[S_d], built once from row b - 1.

    Its last entry is h_b / e_b / (sum J)^b of the Jucys-Murphy elements
    J_2..J_d on every permutation of S_d.  For h and e the row holds the
    value on every prefix J_2..J_k, k = 1..d, which the next row needs:
    h_b(J_2..J_k) = h_b(J_2..J_{k-1}) + J_k h_{b-1}(J_2..J_k) and
    e_b(J_2..J_k) = e_b(J_2..J_{k-1}) + J_k e_{b-1}(J_2..J_{k-1}).
    """
    if b == 0:
        return ({tuple(range(d)): 1},) * (1 if kind is K.USUAL else d)
    below = full_phi(kind, d, b - 1)
    if kind is K.USUAL:
        # J_2 + ... + J_d, every transposition once
        total = {p: 1 for k in range(2, d + 1) for p in _jucys_murphy(d, k)}
        return (_elem_mul(below[-1], total),)
    # h reads the lower row on J_2..J_k (repeats allowed), e on J_2..J_{k-1}
    lag = 1 if kind is K.MONOTONE else 2
    row = [{}]
    for k in range(2, d + 1):
        acc = dict(row[-1])
        for p, c in _elem_mul(below[k - lag], _jucys_murphy(d, k)).items():
            acc[p] = acc.get(p, 0) + c
        row.append(acc)
    return tuple(row)


@functools.lru_cache(maxsize=None)
def filtered_class(d, rho):
    """The class rho of S_d, by filtering all d! permutations."""
    return tuple(p for p in itertools.permutations(range(d)) if cycle_type(p) == rho)


@functools.lru_cache(maxsize=None)
def reference_phi(kind, d, b):
    """h_b / e_b / (sum J)^b / b! of J_2..J_d in Q[S_d], one division per step."""
    ident = {tuple(range(d)): Fraction(1)}
    if b == 0:
        return ident
    if kind is K.USUAL:
        j_total = {}
        for k in range(2, d + 1):
            for p, c in _jucys_murphy(d, k).items():
                j_total[p] = j_total.get(p, Fraction(0)) + c
        power = _elem_mul(reference_phi(kind, d, b - 1), j_total) if b > 1 else j_total
        return {p: c / b for p, c in power.items()}
    table = [ident] + [{} for _ in range(b)]
    rows = range(1, b + 1) if kind is K.MONOTONE else range(b, 0, -1)
    for k in range(2, d + 1):
        jk = _jucys_murphy(d, k)
        for j in rows:
            merged = dict(table[j])
            for p, c in _elem_mul(table[j - 1], jk).items():
                merged[p] = merged.get(p, Fraction(0)) + c
            table[j] = {p: c for p, c in merged.items() if c}
    return table[b]


def reference_oracle(kind, r, b, mus):
    """[u^b] as the Fraction coefficient of sigma0 in C_{(r^m)} * Phi_b, per b."""
    d = sum(mus)
    if d % r != 0:
        return Fraction(0)
    phi = reference_phi(kind, d, b)
    sigma0 = canonical_permutation(mus)
    total = Fraction(0)
    for pi in filtered_class(d, (r,) * (d // r)):
        total += phi.get(counts._compose(_reference_inverse(pi), sigma0), Fraction(0))
    return total / prod(mus)


def test_oracle_series_matches_fraction_reference():
    b_max = 6
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(r, 7, r):
                for mus in enumerate_partitions(d):
                    want = tuple(reference_oracle(kind, r, b, mus) for b in range(b_max + 1))
                    got = oracle_series(kind, r, mus, b_max)
                    assert in_lowest_terms(got), (kind, r, mus)
                    assert block_fractions(got) == want, (kind, r, mus)


def test_oracle_class_functions_match_the_full_group_algebra():
    # each class-function row, read at one permutation per class, against
    # the full row in Z[S_k] at every permutation, one past the oracle cap
    for k in range(1, 8):
        types = {p: cycle_type(p) for p in itertools.permutations(range(k))}
        for kind in ALL_KINDS:
            for b in range(8):
                full, row = full_phi(kind, k, b)[-1], counts._phi(kind, k, b)
                assert 0 not in row.values(), (kind, k, b)
                for p, lam in types.items():
                    assert row.get(lam, 0) == full.get(p, 0), (kind, k, b, p)
    # the class (r^{d/r}) built cycle by cycle is the d!-filter's, each once
    for d in range(1, 9):
        for r in range(1, d + 1):
            if d % r == 0:
                assert sorted(counts._class_members(d, r)) == \
                    sorted(filtered_class(d, (r,) * (d // r))), (d, r)
    # pi sigma0 runs over the whole class (r^m), d!/(r^m m!) permutations
    for r in (1, 2, 3, 6):
        for d in range(r, 7, r):
            m = d // r
            for mus in enumerate_partitions(d):
                got = sum(c for _, c in counts._oracle_classes(r, mus))
                assert got == factorial(d) // (r ** m * factorial(m)), (r, mus)


def clear_oracle_caches():
    counts._answer.cache_clear()
    counts.oracle_series.cache_clear()
    counts._phi.cache_clear()
    counts._oracle_classes.cache_clear()


@pytest.fixture
def oracle_cap_7(monkeypatch):
    """The oracle's cap raised to 7; its caches are cleared when the test
    ends, so no later test reads an entry past the real cap."""
    monkeypatch.setattr(counts, "ORACLE_DEGREE_CAP", 7)
    yield
    clear_oracle_caches()


def test_oracle_reads_its_series_at_falling_b():
    # each b asked on its own, top b first, after clearing the Phi cache
    for kind in ALL_KINDS:
        for r, mus in [(1, (3, 2, 1)), (2, (4, 2)), (3, (3, 3)), (1, (1,) * 6)]:
            clear_oracle_caches()
            series = block_fractions(oracle_series(kind, r, mus, 6))
            clear_oracle_caches()
            for b in range(6, -1, -1):
                assert oracle_group_algebra(kind, r, b, mus) == series[b], (kind, r, mus, b)


def test_oracle_builds_each_phi_row_once():
    # b = 0..6 and then 6..0: a cover of (3,2,1) or (2,2,2) at r = 1 has odd
    # b, so the dispatch asks the oracle only through the last odd b <= 6 (b
    # = 0 itself at b = 0), and it reads the rows (kind, 6, b), b = 0..5.
    # Past its base cases (b = 0, and k = 1 with b > 0) a row (k, b) reads
    # (k-1, b) and (k, b-1) (monotone), (k-1, b) and (k-1, b-1) (strict) or
    # (k, b-1) (usual).  So the monotone rows reached are every (k, b),
    # k = 1..6, b = 0..5, but (1, 0), which only base cases would read: 35;
    # the strict rows are all 36 of them; the usual rows stay at k = 6: 6.
    # Each is built once, however often and in whatever order it is asked
    for kind, built in [(K.MONOTONE, 35), (K.STRICT, 36), (K.USUAL, 6)]:
        clear_oracle_caches()
        for b in [*range(7), *range(6, -1, -1)]:
            for mus in [(3, 2, 1), (2, 2, 2)]:
                oracle_group_algebra(kind, 1, b, mus)
        info = counts._phi.cache_info()
        assert info.misses == info.currsize == built, kind


def test_oracle_past_its_cap_matches_character(oracle_cap_7):
    b_max, nonzero = 8, 0
    for kind in ALL_KINDS:
        for r in (1, 7):
            for mus in enumerate_partitions(7):
                got = block_fractions(oracle_series(kind, r, mus, b_max))
                assert got == block_fractions(counts._partition_sum(kind, r, mus, b_max)), \
                    (kind, r, mus)
                nonzero += sum(1 for c in got if c)
    assert nonzero > 0


def test_oracle_refuses_past_its_cap_with_one_message():
    for route_call in (lambda: oracle_series(K.MONOTONE, 1, (4, 3), 7),
                       lambda: route_series("oracle", K.USUAL, 7, (4, 3), 0, True),
                       lambda: oracle_group_algebra(K.STRICT, 1, 1, (6, 1))):
        with pytest.raises(counts.DegreeCapError, match=r"^the oracle is capped at degree 6"):
            route_call()


def test_route_series_answers_r_not_dividing_mu_before_any_route():
    # r = 2 does not divide |(4, 3)| = 7, a degree past the oracle's cap: no
    # cover exists, so every route's answer is zeros, none is asked and the
    # oracle does not refuse
    routes = {"character": counts._partition_sum, "fock": disconnected_block_series,
              "oracle": oracle_series}
    for route, cached in routes.items():
        for kind in ALL_KINDS:
            for connected in (True, False):
                before = cached.cache_info()
                got = route_series(route, kind, 2, (4, 3), 5, connected)
                assert got == (0,) * 6, (route, kind, connected)
                assert cached.cache_info() == before, (route, kind, connected)


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


@pytest.mark.parametrize("call, argument", [
    (lambda: route_series("fock", K.MONOTONE, 1, (), 2, True), "mus"),
    (lambda: route_series("character", K.USUAL, 1, (2, 0), 2, True), "mus"),
    (lambda: route_series("fock", K.STRICT, 0, (2, 2), 2, True), "r"),
    (lambda: route_series("character", K.MONOTONE, 1, (2, 1), -1, False), "b_max"),
    (lambda: fock_shifted_coefficient(K.MONOTONE, 1, (2, 1), -1, True), "b_max"),
    (lambda: oracle_group_algebra(K.MONOTONE, 1, -1, (2, 1)), "b_max"),
    (lambda: route_series("fock", K.MONOTONE, 1, (2.0, 1), 2, True), "mus"),
    (lambda: route_series("character", K.STRICT, 2, (Fraction(3, 2), 1), 2, False), "mus"),
    (lambda: route_series("oracle", K.USUAL, 1, (True, 1), 2, True), "mus"),
], ids=["empty-mu", "zero-part", "r-zero", "negative-b_max", "negative-b",
        "oracle-negative-b", "float-part", "fraction-part", "bool-part"])
def test_route_series_rejects_bad_input(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        call()


@pytest.mark.parametrize("call, argument", [
    (lambda: disconnected_series_character(K.MONOTONE, 0, (2, 2), 3), "r"),
    (lambda: disconnected_series_character(K.USUAL, 1, (2, 0), 3), "mus"),
    (lambda: disconnected_series_character(K.STRICT, 1, (), 3), "mus"),
    (lambda: disconnected_series_character(K.MONOTONE, 1, (2, 1), -1), "u_order"),
    (lambda: oracle_group_algebra(K.MONOTONE, 0, 1, (2, 2)), "r"),
    (lambda: oracle_group_algebra(K.USUAL, 1, 1, (2, 0)), "mus"),
    (lambda: oracle_group_algebra(K.STRICT, 1, 1, ()), "mus"),
    (lambda: HurwitzRequest(K.MONOTONE, 1, 0, (2.5, 1)), "mus"),
    (lambda: connected_series_character(K.MONOTONE, 1, (2, 1), -1), "u_order"),
], ids=["character-r-zero", "character-zero-part", "character-empty-mu",
        "character-negative-u_order", "oracle-r-zero", "oracle-zero-part",
        "oracle-empty-mu", "request-float-part", "character-connected-negative-u_order"])
def test_public_route_wrappers_reject_bad_input(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        call()


def test_subprofile_plan_is_built_once_per_multiplicity_vector():
    # every mu |- 8 with <= 7 parts through genus 1, every kind, r in {1, 2}:
    # their 17 multiplicity vectors give 16 plans, one per vector of two or
    # more parts (the one-part (8) needs none), whatever the kind, r or parts
    population = [(kind, r, mus) for kind in ALL_KINDS for r in (1, 2)
                  for mus in enumerate_partitions(8) if len(mus) <= 7]
    shapes = {tuple(mus.count(v) for v in sorted(set(mus), reverse=True))
              for _, _, mus in population}
    assert len(shapes) == 17 and (1,) in shapes
    calls = sum(1 for _, _, mus in population if len(mus) > 1)
    plan = partitions._subprofile_plan
    plan.cache_clear()
    counts._answer.cache_clear()
    for kind, r, mus in population:
        route_series("character", kind, r, mus, len(mus) + 8 // r, True)
    assert plan.cache_info().misses == plan.cache_info().currsize == 16
    assert plan.cache_info().hits == calls - 16
    counts._answer.cache_clear()  # asked again past the dispatch's answer memo
    for kind, r, mus in population:
        route_series("character", kind, r, mus, len(mus) + 8 // r, True)
    assert plan.cache_info().misses == 16
    assert plan.cache_info().hits == 2 * calls - 16


def route_block(route, kind, r, sub, b_max):
    """The disconnected u-series of one sub-profile, asked of its route directly."""
    rho = tuple(sorted(sub, reverse=True))
    if route == "character":
        return disconnected_series_character(kind, r, rho, b_max)
    route_fn = {"fock": disconnected_block_series, "oracle": oracle_series}[route]
    coeffs = block_fractions(route_fn(kind, r, rho, b_max))
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

    monkeypatch.setattr(fock, "disconnected_block_series", recording)
    disconnected_block_series.cache_clear()
    counts._answer.cache_clear()
    route_series("fock", K.MONOTONE, 2, (3, 2, 1), 5, True)
    # only the sub-profiles of even degree reach the route and its cache
    assert sorted(seen) == [(2,), (3, 1), (3, 2, 1)]
    assert disconnected_block_series.cache_info().currsize == 3


def reference_route_series(route, kind, r, mus, b_max, connected):
    """The dispatch with every block asked at b_max itself, in Fractions.

    A proper sub-profile is zero without asking its route only when r does
    not divide its degree or b_max is below |sub|/r - len(sub); no budget
    is taken from the rest of the profile.  Each route's block is read as
    Fractions, and the connected part is the Fraction recursion
    `reference_connected_from_subprofiles`, not the package's integer one.
    """
    routes = {"character": counts._partition_sum, "fock": disconnected_block_series,
              "oracle": oracle_series}
    mus = tuple(sorted(mus, reverse=True))

    def disconnected(sub):
        if len(sub) < len(mus) and (sum(sub) % r or b_max < sum(sub) // r - len(sub)):
            return (Fraction(0),) * (b_max + 1)
        return block_fractions(routes[route](kind, r, sub, b_max))

    return reference_connected_from_subprofiles(mus, disconnected) if connected \
        else disconnected(mus)


@pytest.mark.parametrize("route, max_d", [("character", 10), ("fock", 9), ("oracle", 6)])
def test_route_series_matches_reference_dispatch(route, max_d):
    # every kind, r <= 3 and mu |- d <= max_d, parts below r included, where
    # the least b of the rest of the profile is clamped at 0
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(1, max_d + 1):
                for mus in enumerate_partitions(d):
                    for b_max in (0, 1, 3, 6, 9):
                        for connected in (False, True):
                            assert route_series(route, kind, r, mus, b_max, connected) == \
                                reference_route_series(route, kind, r, mus, b_max, connected), \
                                (kind, r, mus, b_max, connected)


def test_sub_profiles_stop_at_the_budget_the_rest_leaves(monkeypatch):
    # mu = (3, 2, 1) at r = 1 through b = 6: a cover of mu has b = |mu| +
    # len(mu) = 1 mod 2, so mu itself is asked through top = 5, the last odd
    # b <= 6, and N through 5 - v(R), v(R) the least b of a cover of the
    # rest R = mu - N: |R| - len(R) when positive, else (|R| + len(R)) mod 2.
    # So (1,), whose rest (3, 2) needs b >= 3, is asked through b = 2, and
    # (3, 2), whose rest (1,) needs b >= 0, through b = 5
    seen = {}

    def recording(kind, r, sub, b_max):
        seen[sub] = b_max
        return disconnected_block_series(kind, r, sub, b_max)

    monkeypatch.setattr(fock, "disconnected_block_series", recording)
    route_series("fock", K.MONOTONE, 1, (3, 2, 1), 6, True)
    assert seen == {(3, 2, 1): 5, (3, 2): 5, (3, 1): 4, (2, 1): 3,
                    (3,): 4, (2,): 3, (1,): 2}
    # each budget has its block's parity, the only b a cover of it has
    assert all((b - sum(sub) - len(sub)) % 2 == 0 for sub, b in seen.items())


def test_consecutive_b_share_one_block_build(monkeypatch):
    # b = 0..5 on (3,2,1) at r = 1: every cover has odd b, so the profile's
    # own block is asked through the last odd b <= b (0 at b = 0), and b =
    # 2k, 2k + 1 reach one cache entry: 4 builds where one per b made 6.
    # The dispatch's answer memo is cleared before each b, so every b asks
    # the route
    asked = []

    def recording(kind, r, sub, b_max):
        if sub == (3, 2, 1):
            asked.append(b_max)
        return disconnected_block_series(kind, r, sub, b_max)

    monkeypatch.setattr(fock, "disconnected_block_series", recording)
    disconnected_block_series.cache_clear()
    for b in range(6):
        counts._answer.cache_clear()
        fock_shifted_coefficient(K.MONOTONE, 1, (3, 2, 1), b, True)
    assert asked == [0, 1, 1, 3, 3, 5]
    assert len(set(asked)) == 4


def test_consecutive_b_share_one_inclusion_exclusion(monkeypatch):
    # b = 0..5 on (3,2,1) at r = 1 reach the tops 0, 1, 1, 3, 3, 5: the
    # dispatch's answer memo runs the inclusion-exclusion once per top, and
    # a second pass over the same b runs none
    want = list(route_series("character", K.MONOTONE, 1, (3, 2, 1), 5, True))
    tops = []

    def recording(mus, disconnected):
        tops.append(len(disconnected(mus)[1]) - 1)
        return partitions.connected_from_subprofiles(mus, disconnected)

    monkeypatch.setattr(counts, "connected_from_subprofiles", recording)
    counts._answer.cache_clear()
    for _ in range(2):
        got = [fock_shifted_coefficient(K.MONOTONE, 1, (3, 2, 1), b, True) for b in range(6)]
        assert got == want
    assert tops == [0, 1, 3, 5]


def test_a_rebound_route_is_asked_again(monkeypatch):
    # the answer memo is keyed on the route function, so a route rebound
    # after an answer was memoized runs, and the original's answers come
    # back once it is restored
    args = (K.MONOTONE, 2, (2, 2, 1, 1), 7)
    want = {connected: route_series("fock", *args, connected) for connected in (False, True)}

    def doubled(kind, r, sub, b_max):
        den, nums = disconnected_block_series(kind, r, sub, b_max)
        return den, tuple(2 * x for x in nums)

    monkeypatch.setattr(fock, "disconnected_block_series", doubled)
    assert route_series("fock", *args, False) == tuple(2 * x for x in want[False])
    assert route_series("fock", *args, True) != want[True]
    monkeypatch.undo()
    assert {connected: route_series("fock", *args, connected)
            for connected in (False, True)} == want


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


@pytest.mark.parametrize("route", ["character", "fock"])
def test_genus_zero_closed_forms_at_r_1_with_mixed_multiplicities(route):
    # every mu |- d <= 9 with >= 5 parts, such as (3,2,2,1,1): the
    # inclusion-exclusion all routes share, checked against formulas that
    # use none of them
    profiles = [mus for d in range(5, 10) for mus in enumerate_partitions(d)
                if len(mus) >= 5]
    assert (3, 2, 2, 1, 1) in profiles
    for kind in (K.USUAL, K.MONOTONE):
        for mus in profiles:
            b = len(mus) + sum(mus) - 2
            got = route_series(route, kind, 1, mus, b, True)[b]
            assert got == genus_zero_closed_form(kind, mus), (route, kind, mus)


ANCHOR_MAX_GENUS = 3


def _even_series_mul(a, b):
    """Product of two power series in t^2, as coefficient lists of one length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def gjv_one_part(r, m, g):
    """Usual kind, mu = (d), d = r m: d^(b-1)/m! [t^2g] S(r t)^m / S(t).

    Goulden-Jackson-Vakil's one-part formula, with S(t) = sinh(t/2)/(t/2)
    and b = 2g - 1 + m; b = 0 occurs, so the power is an exact Fraction.
    """
    d, b = r * m, 2 * g - 1 + m
    s = [Fraction(1, 4 ** k * factorial(2 * k + 1)) for k in range(g + 1)]
    inv_s = [Fraction(1)]
    for k in range(1, g + 1):
        inv_s.append(-sum(s[i] * inv_s[k - i] for i in range(1, k + 1)))
    prod_series = inv_s
    s_rt = [c * r ** (2 * k) for k, c in enumerate(s)]
    for _ in range(m):
        prod_series = _even_series_mul(prod_series, s_rt)
    return Fraction(d) ** (b - 1) / factorial(m) * prod_series[g]


def harer_zagier(max_genus, max_n):
    """eps[g][n]: gluings of a 2n-gon into a genus-g surface (one-face maps).

    (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2).
    """
    eps = [[0] * (max_n + 1) for _ in range(max_genus + 1)]
    eps[0][0] = 1
    for n in range(1, max_n + 1):
        for g in range(max_genus + 1):
            total = 2 * (2 * n - 1) * eps[g][n - 1]
            if g and n >= 2:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[g - 1][n - 2]
            eps[g][n], rest = divmod(total, n + 1)
            assert rest == 0
    return eps


def one_part_series(b_max, m, value_at_genus):
    """h_0..h_{b_max} of a one-part profile of quotient m: h_b lives at b = 2g-1+m."""
    out = [Fraction(0)] * (b_max + 1)
    for g in range(ANCHOR_MAX_GENUS + 1):
        out[2 * g - 1 + m] = value_at_genus(g)
    return tuple(out)


def test_one_part_anchors_are_right():
    # eps_0 is Catalan and eps_1(n) = (n+1) n (n-1) / 12 * Catalan(n)
    eps = harer_zagier(1, 5)
    assert eps[0] == [1, 1, 2, 5, 14, 42]
    assert eps[1] == [0, 0, 1, 10, 70, 420]
    # genus 0 at r = 1 is Hurwitz's formula, and (2) at genus 1 has b = 3:
    # 2^2 / 2! * [t^2] S(t) = 2 / 24
    for d in range(1, 8):
        assert gjv_one_part(1, d, 0) == genus_zero_closed_form(K.USUAL, (d,))
    assert gjv_one_part(1, 2, 1) == Fraction(1, 12)


# the one-part fock block costs almost nothing; the character route pays
# for the (r^m) and (d) character tables
@pytest.mark.parametrize("route, max_d", [("fock", 40), ("character", 24)])
def test_one_part_usual_matches_goulden_jackson_vakil(route, max_d):
    for r in (1, 2, 3):
        for m in range(1, max_d // r + 1):
            b_max = 2 * ANCHOR_MAX_GENUS - 1 + m
            got = route_series(route, K.USUAL, r, (r * m,), b_max, True)
            want = one_part_series(b_max, m, lambda g: gjv_one_part(r, m, g))
            assert got == want, (route, r, m)


@pytest.mark.parametrize("route, max_d", [("fock", 40), ("character", 24)])
def test_one_part_strict_matches_harer_zagier(route, max_d):
    eps = harer_zagier(ANCHOR_MAX_GENUS, max_d // 2)
    for n in range(1, max_d // 2 + 1):
        b_max = 2 * ANCHOR_MAX_GENUS - 1 + n
        got = route_series(route, K.STRICT, 2, (2 * n,), b_max, True)
        want = one_part_series(b_max, n, lambda g: Fraction(eps[g][n], 2 * n))
        assert got == want, (route, n)


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


def test_negative_b_is_a_structural_zero():
    # b = 2g - 2 + n + d/r = -2 - 2 + 1 + 1
    req = HurwitzRequest(K.MONOTONE, 1, -1, (1,))
    assert request_status(req) == "b = -2 is negative"
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


@pytest.mark.parametrize("route, max_d, max_parts", [
    ("character", 10, 10), ("fock", 8, 6), ("oracle", 6, 6)])
def test_each_route_vanishes_at_the_wrong_parity_of_b(route, max_d, max_parts):
    # sigma_0 tau_1 ... tau_b sigma_inf = 1 with sigma_0 of type (r^{d/r})
    # and sigma_inf of type mu gives (-1)^b = sgn sigma_0 sgn sigma_inf, so
    # every cover of mu, monotone, strict or not, has b = d/r + len(mu) mod 2.
    # Past b_max = 0 the dispatch never asks a route for a top coefficient
    # of the other parity, so each route's own function is checked here,
    # through b = 9
    build = {"character": counts._partition_sum.__wrapped__,
             "fock": disconnected_block_series.__wrapped__,
             "oracle": oracle_series}[route]
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            nonzero = 0
            for d in range(r, max_d + 1, r):
                for mus in enumerate_partitions(d):
                    if len(mus) > max_parts:
                        continue
                    parity = (d // r + len(mus)) % 2
                    for b, h in enumerate(block_fractions(build(kind, r, mus, 9))):
                        if b % 2 != parity:
                            assert h == 0, (kind, r, mus, b)
                        elif h:
                            nonzero += 1
            assert nonzero, (kind, r)


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
