import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

import pytest

from hurwitz import counts, fock
from hurwitz.kinds import HurwitzKind
from hurwitz.partitions import (
    CharacterCache,
    character,
    check_partition,
    connected_from_disconnected,
    connected_from_subprofiles,
    contents,
    enumerate_partitions,
    reduced_block,
    strip_additions,
)
from hurwitz.series import TruncatedSeries


def block_fractions(block, length=None):
    """h_0, h_1, ... of an integer block (den, nums) as Fractions, zero-padded to length.

    Every test that compares a route's block or the integer
    inclusion-exclusion with Fractions reads the block through this.
    """
    den, nums = block
    coeffs = tuple(Fraction(x, den) for x in nums)
    if length is not None:
        coeffs += (Fraction(0),) * (length - len(coeffs))
    return coeffs


def fraction_block(coeffs):
    """The integer block, in lowest terms, of a tuple of Fractions."""
    den = lcm(*(c.denominator for c in coeffs))
    return reduced_block(den, [c.numerator * (den // c.denominator) for c in coeffs])


def in_lowest_terms(block):
    """Whether block is (den, nums) of Python ints with den >= 1 and gcd(den, *nums) = 1."""
    den, nums = block
    return (type(den) is int and den >= 1 and type(nums) is tuple
            and all(type(x) is int for x in nums) and gcd(den, *nums) == 1)


def _beta_set(lam, length):
    # distinct descending beta numbers lam_i + (length - 1 - i), padded with 0..
    return [(lam[i] if i < len(lam) else 0) + (length - 1 - i) for i in range(length)]


def _partition_from_beta(beta):
    length = len(beta)
    parts = [b - (length - 1 - i) for i, b in enumerate(sorted(beta, reverse=True))]
    return tuple(p for p in parts if p > 0)


def border_strip_removals(lam, k):
    """All ways to remove a border strip of size k, with the MN sign."""
    length = max(len(lam), 1)
    beta = _beta_set(lam, length)
    beta_set = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = [nb if c == b else c for c in beta]
        out.append((_partition_from_beta(new_beta), (-1) ** crossed))
    return out


@lru_cache(maxsize=None)
def mn_character(lam, rho):
    """Reference chi^lam(rho): the Murnaghan-Nakayama recursion, removing strips.

    lam and rho are partitions of the same size, as tuples; the removal runs
    over the parts of rho from the first.
    """
    if not rho:
        return 1
    return sum(sign * mn_character(smaller, rho[1:])
               for smaller, sign in border_strip_removals(lam, rho[0]))


def conjugate(lam):
    """The conjugate partition: the column lengths of lam's Young diagram."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def set_partitions(items):
    """All set partitions of items, blocks as tuples in insertion order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1:]
        yield [(first,)] + sub


def moebius_weight(block_count):
    """Partition-lattice Moebius factor (-1)^(m-1) (m-1)!."""
    return (-1) ** (block_count - 1) * factorial(block_count - 1)


def set_partition_sum(blocks):
    """Reference connected value: sum_pi (-1)^{|pi|-1} (|pi|-1)! prod_B blocks[B]."""
    n = len(frozenset().union(*blocks))
    total = None
    for pi in set_partitions(range(n)):
        prod = None
        for block in pi:
            value = blocks[frozenset(block)]
            prod = value if prod is None else prod * value
        term = moebius_weight(len(pi)) * prod
        total = term if total is None else total + term
    return total


def all_subsets(n):
    return [frozenset(sub) for size in range(1, n + 1)
            for sub in itertools.combinations(range(n), size)]


def _sub_mul(acc, w, a, b):
    """acc -= w * a * b on coefficient tuples, truncated; zeros are skipped."""
    top = len(acc)
    b_nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        x *= w
        for j, y in b_nonzero:
            if i + j >= top:
                break
            acc[i + j] -= x * y


def reference_connected_from_subprofiles(mus, block):
    """Reference connected coefficients: the sub-multiset recursion in Fractions.

    C(M) = D(M) - sum_{a in N, N a proper sub-multiset of M} w(N) C(N) D(M - N)
    over multiplicity vectors, a the least part, with the shape rebuilt on
    every call and no scaling to integers.
    """
    values = sorted(set(mus), reverse=True)
    full = tuple(list(mus).count(v) for v in values)
    vectors = list(itertools.product(*(range(m + 1) for m in full)))[1:]
    disconnected = {n: block(tuple(v for v, c in zip(values, n) for _ in range(c)))
                    for n in vectors}
    # the vectors holding a, in product order: each comes after its sub-vectors
    connected = {}
    for n in vectors:
        if not n[-1]:
            continue
        acc = list(disconnected[n])
        for p, c_p in connected.items():
            if any(x > y for x, y in zip(p, n)):
                continue
            w = comb(n[-1] - 1, p[-1] - 1) * prod(comb(y, x) for x, y in zip(p[:-1], n))
            rest = tuple(y - x for x, y in zip(p, n))
            _sub_mul(acc, w, c_p, disconnected[rest])
        connected[n] = tuple(acc)
    return connected[full]


def partition_count_recurrence(n):
    """p(n) by the classical sum-of-divisors recurrence, independent of the generator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            divsum = sum(d for d in range(1, k + 1) if k % d == 0)
            total += divsum * p[m - k]
        p[m] = total // m
    return p[n]


def frobenius_character(lam, rho):
    """Independent oracle: chi^lam(rho) via the alternant/Frobenius formula.

    chi^lam(rho) = coefficient of x^(lam + delta) in a_delta * p_rho where
    delta = (m-1, ..., 1, 0). Exponential cost; only for small d.
    """
    m = max(len(lam), 1)
    target = tuple(lam[i] + (m - 1 - i) if i < len(lam) else (m - 1 - i)
                   for i in range(m))
    # polynomial as dict exponent-tuple -> int
    poly = {}
    for perm in itertools.permutations(range(m)):
        sign = perm_sign(perm)
        exps = tuple(m - 1 - perm[i] for i in range(m))
        poly[exps] = poly.get(exps, 0) + sign
    for part in rho:
        new = {}
        for exps, c in poly.items():
            for i in range(m):
                e = list(exps)
                e[i] += part
                key = tuple(e)
                new[key] = new.get(key, 0) + c
        poly = new
    return poly.get(target, 0)


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_enumerate_partitions():
    assert enumerate_partitions(0) == ((),)
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(10)) == 42
    for d in range(11):
        assert len(enumerate_partitions(d)) == partition_count_recurrence(d)
    # descending order within each partition, deterministic overall order
    ps = enumerate_partitions(6)
    assert ps[0] == (6,)
    assert ps[-1] == (1,) * 6
    assert len(set(ps)) == len(ps)


def test_contents():
    assert sorted(contents((2,))) == [0, 1]
    assert sorted(contents((1, 1))) == [-1, 0]
    assert sorted(contents((2, 1))) == [-1, 0, 1]
    assert sorted(contents((3, 2))) == [-1, 0, 0, 1, 2]


def class_size(rho):
    """Number of permutations of cycle type rho: d! / prod(m_k! k^m_k)."""
    rho = check_partition(rho)
    z = 1
    for k in set(rho):
        m = rho.count(k)
        z *= factorial(m) * k ** m
    return factorial(sum(rho)) // z


def test_class_size():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((2, 2)) == 3
    assert class_size((3,)) == 2
    for d in range(1, 7):
        assert sum(class_size(rho) for rho in enumerate_partitions(d)) == factorial(d)


def test_character_examples():
    for rho in enumerate_partitions(4):
        assert character((4,), rho) == 1
    assert character((1, 1), (2,)) == -1
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (1, 1, 1)) == 2


def test_character_against_frobenius_oracle():
    for d in range(1, 6):
        for lam in enumerate_partitions(d):
            for rho in enumerate_partitions(d):
                assert character(lam, rho) == frobenius_character(lam, rho), (lam, rho)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_character_is_integer():
    for lam in enumerate_partitions(7):
        for rho in enumerate_partitions(7):
            assert isinstance(character(lam, rho), int)


def test_column_orthogonality():
    for d in range(1, 9):
        lams = enumerate_partitions(d)
        classes = enumerate_partitions(d)
        for la, lb in itertools.combinations_with_replacement(lams, 2):
            total = sum(class_size(rho) * character(la, rho) * character(lb, rho)
                        for rho in classes)
            assert total == (factorial(d) if la == lb else 0), (la, lb)


def test_dimension_sum_of_squares():
    # the dimension of an irreducible is its character at the identity class
    for d in range(1, 9):
        identity = (1,) * d
        assert sum(character(lam, identity) ** 2
                   for lam in enumerate_partitions(d)) == factorial(d)


def test_border_strip_removals():
    # (2,1) has hook lengths 3,1,1: no border strip of size 2 at all
    assert border_strip_removals((2, 1), 2) == []
    # (3,1) -> (1,1) by removing the 2-strip at the end of the first row
    assert border_strip_removals((3, 1), 2) == [((1, 1), 1)]
    # (2,2): two 2-strips, one spanning both rows (height 1, sign -1)
    assert sorted(border_strip_removals((2, 2), 2)) == [((1, 1), -1), ((2,), 1)]


def test_strip_additions_invert_border_strip_removals():
    # lam + strip = mu with sign s exactly when removing that strip from mu
    # gives lam with sign s
    for d in range(0, 11):
        for k in range(1, 8):
            added = {(lam, mu, sign) for lam in enumerate_partitions(d)
                     for mu, sign in strip_additions(lam, k)}
            removed = {(lam, mu, sign) for mu in enumerate_partitions(d + k)
                       for lam, sign in border_strip_removals(mu, k)}
            assert added == removed, (d, k)


def test_character_matches_mn_reference():
    for d in range(1, 11):
        partitions = enumerate_partitions(d)
        for rho in partitions:
            for lam in partitions:
                assert character(lam, rho) == mn_character(lam, rho), (lam, rho)


def test_character_cache_keeps_nonzero_values_per_prefix():
    cache = CharacterCache()
    rho = (4, 2, 2)
    table = cache.at(rho)
    assert set(cache.tables) == {(), (4,), (4, 2), (4, 2, 2)}
    assert table == {lam: mn_character(lam, rho) for lam in enumerate_partitions(8)
                     if mn_character(lam, rho)}
    assert len(cache) == sum(len(t) for t in cache.tables.values())
    assert cache.at(rho) is table


def test_conjugate_characters_differ_by_the_sign_of_the_class():
    # chi^lam'(rho) = sgn(rho) chi^lam(rho), sgn(rho) = (-1)^(d - len(rho)):
    # each class's table holds lam' exactly when it holds lam
    cache = CharacterCache()
    for d in range(1, 11):
        for rho in enumerate_partitions(d):
            table = cache.at(rho)
            sign = (-1) ** (d - len(rho))
            for lam in enumerate_partitions(d):
                assert table.get(conjugate(lam), 0) == sign * table.get(lam, 0), (lam, rho)


def test_set_partitions_count():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bell):
        assert len(list(set_partitions(range(n)))) == b


def test_connected_from_disconnected_small():
    one = {frozenset({0}): Fraction(5)}
    assert connected_from_disconnected(one) == 5
    two = {frozenset({0}): Fraction(2), frozenset({1}): Fraction(3),
           frozenset({0, 1}): Fraction(10)}
    assert connected_from_disconnected(two) == 10 - 6


def test_connected_singleton_coefficient():
    # for n=3 the all-singleton set partition carries weight (-1)^2 2! = +2
    blocks = {}
    for size in range(1, 4):
        for sub in itertools.combinations(range(3), size):
            blocks[frozenset(sub)] = Fraction(0)
    for i in range(3):
        blocks[frozenset({i})] = Fraction(1)
    # only the singleton partition contributes: weight 2
    assert connected_from_disconnected(blocks) == 2


def test_connected_of_multiplicative_data_vanishes():
    # blocks[S] = prod_{i in S} f_i  =>  connected part is 0 for n >= 2
    fs = [Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(1, 2)]
    for n in (2, 3, 4):
        blocks = {}
        for size in range(1, n + 1):
            for sub in itertools.combinations(range(n), size):
                val = Fraction(1)
                for i in sub:
                    val *= fs[i]
                blocks[frozenset(sub)] = val
        assert connected_from_disconnected(blocks) == 0


def test_connected_recursion_matches_set_partition_sum_on_rationals():
    rng = random.Random(11)
    for n in range(1, 8):
        for _ in range(3):
            blocks = {sub: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for sub in all_subsets(n)}
            assert connected_from_disconnected(blocks) == set_partition_sum(blocks)


def test_connected_recursion_matches_set_partition_sum_on_series():
    # u-series blocks shaped like the genus series: a block of size s is known
    # through u^(K + n - s) and may start at u^(-s)
    rng = random.Random(12)
    for n in range(1, 6):
        k_hi = 2
        blocks = {}
        for sub in all_subsets(n):
            top = k_hi + n - len(sub)
            terms = {(e,): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for e in range(-len(sub), top + 1)}
            blocks[sub] = TruncatedSeries(("u",), terms, {"u": top})
        got = connected_from_disconnected(blocks)
        want = set_partition_sum(blocks)
        assert got.orders == want.orders == {"u": k_hi}
        assert got.terms == want.terms


def test_subprofile_recursion_matches_set_partition_sum():
    # random coefficient tuples per sub-multiset of profiles with repeated
    # parts, some of them zero, against the set-partition sum over index sets
    rng = random.Random(13)
    top = 4
    for n in range(1, 8):
        for _ in range(3):
            mus = tuple(sorted((rng.randint(1, 3) for _ in range(n)), reverse=True))
            table = {}

            def block(sub):
                assert list(sub) == sorted(sub, reverse=True)
                assert sub not in table, sub  # each sub-multiset is asked once
                zero = rng.random() < 0.2
                table[sub] = tuple(Fraction(0 if zero else rng.randint(-4, 4),
                                            rng.randint(1, 3)) for _ in range(top + 1))
                return fraction_block(table[sub])

            got = connected_from_subprofiles(mus, block)
            distinct = 1
            for v in set(mus):
                distinct *= mus.count(v) + 1
            assert len(table) == distinct - 1
            series = {}
            for sub in all_subsets(n):
                coeffs = table[tuple(sorted((mus[i] for i in sub), reverse=True))]
                series[sub] = TruncatedSeries(
                    ("u",), {(b,): c for b, c in enumerate(coeffs)}, {"u": top})
            want = set_partition_sum(series)
            assert block_fractions(got) == tuple(want.coefficient(u=b) for b in range(top + 1)), mus


def test_reduced_block_divides_out_the_common_gcd():
    assert reduced_block(12, [6, -4, 0, 8]) == (6, (3, -2, 0, 4))
    assert reduced_block(35, [3, 0, -7]) == (35, (3, 0, -7))
    assert reduced_block(9, [0, 0, 0]) == (1, (0, 0, 0))
    assert reduced_block(4, []) == (1, ())
    rng = random.Random(15)
    for _ in range(200):
        den = rng.randint(1, 10 ** 6)
        nums = [rng.randint(-10 ** 6, 10 ** 6) * rng.choice((1, 2, 6, 35)) for _ in range(5)]
        got = reduced_block(den, nums)
        assert in_lowest_terms(got)
        assert block_fractions(got) == tuple(Fraction(x, den) for x in nums)


def test_subprofile_recursion_matches_fraction_reference_on_random_blocks():
    # profiles of up to 8 parts with repeated parts; integer blocks over mixed
    # denominators, with negative and zero entries, whole zero blocks, and
    # proper blocks cut short or empty, which the recursion reads as zeros
    rng = random.Random(14)
    for n in range(1, 9):
        for _ in range(4):
            mus = tuple(sorted((rng.randint(1, 4) for _ in range(n)), reverse=True))
            top = rng.randint(0, 6)
            table = {}

            def block(sub):
                if sub not in table:
                    length = top + 1
                    if len(sub) < n and rng.random() < 0.3:
                        length = rng.randint(0, top)
                    zero = rng.random() < 0.25
                    nums = [0 if zero or rng.random() < 0.2 else rng.randint(-9, 9)
                            for _ in range(length)]
                    table[sub] = reduced_block(rng.choice((1, 2, 3, 4, 6, 9, 35)), nums)
                return table[sub]

            den, nums = connected_from_subprofiles(mus, block)
            # the answer comes over q^|M|, q the lcm of the block denominators
            assert den == lcm(*(d for d, _ in table.values())) ** n, mus
            assert len(nums) == top + 1 and all(type(x) is int for x in nums), mus
            want = reference_connected_from_subprofiles(
                mus, lambda sub: block_fractions(table[sub], top + 1))
            assert block_fractions((den, nums)) == want, mus


ROUTES = {"character": counts._partition_sum, "fock": fock.disconnected_block_series,
          "oracle": counts.oracle_series}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_subprofile_recursion_matches_fraction_reference_on_route_blocks(route):
    # the real disconnected blocks of every mu |- d <= 8 at r <= 2 through
    # genus 1 (b = n + d/r), the oracle to its degree cap
    max_d = counts.ORACLE_DEGREE_CAP if route == "oracle" else 8
    for kind in HurwitzKind:
        for r in (1, 2):
            for d in range(r, max_d + 1, r):
                for mus in enumerate_partitions(d):
                    b_max = len(mus) + d // r

                    def block(sub):
                        return ROUTES[route](kind, r, sub, b_max)

                    want = reference_connected_from_subprofiles(
                        mus, lambda sub: block_fractions(block(sub)))
                    assert block_fractions(connected_from_subprofiles(mus, block)) == want, \
                        (kind, r, mus)
                    assert counts.route_series(route, kind, r, mus, b_max, True) == want


def test_connected_missing_subset_errors():
    with pytest.raises(ValueError):
        connected_from_disconnected({frozenset({0}): Fraction(1),
                                     frozenset({1}): Fraction(1)})

