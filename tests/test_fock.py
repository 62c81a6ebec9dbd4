import itertools
import random
from fractions import Fraction

import pytest

from hurwitz.counts import connected_series_character, fock_shifted_coefficient
from hurwitz.fock import (
    EnergyCapError,
    EOpSpec,
    _balanced_t_tuples,
    _scalar_table,
    a_correlator,
    apply_E,
    apply_E_diagonal,
    disconnected_block_series,
    fock_genus_series,
    inv_factorial,
    vacuum_expectation,
)
from hurwitz.kinds import ALL_KINDS, HurwitzKind as K
from hurwitz.series import TruncatedSeries, compose_univariate, elementary_series


def vacuum():
    return {(): TruncatedSeries.constant(1)}


def test_apply_E_lowering_annihilates_vacuum():
    assert apply_E(2, {"z": 1}, vacuum(), {"z": 4}) == {}
    assert apply_E(1, {"z": 1}, vacuum(), {"z": 4}) == {}


def test_apply_E_raising_by_one():
    state = apply_E(-1, {"z": 1}, vacuum(), {"z": 4})
    assert set(state) == {(1,)}
    # only k = -1/2 moves, with weight e^{z*0} = 1
    assert state[(1,)].terms == {(0,): Fraction(1)}


def test_apply_E_raising_by_two():
    state = apply_E(-2, {"z": 1}, vacuum(), {"z": 3})
    assert set(state) == {(2,), (1, 1)}
    # e^{z/2} on (2), -e^{-z/2} on (1,1)
    assert state[(2,)].coefficient(z=1) == Fraction(1, 2)
    assert state[(1, 1)].coefficient(z=0) == -1
    assert state[(1, 1)].coefficient(z=1) == Fraction(1, 2)


def test_diagonal_eigenvalue_is_zeta():
    zeta = elementary_series("zeta", "z", 5)
    state = {(1,): TruncatedSeries.constant(1)}
    out = apply_E_diagonal({"z": 1}, state, {"z": 5})
    assert set(out) == {(1,)}
    for e in range(6):
        assert out[(1,)].coefficient(z=e) == zeta.coefficient(z=e)


def test_diagonal_annihilates_vacuum():
    assert apply_E_diagonal({"z": 1}, vacuum(), {"z": 5}) == {}


def test_energy_cap_error():
    with pytest.raises(EnergyCapError):
        apply_E(-3, {"z": 1}, vacuum(), {"z": 3}, energy_cap=2)


def test_vacuum_expectation_E0():
    s = vacuum_expectation([EOpSpec.single(0, "z")], {"z": 5})
    inv = elementary_series("inv_zeta", "z", 5)
    for e in range(-1, 5):
        assert s.coefficient(z=e) == inv.coefficient(z=e)


def test_vacuum_expectation_energy_conservation():
    s = vacuum_expectation([EOpSpec.single(2, "z"), EOpSpec.single(-1, "w")],
                           {"z": 4, "w": 4})
    assert s.is_zero()


def test_two_point_expectation():
    s = vacuum_expectation([EOpSpec.single(1, "z"), EOpSpec.single(-1, "w")],
                           {"z": 4, "w": 4})
    assert s.terms == {(0, 0): Fraction(1)}
    # <E_2(z) E_{-2}(w)> = zeta(2(z+w))/zeta(z+w) = 2cosh((z+w)/2)
    s = vacuum_expectation([EOpSpec.single(2, "z"), EOpSpec.single(-2, "w")],
                           {"z": 4, "w": 4})
    assert s.coefficient(z=0, w=0) == 2
    ratio = [Fraction(2), 0, Fraction(1, 4), 0, Fraction(1, 192)]  # 2cosh(T/2)
    zw = TruncatedSeries.monomial("z", order=4) + TruncatedSeries.monomial("w", order=4)
    expected = compose_univariate(ratio, zw)
    for ez in range(4):
        for ew in range(4):
            if ez + ew > 4:
                continue
            assert s.coefficient(z=ez, w=ew) == expected.coefficient(z=ez, w=ew)


def test_two_point_constant_term_is_v():
    for v in range(1, 7):
        s = vacuum_expectation([EOpSpec.single(v, "z"), EOpSpec.single(-v, "w")],
                               {"z": 2, "w": 2})
        assert s.coefficient(z=0, w=0) == v


def test_commutation_rule_with_context():
    # [E_a(z), E_b(w)] = zeta(aw - bz) E_{a+b}(z+w) against a balancing operator
    from hurwitz.series import zeta_of_linear, mul

    orders3 = {"z": 3, "w": 3, "v": 3}
    for a, b in [(1, 1), (2, -1), (-1, 2), (1, -2), (-2, -1), (2, 2)]:
        c = a + b
        if c == 0:
            continue
        ab = vacuum_expectation([EOpSpec.single(a, "z"), EOpSpec.single(b, "w"),
                                 EOpSpec.single(-c, "v")], orders3)
        ba = vacuum_expectation([EOpSpec.single(b, "w"), EOpSpec.single(a, "z"),
                                 EOpSpec.single(-c, "v")], orders3)
        lhs = ab - ba
        zfac = zeta_of_linear({"w": a, "z": -b}, orders3)
        single = vacuum_expectation([EOpSpec.make(c, {"z": 1, "w": 1}),
                                     EOpSpec.single(-c, "v")], orders3)
        rhs = mul(zfac, single)
        for ez in range(3):
            for ew in range(3):
                for ev in range(3):
                    assert lhs.coefficient(z=ez, w=ew, v=ev) == \
                        rhs.coefficient(z=ez, w=ew, v=ev), (a, b, ez, ew, ev)


def test_commutation_rule_opposite_energies():
    # <E_a(z) E_{-a}(w)> = zeta(a(z+w)) / zeta(z+w), computed as a series in T = z+w
    from hurwitz.series import elementary_series

    for a in (1, 2, 3):
        got = vacuum_expectation([EOpSpec.single(a, "z"), EOpSpec.single(-a, "w")],
                                 {"z": 5, "w": 5})
        ratio = (elementary_series("S", "T", 8).scale_var("T", a) * a
                 * elementary_series("inv_S", "T", 8))
        coeffs = [ratio.coefficient(T=j) for j in range(6)]
        zw = (TruncatedSeries.monomial("z", order=5)
              + TruncatedSeries.monomial("w", order=5))
        expected = compose_univariate(coeffs, zw)
        for ez in range(5):
            for ew in range(5 - ez):
                assert got.coefficient(z=ez, w=ew) == expected.coefficient(z=ez, w=ew), (a, ez, ew)


def test_a_operator_terms_monotone_01():
    # for the one-point genus-zero budget the only term is t=0, v=-1 (k=-1)
    tables = {t: _scalar_table(K.MONOTONE, 2, 2, t, -1) for t in range(-4, 5)}
    assert {t: tb for t, tb in tables.items() if tb} == {0: {-1: Fraction(1, 2)}}
    # folded scalar: ([mu]+mu+1)_{-2} = 1/(3*2) times binom(3,2)


def test_a_operator_terms_cuts():
    # t < -[mu] excluded
    for kind in K:
        live = [t for t in range(-10, 6) if _scalar_table(kind, 2, 5, t, 3)]
        assert live and min(live) == -2, kind
    # strictly monotone: no term with v = t + k > mu - [mu]
    for t in range(-1, 3):
        table = _scalar_table(K.STRICT, 2, 3, t, 6)
        assert table and all(t + k <= 3 - 1 for k in table), t
    # v - t = -1 only at zero energy (mu = 5, r = 2: energy 2t - 1 is never 0)
    for kind in (K.MONOTONE, K.STRICT):
        assert not any(-1 in _scalar_table(kind, 2, 5, t, 3) for t in range(-2, 6))


def test_inv_factorial():
    assert inv_factorial(3) == Fraction(1, 6)
    assert inv_factorial(0) == 1
    assert inv_factorial(-1) == 0


def test_a_correlator_examples():
    assert a_correlator(K.MONOTONE, 2, (2,), 0) == Fraction(1, 6)
    assert a_correlator(K.MONOTONE, 2, (1, 3), 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        a_correlator(K.STRICT, 1, (3,), 0)  # vanishing prefactor


def test_fock_vanishing_off_lattice():
    # r does not divide |mu|: identically zero
    s = fock_genus_series(K.MONOTONE, 2, (1,), 2)
    assert s.is_zero()


def test_block_symmetry():
    # the disconnected correlator is symmetric under permutations of mu
    for kind in K:
        a = disconnected_block_series(kind, 2, (1, 3), 2)
        b = disconnected_block_series(kind, 2, (3, 1), 2)
        for e in range(-2, 3):
            assert a.coefficient(u=e) == b.coefficient(u=e), (kind, e)


def test_zero_energy_requires_single_variable_argument():
    with pytest.raises(ValueError):
        vacuum_expectation([EOpSpec.make(0, {"z": 1, "w": 1})], {"z": 3, "w": 3})


def test_vacuum_expectation_empty_product():
    s = vacuum_expectation([], {})
    assert s.coefficient() == 1


def filtered_product(ranges, etas, r):
    """Reference: every t-tuple of the product, kept when its energies balance."""
    out = []
    for ts in itertools.product(*ranges):
        energies = [t * r - e for t, e in zip(ts, etas)]
        prefixes = list(itertools.accumulate(energies))
        if sum(energies) == 0 and all(p >= 0 for p in prefixes[:-1]):
            out.append(ts)
    return out


def test_balanced_t_tuples_match_filtered_product():
    rng = random.Random(7)
    for _ in range(400):
        r = rng.randint(1, 4)
        n = rng.randint(0, 4)
        etas = [rng.randrange(r) for _ in range(n)]
        ranges = []
        for _ in range(n):
            start = rng.randint(-4, 2)
            ranges.append(range(start, start + rng.randint(0, 6)))
        assert list(_balanced_t_tuples(ranges, etas, r)) == \
            filtered_product(ranges, etas, r), (ranges, etas, r)


def test_balanced_t_tuples_on_block_ranges():
    # the ranges disconnected_block_series builds, for a few profiles
    for r, mus in [(1, (1, 1, 1, 1)), (2, (3, 2, 1)), (3, (4, 2, 3)), (2, (5, 1, 1, 1))]:
        nus = [m // r for m in mus]
        etas = [m % r for m in mus]
        ranges = [range(-nus[i], (sum(etas) + r * (sum(nus) - nus[i])) // r + 1)
                  for i in range(len(mus))]
        assert list(_balanced_t_tuples(ranges, etas, r)) == \
            filtered_product(ranges, etas, r), (r, mus)


def test_fock_matches_character_on_six_ones():
    # (1^6) at r = 1, the six-part profile the route benchmark leaves out
    mus = (1,) * 6
    for kind in ALL_KINDS:
        character = connected_series_character(kind, 1, mus, 5)
        for b in range(6):
            assert fock_shifted_coefficient(kind, 1, mus, b, True) == \
                character.coefficient(u=b), (kind, b)
