import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from hurwitz import counts, fock
from hurwitz.counts import connected_series_character, fock_shifted_coefficient, route_series
from hurwitz.fock import (
    EOpSpec,
    _slot_frame,
    _slot_weight,
    apply_E,
    disconnected_block_series,
    vacuum_expectation,
)
from hurwitz.kinds import ALL_KINDS, HurwitzKind as K
from hurwitz.partitions import contents, enumerate_partitions, reduced_block, strip_additions
from hurwitz.polycheck import prefactor
from hurwitz.series import (
    TruncatedSeries,
    compose_univariate,
    elementary_series,
    exp_series,
    mul,
)
from test_partitions import block_fractions, in_lowest_terms
from test_series import truncate_total


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
    # E_0 on v_(1) is the eigenvalue zeta(z) plus the scalar 1/zeta(z)
    zeta = elementary_series("zeta", "z", 5)
    inv = elementary_series("inv_zeta", "z", 5)
    state = {(1,): TruncatedSeries.constant(1)}
    out = apply_E(0, {"z": 1}, state, {"z": 5})
    assert set(out) == {(1,)}
    diagonal = out[(1,)] - inv
    for e in range(-1, 6):
        assert diagonal.coefficient(z=e) == zeta.coefficient(z=e)


def test_diagonal_annihilates_vacuum():
    # on the vacuum E_0 is the 1/zeta(z) scalar alone
    out = apply_E(0, {"z": 1}, vacuum(), {"z": 5})
    assert set(out) == {()}
    assert (out[()] - elementary_series("inv_zeta", "z", 5)).is_zero()


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


def test_transition_atoms_are_integers():
    # e^{c z} is listed by the integer 2c and 1/zeta by None; the diagonal
    # eigenvalue is one term per exponential
    for d in range(5):
        for lam in enumerate_partitions(d):
            for energy in range(-3, 4):
                for atom, sign, _ in fock._transitions(lam, energy):
                    assert atom is None or type(atom) is int, (lam, energy, atom)
                    assert sign in (1, -1), (lam, energy, sign)


# -- the slot-set form of the wedge moves, kept as the reference ----------------


def occupied_slots(lam, lo):
    occ = {lam[j] - j for j in range(len(lam))}
    occ.update(range(lo, -len(lam) + 1))
    return occ


def slots_to_partition(occ):
    parts = []
    for j, m in enumerate(sorted(occ, reverse=True), start=1):
        part = m + j - 1
        if part <= 0:
            break
        parts.append(part)
    return tuple(parts)


def reference_moves(lam, a):
    """All single-fermion moves m -> m-a: (2c, sign, new state), e^{c z} the weight."""
    size = len(lam)
    lo = -size - abs(a) - 2
    occ = occupied_slots(lam, lo)
    out = []
    for m in sorted(occ, reverse=True):
        target = m - a
        if target in occ or target < lo:
            continue
        between = sum(1 for c in occ if min(m, target) < c < max(m, target))
        new_occ = set(occ)
        new_occ.discard(m)
        new_occ.add(target)
        out.append((2 * m - 1 - a, (-1) ** between, slots_to_partition(new_occ)))
    return tuple(out)


def reference_diagonal_exponents(lam):
    """(2k, sign) pairs for Etilde_0: occupied k > 0 minus empty k < 0."""
    size = len(lam)
    explicit = {lam[j] - j for j in range(size)}
    out = [(2 * m - 1, 1) for m in explicit if m >= 1]
    out.extend((2 * m - 1, -1) for m in range(-size + 1, 1) if m not in explicit)
    return tuple(out)


def reference_transitions(lam, energy):
    """The terms of E_energy on v_lam by the slot sets, the diagonal expanded."""
    if energy:
        return reference_moves(lam, energy)
    return tuple((c2, sign, lam) for c2, sign in reference_diagonal_exponents(lam)) + \
        ((None, 1, lam),)


def test_transitions_match_slot_set_reference():
    checked = 0
    for d in range(13):
        for lam in enumerate_partitions(d):
            for energy in range(-6, 7):
                got = fock._transitions(lam, energy)
                assert Counter(got) == Counter(reference_transitions(lam, energy)), \
                    (lam, energy)
                checked += len(got)
    assert checked > 10000


def test_transitions_are_border_strips():
    # a move of energy -k adds a border strip of size k, with its
    # Murnaghan-Nakayama sign, and one of energy k removes one; e^{c z} with
    # 2c (-a) twice the change in the sum of contents
    moves = 0
    for d in range(11):
        for lam in enumerate_partitions(d):
            size = sum(contents(lam))
            for k in range(1, 7):
                added = fock._transitions(lam, -k)
                assert Counter((new, sign) for _, sign, new in added) == \
                    Counter(strip_additions(lam, k)), (lam, k)
                removed = fock._transitions(lam, k)
                smaller = enumerate_partitions(d - k) if k <= d else ()
                assert Counter((new, sign) for _, sign, new in removed) == Counter(
                    (mu, sign) for mu in smaller
                    for grown, sign in strip_additions(mu, k) if grown == lam), (lam, k)
                for energy, terms in ((-k, added), (k, removed)):
                    for c2, _, new in terms:
                        assert c2 * -energy == 2 * (sum(contents(new)) - size), \
                            (lam, energy, new)
                moves += len(added) + len(removed)
            # the diagonal eigenvalue sum(sign * e^{c z}) is 2|lam| z + ... with
            # z^2 coefficient the content sum
            diagonal = [(c2, sign) for c2, sign, _ in fock._transitions(lam, 0) if c2 is not None]
            assert sum(sign * c2 for c2, sign in diagonal) == 2 * d, lam
            assert sum(sign * c2 ** 2 for c2, sign in diagonal) == 8 * size, lam
            # exactly: it is zeta(z) sum_{box} e^{c(box) z}, so in x = e^{z/2}
            # sum(sign * x^{2c}) = sum_{box} (x^{2c(box) + 1} - x^{2c(box) - 1})
            # as integer Laurent polynomials
            got, want = Counter(), Counter()
            for c2, sign in diagonal:
                got[c2] += sign
            for c in contents(lam):
                want[2 * c + 1] += 1
                want[2 * c - 1] -= 1
            assert got == want, lam
    assert moves > 4000


# -- the slot data in Fraction arithmetic, kept as the reference ---------------


def inv_factorial(n):
    """1/n! with the convention that 1/n! = 0 for negative n."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


@functools.lru_cache(maxsize=None)
def folded_scalar(kind, r, mu, t, v):
    """The (t, v) scalar of one A-operator times the kind's per-entry prefactor.

    The reference for the scales of `fock._slot_frame`: 0 for t < -[mu] and,
    strictly monotone, for v > mu - [mu].
    """
    nu = mu // r
    if kind is K.MONOTONE:
        top = mu + nu + v - 1
        if top < 0:
            return Fraction(0)
        return Fraction(factorial(top), factorial(mu)) * inv_factorial(nu + t)
    if kind is K.STRICT:
        return factorial(mu - 1) * inv_factorial(mu - nu - v) * inv_factorial(nu + t)
    return Fraction(mu) ** (nu + t - 1) * inv_factorial(nu + t)


def slot_power(kind, mu):
    """p of the slot's S(w)^p: mu - 1 monotone, -mu - 1 strictly monotone, 0 usual."""
    return {K.MONOTONE: mu - 1, K.STRICT: -mu - 1, K.USUAL: 0}[kind]


@functools.lru_cache(maxsize=None)
def slot_base(kind, r, mu, t, e):
    """[w^e] S(w)^p * S(r w)^(t + [mu]) as a Fraction sum over the S-power coefficients.

    The reference for the base of `fock._slot_frame`.
    """
    p, q = slot_power(kind, mu), t + mu // r
    return sum((fock._s_power_coefficient(p, j) * r ** (e - j)
                * fock._s_power_coefficient(q, e - j) for j in range(0, e + 1, 2)), Fraction(0))


@functools.lru_cache(maxsize=None)
def atom_coefficient(atom, j):
    """[z^j] of an atom, j >= -1.

    e^{c z} for the integer 2c, or 1/zeta(z) = z^-1 S(z)^-1 for None.
    """
    if atom is None:
        return fock._s_power_coefficient(-1, j + 1)
    if j < 0:
        return Fraction(0)
    return Fraction(atom ** j, 2 ** j * factorial(j))


def reference_scalars(kind, r, mu, t, k_budget):
    """The slot's nonzero (e, folded scalar) by rising e, e in [-1, k_budget]."""
    table = scalar_table(kind, r, mu, t, k_budget)
    if kind is K.USUAL and table:
        return [(e, table[None] * Fraction(mu) ** e) for e in range(-1, k_budget + 1)]
    return sorted(table.items())


def reference_slot_frame(kind, r, mu, t, k_budget):
    """`fock._slot_frame` from the Fraction scalars and S-power sums.

    Each over its least common denominator, and D their product with the
    least common denominator of the atoms.
    """
    scalars = reference_scalars(kind, r, mu, t, k_budget)
    if not scalars:
        return 1, (), ()
    order = max(k_budget, 0) + 1
    table_den = lcm(*(c.denominator for _, c in scalars))
    atom_den = lcm(2 ** order * factorial(order),
                   *(atom_coefficient(None, j).denominator for j in range(-1, order + 1)))
    base = [slot_base(kind, r, mu, t, j) for j in range(order + 1)]
    base_den = lcm(*(c.denominator for c in base))
    return (table_den * atom_den * base_den,
            tuple((e, c.numerator * (table_den // c.denominator)) for e, c in scalars),
            tuple(c.numerator * (base_den // c.denominator) for c in base))


# an atom e^{c z} by 2c, and 1/zeta
REFERENCE_ATOMS = (None, -3)


def test_integer_slot_data_match_fraction_reference():
    # every kind, r <= 4, mu <= 12, every t from the first dead one up,
    # k_budget <= 12: the integer frame is the reference's, integer for
    # integer; at k_budget = 12, every e <= 12, each weight over its D is the
    # Fraction scalar[e] * [w^e] atom * S-powers
    frames = weights = 0
    for kind in ALL_KINDS:
        for r in range(1, 5):
            for mu in range(1, 13):
                for t in range(-(mu // r) - 1, 13 // r + 2):
                    for k_budget in range(-1, 13):
                        frame = _slot_frame(kind, r, mu, t, k_budget)
                        assert frame == reference_slot_frame(kind, r, mu, t, k_budget), \
                            (kind, r, mu, t, k_budget)
                        frames += bool(frame[1])
                        if not frame[1] or k_budget != 12:
                            continue
                        base = [slot_base(kind, r, mu, t, e) for e in range(k_budget + 2)]
                        for atom in REFERENCE_ATOMS:
                            want = []
                            for e, scalar in reference_scalars(kind, r, mu, t, k_budget):
                                c = scalar * sum(atom_coefficient(atom, j) * base[e - j]
                                                 for j in range(-1, e + 1))
                                if c:
                                    want.append((e, c))
                            got = [(e, Fraction(c, frame[0]))
                                   for e, c in _slot_weight(kind, r, mu, t, k_budget, atom)]
                            assert got == want, (kind, r, mu, t, k_budget, atom)
                            weights += 1
    assert frames > 15000 and weights > 2500


def scale_exponents(kind, r, mu, t, k_budget):
    """The exponents e = v - t at which the slot frame keeps a nonzero scalar."""
    return [e for e, _ in _slot_frame(kind, r, mu, t, k_budget)[1]]


def test_a_operator_terms_monotone_01():
    # for the one-point genus-zero budget the only term is t=0, v=-1 (e=-1)
    live = {t: _slot_frame(K.MONOTONE, 2, 2, t, -1)[1] for t in range(-4, 5)}
    assert {t: scales for t, scales in live.items() if scales} == {0: ((-1, 1),)}
    # folded scalar: ([mu]+mu+1)_{-2} = 1/(3*2) times binom(3,2)
    assert folded_scalar(K.MONOTONE, 2, 2, 0, -1) == Fraction(1, 2)


def test_a_operator_terms_cuts():
    # t < -[mu] is dead
    for kind in K:
        live = [t for t in range(-10, 6) if scale_exponents(kind, 2, 5, t, 3)]
        assert live and min(live) == -2, kind
    # strictly monotone: no term with v = t + e > mu - [mu]
    for t in range(-1, 3):
        exponents = scale_exponents(K.STRICT, 2, 3, t, 6)
        assert exponents and all(t + e <= 3 - 1 for e in exponents), t
    for kind in (K.MONOTONE, K.STRICT):
        # v - t = -1 only at zero energy (mu = 5, r = 2: energy 2t - 1 is never 0)
        assert not any(-1 in scale_exponents(kind, 2, 5, t, 3) for t in range(-2, 6))
        # mu = 4, r = 2, t = 0 has energy 0
        assert -1 in scale_exponents(kind, 2, 4, 0, 3), kind


def test_inv_factorial():
    assert inv_factorial(3) == Fraction(1, 6)
    assert inv_factorial(0) == 1
    assert inv_factorial(-1) == 0


def test_fock_route_correlator_values():
    # the connected genus-0 A-operator correlator is the fock-route number
    # divided by the per-entry prefactors
    for mus, b, correlator in [((2,), 0, Fraction(1, 6)), ((1, 3), 2, Fraction(1, 2))]:
        h = route_series("fock", K.MONOTONE, 2, mus, b, True)[b]
        assert h / prod(prefactor(K.MONOTONE, 2, mu) for mu in mus) == correlator, mus


def test_fock_vanishing_off_lattice():
    # r does not divide |mu|: identically zero, for every b up to b_max, on
    # every route called directly, with no early return: no walk reaches the
    # vacuum, no lam is in both character supports (of sizes d and r * (d // r),
    # the latter empty when d < r) and the oracle's class (r^{d/r}) is empty
    for route in (disconnected_block_series, counts._partition_sum, counts.oracle_series):
        for kind in ALL_KINDS:
            for r, mus in [(2, (1,)), (2, (3,)), (3, (2, 2)), (4, (3, 2)), (5, (2, 1)),
                           (3, (2, 1, 1, 1))]:
                assert route(kind, r, mus, 4) == (1, (0,) * 5), (route, kind, r, mus)
    # b_max - d/r < -len(mu): below every term the correlator has
    assert disconnected_block_series(K.USUAL, 1, (2, 2, 2, 2), 3) == (1, (0, 0, 0, 0))


def test_block_symmetry():
    # the disconnected series is symmetric under permutations of mu
    for kind in K:
        a = disconnected_block_series(kind, 2, (1, 3), 4)
        assert len(a[1]) == 5 and any(a[1]), kind
        assert a == disconnected_block_series(kind, 2, (3, 1), 4), kind


def test_block_has_no_term_below_b_zero(monkeypatch):
    # the correlator reaches down to k = -len(mu), which lies below b = 0
    # whenever len(mu) > d/r; those coefficients must vanish, and the block
    # raises rather than drop a nonzero one
    below = 0
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(r, 7, r):
                for mus in enumerate_partitions(d):
                    below += len(mus) > d // r
                    assert len(disconnected_block_series(kind, r, mus, 3)[1]) == 4
    assert below > 20
    # a vacuum term at k = -4, b = -2 for (1, 1) at r = 1: each slot's 1/zeta
    # keeps the vacuum and now weighs u^-2, and every other atom weighs 0
    monkeypatch.setattr(fock, "_slot_weight",
                        lambda *args: ((-2, 1),) if args[-1] is None else ())
    with pytest.raises(ArithmeticError, match="below b = 0"):
        disconnected_block_series.__wrapped__(K.MONOTONE, 1, (1, 1), 3)


@pytest.mark.parametrize("r, mus", [
    (1, (3, 2, 1)), (1, (4, 1, 1)), (1, (2, 2, 1, 1)), (1, (3, 3)),
    (2, (4, 2)), (2, (2, 2, 2)), (3, (4, 2)),
])
def test_fock_matches_character_connected_and_disconnected(r, mus):
    # the dispatch asks each sub-profile N only through b_max minus the least
    # b of a cover of the rest of the profile, on both routes alike
    for kind in ALL_KINDS:
        for connected in (False, True):
            assert route_series("fock", kind, r, mus, 8, connected) == \
                route_series("character", kind, r, mus, 8, connected), (kind, connected)


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


def test_fock_matches_character_on_six_ones():
    # (1^6) at r = 1, the six-part profile the route benchmark leaves out
    mus = (1,) * 6
    for kind in ALL_KINDS:
        character = connected_series_character(kind, 1, mus, 5)
        for b in range(6):
            assert fock_shifted_coefficient(kind, 1, mus, b, True) == \
                character.coefficient(u=b), (kind, b)


# -- the block on multivariate series, kept as the reference -------------------


@functools.lru_cache(maxsize=None)
def s_power(var, scale_num, scale_den, exponent, order):
    """S(scale * var)^exponent as a series, cached; exponent may be negative.

    The reference for `fock._s_power_coefficient`.
    """
    base = elementary_series("S" if exponent >= 0 else "inv_S", var, order)
    base = base.scale_var(var, Fraction(scale_num, scale_den))
    return base ** abs(exponent)


def test_s_power_recurrence_matches_series_powers():
    # one memo for every scale: [w^n] S(s w)^p = s^n [w^n] S(w)^p
    for scale in (1, 2, 3, 4):
        for p in range(-9, 10):
            powers = s_power("w", scale, 1, p, 14)
            for n in range(15):
                assert scale ** n * fock._s_power_coefficient(p, n) == powers.coefficient(w=n), \
                    (scale, p, n)


def test_usual_slot_base_is_the_bare_s_power():
    # S(w)^0 = 1, so the usual kind's slot base is [w^e] S(r w)^(t + [mu])
    # alone, over the least denominator of those coefficients
    assert fock._s_power_row(0, 23) == (1, (1,) + (0,) * 23)
    for r in range(1, 5):
        for mu in range(1, 13):
            for t in range(-(mu // r), 4):
                _, scales, base = _slot_frame(K.USUAL, r, mu, t, 10)
                assert scales, (r, mu, t)
                bare = [r ** e * fock._s_power_coefficient(t + mu // r, e) for e in range(12)]
                assert [Fraction(c, lcm(*(b.denominator for b in bare))) for c in base] == bare, \
                    (r, mu, t)


@functools.lru_cache(maxsize=None)
def scalar_table(kind, r, mu, t, k_hi):
    """Map k = v - t -> folded scalar; empty when the t is dead (t < -[mu]).

    The reference for the scales of `fock._slot_frame`.
    """
    nu, eta = divmod(mu, r)
    energy = t * r - eta
    if nu + t < 0:
        return {}
    if kind is K.USUAL:
        # no v-sum: the scalar is attached to the operator, any k admissible
        return {None: folded_scalar(kind, r, mu, t, t)}
    table = {}
    for k in range(-1, k_hi + 1):
        if k == -1 and energy != 0:
            continue
        folded = folded_scalar(kind, r, mu, t, t + k)
        if folded:
            table[k] = folded
    return table


def reference_block_series(kind, r, mus, b_max):
    """disconnected_block_series through the general operator calculus.

    Every operator gets its own variable w_i; the vacuum expectation is a
    series in all of them, multiplied by each slot's S-powers, and the
    scalar tables are read off monomial by monomial.
    """
    n, d = len(mus), sum(mus)
    shift = d // r
    k_hi = b_max - shift
    if d % r or k_hi < -n:
        return TruncatedSeries(("u",), {}, {"u": b_max})
    nus = [m // r for m in mus]
    etas = [m % r for m in mus]
    k_budget = k_hi + (n - 1)
    var_order = max(k_budget, 0) + 1
    names = [f"w{i}" for i in range(n)]
    orders = {v: var_order for v in names}
    ranges = [range(-nus[i], (sum(etas) + r * (sum(nus) - nus[i])) // r + 1)
              for i in range(n)]
    usual = kind is K.USUAL
    out = {}
    for ts in filtered_product(ranges, etas, r):
        energies = [t * r - e for t, e in zip(ts, etas)]
        tables = [scalar_table(kind, r, mus[i], ts[i], k_budget) for i in range(n)]
        if any(not tb for tb in tables):
            continue
        # the operators act from the right; a state keeps total degree k_hi
        # plus one per energy-0 operator still to apply
        state = {(): TruncatedSeries.constant(1)}
        for j in range(n - 1, -1, -1):
            state = apply_E(energies[j], {names[j]: 1}, state, orders)
            cap = k_hi + energies[:j].count(0)
            state = {lam: kept for lam, s in state.items()
                     if not (kept := truncate_total(s, cap)).is_zero()}
        if () not in state:
            continue
        series = state[()]
        for i, v in enumerate(names):
            if not usual:
                power = mus[i] - 1 if kind is K.MONOTONE else -mus[i] - 1
                series = truncate_total(mul(series, s_power(v, 1, 1, power, var_order)), k_hi)
            q = ts[i] + nus[i]
            if q:
                series = truncate_total(mul(series, s_power(v, r, 1, q, var_order)), k_hi)
        pos = [series.vars.index(v) for v in names]
        for exp, coeff in series.terms.items():
            total = sum(exp)
            if total > k_hi or total < -n:
                continue
            weight = coeff
            for i in range(n):
                e = exp[pos[i]]
                if usual:
                    weight = weight * tables[i][None] * Fraction(mus[i]) ** e
                else:
                    scal = tables[i].get(e)
                    if scal is None:
                        weight = None
                        break
                    weight = weight * scal
            if weight:
                out[total + shift] = out.get(total + shift, Fraction(0)) + weight
    return TruncatedSeries(("u",), {(b,): c for b, c in out.items()}, {"u": b_max})


def test_block_matches_multivariate_reference():
    checked = 0
    for kind in ALL_KINDS:
        for r in (1, 2, 3):
            for d in range(1, 7):
                for mus in enumerate_partitions(d):
                    if len(mus) > 5:
                        continue
                    for b_max in (3, 5, 7):
                        got = disconnected_block_series(kind, r, mus, b_max)
                        want = reference_block_series(kind, r, mus, b_max)
                        assert all(b >= 0 for (b,) in want.terms), (kind, r, mus)
                        assert in_lowest_terms(got), (kind, r, mus, b_max)
                        assert block_fractions(got) == \
                            tuple(want.coefficient(u=b) for b in range(b_max + 1)), \
                            (kind, r, mus, b_max)
                        checked += bool(want.terms)
    assert checked > 300


def test_slot_weight_folds_atom_s_powers_and_table():
    # g[e] = table[e] * [w^e] atom(w) * P(w) * S(r w)^(t + [mu]), read off
    # the product of the series it folds; the slot keeps D * g[e]
    order = 6
    for kind, r, mu, t in [(K.MONOTONE, 2, 3, 1), (K.STRICT, 2, 5, 0),
                           (K.USUAL, 3, 4, 2), (K.MONOTONE, 1, 2, 0)]:
        k_budget = order - 1
        table = scalar_table(kind, r, mu, t, k_budget)
        power = {K.MONOTONE: mu - 1, K.STRICT: -mu - 1, K.USUAL: 0}[kind]
        rest = mul(s_power("w", 1, 1, power, order),
                   s_power("w", r, 1, t + mu // r, order))
        # an atom of e^{c w} is the integer 2c; the diagonal eigenvalue
        # e^{w/2} - e^{-w/2} of (1) weighs, by linearity, the difference of
        # the weights of its two atoms
        for atoms, series in [({3: 1}, exp_series("w", Fraction(3, 2), order)),
                              ({-1: 1}, exp_series("w", Fraction(-1, 2), order)),
                              ({None: 1}, elementary_series("inv_zeta", "w", order)),
                              ({1: 1, -1: -1}, elementary_series("zeta", "w", order))]:
            folded = mul(series, rest)
            want = []
            for e in range(-1, k_budget + 1):
                if kind is K.USUAL:
                    scal = table[None] * Fraction(mu) ** e
                else:
                    scal = table.get(e, 0)
                if scal * folded.coefficient(w=e):
                    want.append((e, scal * folded.coefficient(w=e)))
            assert want
            den = _slot_frame(kind, r, mu, t, k_budget)[0]
            got = {}
            for atom, sign in atoms.items():
                for e, c in _slot_weight(kind, r, mu, t, k_budget, atom):
                    got[e] = got.get(e, 0) + sign * Fraction(c, den)
            assert tuple((e, c) for e, c in sorted(got.items()) if c) == tuple(want), \
                (kind, r, mu, t, atoms)


@pytest.mark.parametrize("r, d", [(2, 10), (1, 8)])
def test_fock_matches_character_through_genus_two(r, d):
    # connected series through genus 2, b = 2g - 2 + n + d/r at g = 2
    for kind in ALL_KINDS:
        for mus in enumerate_partitions(d):
            if len(mus) > 4:
                continue
            b_max = len(mus) + 2 + d // r
            assert route_series("fock", kind, r, mus, b_max, True) == \
                route_series("character", kind, r, mus, b_max, True), (kind, mus)


@pytest.mark.parametrize("r, mus, b_max", [
    (1, (1,) * 12, 16), (1, (2,) + (1,) * 8, 14), (2, (2,) * 6, 12), (3, (1,) * 9, 10),
])
def test_fock_matches_character_past_five_parts(r, mus, b_max):
    # profiles of 6 to 12 parts, past those the route benchmark and the
    # group-algebra oracle reach
    for kind in ALL_KINDS:
        assert route_series("fock", kind, r, mus, b_max, True) == \
            route_series("character", kind, r, mus, b_max, True), kind


def unpruned_walk(kind, r, mus, k_hi):
    """The block walk with no rank prune, as `fock._walk` yields it: (j, den, state).

    Every move `_transitions` lists is applied, one per atom, the energy-0
    diagonal included: the reference for the pruned walk.
    """
    n, d = len(mus), sum(mus)
    k_budget = k_hi + (n - 1)
    room = sum(d - mu for mu in mus)
    state, den = {(): {0: 1}}, 1
    for j in range(n - 1, -1, -1):
        mu, eta = mus[j], mus[j] % r
        room -= d - mu
        cap = k_hi + sum(part % r == 0 for part in mus[:j])
        sizes = {sum(lam) for lam in state}
        live = []
        for t in range(-(mu // r), (d - mu + eta) // r + 1):
            energy = t * r - eta
            if any(0 <= size - energy <= room for size in sizes):
                frame_den, scales, _ = _slot_frame(kind, r, mu, t, k_budget)
                if scales:
                    live.append((t, energy, frame_den))
        scale = lcm(*(frame_den for _, _, frame_den in live))
        den *= scale
        merged = {}
        for lam, p in state.items():
            size = sum(lam)
            for t, energy, frame_den in live:
                if 0 <= size - energy <= room:
                    for atom, sign, new in fock._transitions(lam, energy):
                        fock._poly_muladd(cap, merged.setdefault(new, {}), p,
                                          _slot_weight(kind, r, mu, t, k_budget, atom),
                                          sign * (scale // frame_den))
        state = {lam: q for lam, p in merged.items()
                 if (q := {e: c for e, c in p.items() if c})}
        yield j, den, state
        if not state:
            return


def unpruned_block_series(kind, r, mus, b_max):
    """`disconnected_block_series` on the unpruned walk."""
    shift = sum(mus) // r
    k_hi = b_max - shift
    if k_hi < -len(mus):
        return 1, (0,) * (b_max + 1)
    for _, den, state in unpruned_walk(kind, r, mus, k_hi):
        pass
    nums = [0] * (b_max + 1)
    for k, c in state.get((), {}).items():
        nums[k + shift] = c
    return reduced_block(den, nums)


def many_part_cases():
    """Every kind, r <= 4 and profile of at least 4 parts and degree <= 12 divisible by r."""
    return [(kind, r, mus) for kind in ALL_KINDS for r in range(1, 5)
            for d in range(r, 13, r) for mus in enumerate_partitions(d) if len(mus) >= 4]


def test_rank_prune_keeps_every_block():
    # the walk leaves out every move to a rank above the slots still to
    # apply; the unpruned walk is the reference, on every b through 8
    cases = many_part_cases()
    assert len(cases) == 1272
    for kind, r, mus in cases:
        for b_max in range(9):
            assert disconnected_block_series(kind, r, mus, b_max) == \
                unpruned_block_series(kind, r, mus, b_max), (kind, r, mus, b_max)


def test_walk_stores_no_state_of_rank_above_the_slots_left():
    # after slot j, j slots are left and each moves the rank by one at most,
    # so a state of rank above j can never reach the vacuum, and neither can
    # any state it leads to: the pruned walk stores exactly the unpruned
    # walk's states of rank <= j, with the same polynomials, and the unpruned
    # walk stores some of higher rank
    assert [fock._rank(lam) for lam in [(), (1,), (3, 1, 1), (2, 2), (4, 3, 3, 1)]] == \
        [0, 1, 1, 2, 3]
    dropped = 0
    for kind, r, mus in many_part_cases():
        k_hi = 8 - sum(mus) // r
        if k_hi < -len(mus):
            continue
        for (j, den, state), (_, want_den, want) in zip(fock._walk(kind, r, mus, k_hi),
                                                        unpruned_walk(kind, r, mus, k_hi)):
            assert all(fock._rank(lam) <= j for lam in state), (kind, r, mus, j)
            kept = {lam: p for lam, p in want.items() if fock._rank(lam) <= j}
            assert (den, state) == (want_den, kept), (kind, r, mus, j)
            dropped += len(want) - len(kept)
    assert dropped > 10000


# the dispatch's answer memo first: it sits in front of every route cache
SLOT_CACHES = (counts._answer, fock.disconnected_block_series, fock._slot_frame,
               fock._slot_weight, fock._atom_numerators, fock._atom_denominator,
               fock._s_power_row, fock._s_power_coefficient)


@pytest.mark.parametrize("r, mus", [(1, (3, 2, 1)), (2, (4, 2)), (3, (3, 3))])
def test_rising_b_max_computes_each_slot_coefficient_once(r, mus):
    # a block at a larger b_max reuses the S-power coefficients of every
    # smaller one, and the memos keyed by order only gather them: b = 0..8
    # one at a time computes exactly the coefficients b = 8 alone does, each
    # once
    memos = (fock._s_power_coefficient,)
    for kind in ALL_KINDS:
        for cache in SLOT_CACHES:
            cache.cache_clear()
        for b in range(9):
            fock_shifted_coefficient(kind, r, mus, b, True)
        rising = [cache.cache_info() for cache in memos]
        assert all(info.misses == info.currsize and info.hits for info in rising), kind
        for cache in SLOT_CACHES:
            cache.cache_clear()
        fock_shifted_coefficient(kind, r, mus, 8, True)
        assert [cache.cache_info().misses for cache in memos] == \
            [info.misses for info in rising], kind
