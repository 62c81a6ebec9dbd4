"""The fock route: semi-infinite wedge evaluation of A-operator correlators.

Charge-zero basis states are partitions; the occupied half-integer slots of
v_lam are lam_i - i - 1/2 (i from 0), encoded here by the integers
m = lam_i - i, the state's beta-list (so the vacuum occupies m <= 0).  The
operator E_a(z) acts by moving one occupied slot m to m - a with weight
e^{z(m - 1/2 - a/2)} and the usual wedge reordering sign, plus, when a = 0,
the diagonal eigenvalue (a signed sum of exponentials) and the scalar
1/zeta(z).  `_transitions` lists the diagonal one term per exponential, so
every term multiplies a state's coefficient by one *atom* of z: an
exponential e^{c z}, listed by the integer 2c (c is a half-integer), or
1/zeta(z), listed as None.

State propagation is exact: every operator shifts the state energy
deterministically, so the support after each step consists of partitions of
one fixed size.  `_transitions` lists the terms of one operator on one
state, and two callers propagate with it:

- `apply_E` and `vacuum_expectation`, the general operator calculus, carry
  multivariate TruncatedSeries in the operators' arguments.  Their vacuum
  expectations are Laurent series whose only poles are the simple 1/zeta
  poles, one per variable at most.
- `disconnected_block_series`, the route's one entry point, gives the
  disconnected numbers h_0..h_{b_max} of a profile as a tuple, like the
  other routes.  Its operators each have their own variable w_i, and what
  follows the correlator (the A-operator's S-powers and its scalars, read
  off per exponent of w_i) is linear in each w_i on its own.  So each
  (operator slot, atom) pair folds into one memoized polynomial in the
  grading variable u (`_slot_weight`), and the wedge states carry
  u-polynomials: a move multiplies by one of them, and the vacuum
  coefficient is the answer, shifted by d/r.  These run in integers, over
  one common denominator per slot, with one exact division at the vacuum.
  The slot data are coefficients of fixed series in w, each memoized by
  the coefficient it is: the S-powers by Miller's power recurrence
  (`_s_power_coefficient`), the slot's S-power product (`_slot_base`) and
  the folded scalars (`_folded_scalar`).  A block at a larger b_max only
  gathers them, so it reruns the wedge walk but no series arithmetic;
  this route uses no TruncatedSeries at all.

The block follows the paper's vacuum correlator <A_{mu_1} ... A_{mu_n}>:
each A-operator is one sum over t, so each slot is one pass over the
states, applying all its live t to each, and the sum over t-tuples is
never written out.  A state is moved only while the slots still to apply
can bring it back to the vacuum.
A nonzero vacuum term below b = 0 raises instead of being dropped.
Connected series are taken from these in `counts.route_series`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Mapping, NamedTuple, Sequence

from .kinds import HurwitzKind
from .series import TruncatedSeries, elementary_series, exp_linear, mul

Partition = tuple[int, ...]
StateVector = dict[Partition, TruncatedSeries]


class EOpSpec(NamedTuple):
    """E_energy(L) for a linear form L = sum scale_v * v in formal variables."""

    energy: int
    arg: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, energy: int, form: Mapping[str, object]) -> "EOpSpec":
        return cls(energy, tuple(sorted((v, Fraction(c)) for v, c in form.items())))

    @classmethod
    def single(cls, energy: int, var: str, scale=1) -> "EOpSpec":
        return cls.make(energy, {var: scale})

    def form(self) -> dict[str, Fraction]:
        return dict(self.arg)


@lru_cache(maxsize=None)
def _transitions(lam: Partition, energy: int) -> tuple:
    """(atom, sign, new state) for every term of E_energy acting on v_lam.

    An atom is the integer 2c for e^{c z}, or None for the scalar 1/zeta(z).
    Every term is read off the beta-list beta_i = lam_i - i (i from 0) of lam
    padded with |energy| + 1 zeros: its entries are occupied slots m, and so
    is every m <= -len(beta), which no move can leave.  A move m -> m - energy
    jumps the |i - j| occupied slots between its index i before and j after.
    At energy 0 the diagonal eigenvalue is one term per exponential, +e^{c z}
    for each occupied m >= 1 and -e^{c z} for each empty m <= 0, with 2c =
    2m - 1, followed by 1/zeta.
    """
    beta = [part - i for i, part in enumerate(lam + (0,) * (abs(energy) + 1))]
    if not energy:
        out = [(2 * m - 1, 1, lam) for m in beta if m >= 1]
        out.extend((2 * m - 1, -1, lam) for m in range(1 - len(lam), 1) if m not in beta)
        return tuple(out) + ((None, 1, lam),)
    out = []
    for i, m in enumerate(beta):
        target = m - energy
        if target in beta or target <= -len(beta):  # occupied, or in the sea
            continue
        new = sorted(beta[:i] + beta[i + 1:] + [target], reverse=True)
        out.append((2 * m - 1 - energy, (-1) ** abs(i - new.index(target)),
                    tuple(b + k for k, b in enumerate(new) if b + k > 0)))
    return tuple(out)


# -- multivariate series coefficients ----------------------------------------


def _series_atom(atom, form: Mapping[str, Fraction], orders: Mapping[str, int]) -> TruncatedSeries:
    """One atom of `_transitions` as a series in the variables of the form L.

    e^{cL} for the integer 2c, or 1/zeta(L), which needs L to have a single
    variable.
    """
    if atom is None:
        if len(form) != 1:
            raise ValueError("the 1/zeta scalar requires a single-variable argument")
        (var, scale), = form.items()
        return elementary_series("inv_zeta", var, orders[var]).scale_var(var, scale)
    return exp_linear({v: s * Fraction(atom, 2) for v, s in form.items()}, orders)


def apply_E(energy: int, arg: Mapping[str, object], state: StateVector,
            orders: Mapping[str, int]) -> StateVector:
    """Apply E_energy(L) to a state vector (with the energy-0 pole split).

    A product that is zero is not added: its truncation orders would still
    lower those of the sum.
    """
    form = {v: Fraction(c) for v, c in arg.items()}
    out: StateVector = {}
    for lam, coeff in state.items():
        for atom, sign, new in _transitions(lam, energy):
            term = mul(coeff, _series_atom(atom, form, orders))
            if term.is_zero():
                continue
            if sign < 0:
                term = -term
            out[new] = out[new] + term if new in out else term
    return {lam: s for lam, s in out.items() if not s.is_zero()}


def vacuum_expectation(ops: Sequence[EOpSpec], orders: Mapping[str, int]) -> TruncatedSeries:
    """<0| prod_i E_{a_i}(L_i) |0> as a truncated Laurent series.

    Zero unless the energies sum to 0; per-variable valuation is at least -1
    (one simple 1/zeta pole per variable at most), enforced as a contract.
    """
    energies = [op.energy for op in ops]
    if sum(energies) != 0:
        return TruncatedSeries(tuple(sorted(orders)), {}, dict(orders))
    state: StateVector = {(): TruncatedSeries.constant(1)}
    for j in range(len(ops) - 1, -1, -1):
        state = apply_E(ops[j].energy, ops[j].form(), state, orders)
        if not state:
            break
    result = state.get((), TruncatedSeries(tuple(sorted(orders)), {}, dict(orders)))
    for v in result.vars:
        if not result.is_zero() and result.valuation(v) < -1:
            raise ValueError(f"pole deeper than order -1 in {v}: contract violation")
    return result


# -- A-operators -------------------------------------------------------------


def inv_factorial(n: int) -> Fraction:
    """1/n! with the convention that 1/n! = 0 for negative n."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


@lru_cache(maxsize=None)
def _folded_scalar(kind: HurwitzKind, r: int, mu: int, t: int, v: int) -> Fraction:
    """The (t, v) scalar of one A-operator times the kind's per-entry prefactor.

    Folding in the prefactor keeps it a finite factorial ratio (the bare
    Pochhammer ratio is infinite for the strictly monotone kind at r = 1,
    where the prefactor vanishes); it is 0 for t < -[mu] and, strictly
    monotone, for v > mu - [mu].
    """
    nu = mu // r
    if kind is HurwitzKind.MONOTONE:
        top = mu + nu + v - 1
        if top < 0:
            return Fraction(0)
        return Fraction(factorial(top), factorial(mu)) * inv_factorial(nu + t)
    if kind is HurwitzKind.STRICT:
        return (factorial(mu - 1) * inv_factorial(mu - nu - v)
                * inv_factorial(nu + t))
    return Fraction(mu) ** (nu + t - 1) * inv_factorial(nu + t)


# -- S-power coefficients, memoized per coefficient, not per truncation order --


@lru_cache(maxsize=None)
def _s_power_coefficient(scale: int, p: int, n: int) -> Fraction:
    """[w^n] S(scale * w)^p for any integer p, by Miller's power recurrence.

    S(scale * w) = sum_k a_k w^k with a_0 = 1 and a_k = scale^k / (2^k (k+1)!)
    for even k (0 for odd k), so g = S^p has g_0 = 1 and
    n g_n = sum_{k=1}^{n} ((p + 1) k - n) a_k g_{n-k}.
    """
    if n == 0:
        return Fraction(1)
    if n % 2:  # S is even, so are its powers
        return Fraction(0)
    acc = sum(((p + 1) * k - n) * Fraction(scale ** k, 2 ** k * factorial(k + 1))
              * _s_power_coefficient(scale, p, n - k) for k in range(2, n + 1, 2))
    return Fraction(acc, n)


@lru_cache(maxsize=None)
def _slot_base(kind: HurwitzKind, r: int, mu: int, t: int, e: int) -> Fraction:
    """[w^e] S(w)^p * S(r w)^(t + [mu]), the S-powers of one operator slot.

    p is mu - 1 monotone, -mu - 1 strictly monotone and 0 usual, where
    S(w)^0 = 1 leaves [w^e] S(r w)^(t + [mu]) alone.
    """
    p = {HurwitzKind.MONOTONE: mu - 1, HurwitzKind.STRICT: -mu - 1}.get(kind, 0)
    q = t + mu // r
    # the odd coefficients of S^p vanish
    return sum((_s_power_coefficient(1, p, j) * _s_power_coefficient(r, q, e - j)
                for j in range(0, e + 1, 2)), Fraction(0))


def _inv_zeta_coefficients(order: int) -> list[Fraction]:
    """[z^j] 1/zeta(z) for j = -1..order: 1/zeta(z) = z^-1 S(z)^-1."""
    return [_s_power_coefficient(1, -1, j + 1) for j in range(-1, order + 1)]


# -- the block: u-polynomials per operator slot --------------------------------
#
# The block runs in integers: every u-polynomial of a slot's t is kept over
# that t's one common denominator (`_slot_frame`), the same for all atoms, and
# a slot's moves over all its t are added at the lcm of those, so a state
# reached through slots j..n-1 is an integer polynomial over the product of
# their denominators, divided out once at the vacuum.


@lru_cache(maxsize=None)
def _atom_denominator(order: int) -> int:
    """A common denominator of [z^j] of every atom, j <= order."""
    return lcm(2 ** order * factorial(order),
               *(c.denominator for c in _inv_zeta_coefficients(order)))


@lru_cache(maxsize=None)
def _atom_numerators(atom, order: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, [z^j] atom(z) * _atom_denominator(order)), j <= order.

    Atoms are those of `_transitions`; for the integer 2c of e^{c z},
    [z^j] e^{c z} = (2c)^j / (2^j j!).
    """
    den = _atom_denominator(order)
    if atom is None:
        return tuple((j, c.numerator * (den // c.denominator))
                     for j, c in enumerate(_inv_zeta_coefficients(order), start=-1) if c)
    terms = ((j, atom ** j * (den // (2 ** j * factorial(j)))) for j in range(order + 1))
    return tuple((j, c) for j, c in terms if c)


@lru_cache(maxsize=None)
def _slot_frame(kind: HurwitzKind, r: int, mu: int, t: int,
                k_budget: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
    """What one operator slot's u-polynomials share: (D, scales, base).

    The slot's scalar at w^e is folded(t, t) * mu^e for the usual kind and
    folded(t, t + e) otherwise (`_folded_scalar`), where e = -1 only at
    zero energy; its S-powers are S(w)^p * S(r w)^(t + [mu]) (`_slot_base`).
    D = L * A * B for L, A and B common denominators of the scalars, of the
    atoms and of the S-powers; scales holds (e, scalar * L) for e in
    [-1, k_budget] where the scalar is nonzero, and base the coefficients
    [w^0..w^order] of the S-powers times B.  k_budget only says how many
    memoized coefficients to gather over one denominator.  Empty scales
    mean the t is dead: t < -[mu], or strictly monotone every v > mu - [mu].
    """
    if kind is HurwitzKind.USUAL:
        folded = _folded_scalar(kind, r, mu, t, t)
        scalars = [(e, folded * Fraction(mu) ** e) for e in range(-1, k_budget + 1)]
    else:
        low = -1 if t * r == mu % r else 0
        scalars = [(e, _folded_scalar(kind, r, mu, t, t + e))
                   for e in range(low, k_budget + 1)]
    scalars = [(e, c) for e, c in scalars if c]
    if not scalars:
        return 1, (), ()
    order = max(k_budget, 0) + 1
    table_den = lcm(*(c.denominator for _, c in scalars))
    base = [_slot_base(kind, r, mu, t, j) for j in range(order + 1)]
    base_den = lcm(*(c.denominator for c in base))
    return (table_den * _atom_denominator(order) * base_den,
            tuple((e, c.numerator * (table_den // c.denominator)) for e, c in scalars),
            tuple(c.numerator * (base_den // c.denominator) for c in base))


@lru_cache(maxsize=None)
def _slot_weight(kind: HurwitzKind, r: int, mu: int, t: int, k_budget: int,
                 atom) -> tuple[tuple[int, int], ...]:
    """One operator slot's u-polynomial for one atom, as (e, D * g[e]) by rising e.

    g[e] = scalar[e] * [w^e] atom(w) * S(w)^p * S(r w)^(t + [mu]) for e in
    [-1, k_budget]: the atom, the slot's S-powers and its scalars folded
    into one functional, over the slot's denominator D of `_slot_frame`.
    """
    _, scales, base = _slot_frame(kind, r, mu, t, k_budget)
    atom_num = _atom_numerators(atom, max(k_budget, 0) + 1)
    out = []
    for e, scale in scales:
        c = sum(a * base[e - j] for j, a in atom_num if j <= e)
        if c:
            out.append((e, scale * c))
    return tuple(out)


def _poly_muladd(cap: int, acc: dict, a: dict, b: tuple, factor: int) -> None:
    """acc += factor * a * b on u-polynomials, in place, dropping total degree above cap.

    a and acc map exponents to integers; b is (e, coefficient) pairs by
    rising e.
    """
    for ea, ca in a.items():
        ca *= factor
        room = cap - ea
        for eb, cb in b:
            if eb > room:
                break
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


@lru_cache(maxsize=None)
def disconnected_block_series(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                              b_max: int) -> tuple[Fraction, ...]:
    """The fock route's disconnected h_0..h_{b_max}.

    The A-operator correlator <A_{mu_1} ... A_{mu_n}> is graded by
    k = 2g - 2 + len(mus); with the per-entry binomial/power prefactors
    folded into the term scalars, its [u^k] is the disconnected Hurwitz
    number h_b at b = k + d/r.  Every k is at least -len(mus), so the series
    is zero when r does not divide d or when b_max - d/r < -len(mus).

    The A-operators act on one shared state from the right, each once, in
    one pass over the states: slot j applies E_{t r - <mu_j>} for each of
    its live t to every state, each move multiplying by that t's
    `_slot_weight`, and adds all moves into one result over the slot's
    common denominator, the lcm of its live t's.  Energy t r - <mu_j> is at
    most d - mu_j, and a t is live when it moves some state to a size in
    [0, room], room the most energy slots 0..j-1 can still remove; a state
    is moved only to such a size.  The vacuum coefficient is divided once
    by the product of the slots' denominators.  A state keeps total degree
    k_hi plus one per slot still to apply that can have energy 0 (each can
    lower the degree by one through 1/zeta).
    """
    n, d = len(mus), sum(mus)
    shift = d // r
    k_hi = b_max - shift
    if d % r or k_hi < -n:
        return (Fraction(0),) * (b_max + 1)
    # a slot's exponent is at most k_hi plus one per other slot
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
        merged: dict = {}
        for lam, p in state.items():
            size = sum(lam)
            for t, energy, frame_den in live:
                if 0 <= size - energy <= room:
                    factor = scale // frame_den
                    for atom, sign, new in _transitions(lam, energy):
                        _poly_muladd(cap, merged.setdefault(new, {}), p,
                                     _slot_weight(kind, r, mu, t, k_budget, atom),
                                     sign * factor)
        state = {lam: q for lam, p in merged.items()
                 if (q := {e: c for e, c in p.items() if c})}
        if not state:
            break
    out = {k + shift: Fraction(c, den) for k, c in state.get((), {}).items()}
    if any(c for b, c in out.items() if b < 0):
        raise ArithmeticError(f"nonzero coefficient below b = 0 at mu = {mus}")
    return tuple(out.get(b, Fraction(0)) for b in range(b_max + 1))
