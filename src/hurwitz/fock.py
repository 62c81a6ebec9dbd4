"""Truncated semi-infinite wedge evaluation and A-operator correlators.

Charge-zero basis states are partitions; the occupied half-integer slots of
v_lam are lam_j - j + 1/2, encoded here by the integers m = lam_j - j + 1
(so the vacuum occupies m <= 0).  The operator E_a(z) acts by moving one
occupied slot m to m - a with weight e^{z(m - 1/2 - a/2)} and the usual
wedge reordering sign, plus the scalar 1/zeta(z) when a = 0.

State propagation is exact: every operator shifts the state energy
deterministically, so the support after each step consists of partitions of
one fixed size.  Vacuum expectations are multivariate Laurent series whose
only poles are the simple 1/zeta poles, one per variable at most.

The series an operator needs depend only on its argument and the truncation
window, so they are built once and shared: the weights e^{c*w} and the
scaled 1/zeta are memoized, like the elementary series under them
(TruncatedSeries values are immutable).  A disconnected block sums over
t-tuples; only the energy-balanced ones can reach the vacuum, and they are
enumerated directly (prefix energies stay nonnegative, the last t is
solved for) rather than filtered out of the full product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping, Sequence

from .kinds import HurwitzKind
from .partitions import connected_from_subprofiles
from .series import TruncatedSeries, elementary_series, exp_linear, mul, s_power

Partition = tuple[int, ...]
StateVector = dict[Partition, TruncatedSeries]


class EnergyCapError(ValueError):
    """An intermediate state exceeded a declared reachable-energy cap."""


@dataclass(frozen=True)
class EOpSpec:
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


def _occupied(lam: Partition, lo: int) -> set[int]:
    occ = {lam[j] - j for j in range(len(lam))}
    occ.update(range(lo, -len(lam) + 1))
    return occ


def _to_partition(occ: Sequence[int]) -> Partition:
    parts = []
    for j, m in enumerate(sorted(occ, reverse=True), start=1):
        part = m + j - 1
        if part <= 0:
            break
        parts.append(part)
    return tuple(parts)


def _moves(lam: Partition, a: int) -> list[tuple[Fraction, int, Partition]]:
    """All single-fermion moves m -> m-a: (weight exponent, sign, new state)."""
    size = len(lam)
    lo = -size - abs(a) - 2
    occ = _occupied(lam, lo)
    out = []
    for m in sorted(occ, reverse=True):
        target = m - a
        if target in occ or target < lo:
            continue
        between = sum(1 for c in occ if min(m, target) < c < max(m, target))
        new_occ = set(occ)
        new_occ.discard(m)
        new_occ.add(target)
        out.append((Fraction(2 * m - 1 - a, 2), (-1) ** between, _to_partition(new_occ)))
    return out


def _diagonal_exponents(lam: Partition) -> list[tuple[Fraction, int]]:
    """(k, sign) pairs for Etilde_0: occupied k > 0 minus empty k < 0."""
    size = len(lam)
    explicit = {lam[j] - j for j in range(size)}
    out = [(Fraction(2 * m - 1, 2), 1) for m in explicit if m >= 1]
    out.extend((Fraction(2 * m - 1, 2), -1)
               for m in range(-size + 1, 1) if m not in explicit)
    return out


def _window(form: Mapping[str, Fraction], orders: Mapping[str, int]) -> tuple:
    """The truncation orders of the form's variables, as a cache key."""
    return tuple(sorted((v, orders[v]) for v in form))


@lru_cache(maxsize=None)
def _exp_weight(form: tuple[tuple[str, Fraction], ...], window: tuple) -> TruncatedSeries:
    """exp(sum c_v * v) for the scaled form, built once per truncation window."""
    return exp_linear(dict(form), dict(window))


@lru_cache(maxsize=None)
def _inv_zeta(var: str, scale: Fraction, order: int) -> TruncatedSeries:
    """1/zeta(scale * var), built once per (var, scale, order)."""
    return elementary_series("inv_zeta", var, order).scale_var(var, scale)


def _accumulate(out: StateVector, lam: Partition, term: TruncatedSeries) -> None:
    out[lam] = out[lam] + term if lam in out else term


def apply_E_diagonal(arg: Mapping[str, object], state: StateVector,
                     orders: Mapping[str, int]) -> StateVector:
    """Apply Etilde_0(L), the diagonal part without the 1/zeta scalar."""
    form = {v: Fraction(c) for v, c in arg.items()}
    window = _window(form, orders)
    out: StateVector = {}
    for lam, coeff in state.items():
        eig = None
        for k, sign in _diagonal_exponents(lam):
            piece = _exp_weight(tuple(sorted((v, c * k) for v, c in form.items())), window)
            if sign < 0:
                piece = -piece
            eig = piece if eig is None else eig + piece
        if eig is None:
            continue
        term = coeff * eig
        if not term.is_zero():
            _accumulate(out, lam, term)
    return {lam: s for lam, s in out.items() if not s.is_zero()}


def _inv_zeta_of(arg: Mapping[str, object], orders: Mapping[str, int]) -> TruncatedSeries:
    form = {v: Fraction(c) for v, c in arg.items()}
    if len(form) != 1:
        raise ValueError("the 1/zeta scalar requires a single-variable argument")
    (var, scale), = form.items()
    return _inv_zeta(var, scale, orders[var])


def apply_E(energy: int, arg: Mapping[str, object], state: StateVector,
            orders: Mapping[str, int], energy_cap: int | None = None,
            total_cap: int | None = None) -> StateVector:
    """Apply E_energy(L) to a state vector (with the energy-0 pole split)."""
    form = {v: Fraction(c) for v, c in arg.items()}
    if energy == 0:
        result = apply_E_diagonal(form, state, orders)
        pole = _inv_zeta_of(form, orders)
        for lam, coeff in state.items():
            term = coeff * pole
            if not term.is_zero():
                _accumulate(result, lam, term)
    else:
        window = _window(form, orders)
        result = {}
        for lam, coeff in state.items():
            if energy_cap is not None and sum(lam) - energy > energy_cap:
                raise EnergyCapError(
                    f"state of energy {sum(lam) - energy} exceeds cap {energy_cap}")
            for exponent, sign, new_lam in _moves(lam, energy):
                weight = _exp_weight(
                    tuple(sorted((v, c * exponent) for v, c in form.items())), window)
                term = mul(coeff, weight, total_cap)
                if term.is_zero():
                    continue
                _accumulate(result, new_lam, term if sign > 0 else -term)
    if total_cap is not None:
        result = {lam: s.truncate_total(total_cap) for lam, s in result.items()}
    return {lam: s for lam, s in result.items() if not s.is_zero()}


def vacuum_expectation(ops: Sequence[EOpSpec], orders: Mapping[str, int],
                       total_cap: int | None = None) -> TruncatedSeries:
    """<0| prod_i E_{a_i}(L_i) |0> as a truncated Laurent series.

    Zero unless the energies sum to 0; per-variable valuation is at least -1
    (one simple 1/zeta pole per variable at most), enforced as a contract.
    """
    energies = [op.energy for op in ops]
    if sum(energies) != 0:
        return TruncatedSeries(tuple(sorted(orders)), {}, dict(orders))
    cap = sum(max(0, -a) for a in energies)
    state: StateVector = {(): TruncatedSeries.constant(1)}
    for j in range(len(ops) - 1, -1, -1):
        op = ops[j]
        poles_left = sum(1 for i in range(j) if ops[i].energy == 0)
        step_cap = None if total_cap is None else total_cap + poles_left
        state = apply_E(op.energy, op.form(), state, orders,
                        energy_cap=cap, total_cap=step_cap)
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


@lru_cache(maxsize=None)
def _scalar_table(kind: HurwitzKind, r: int, mu: int, t: int, k_hi: int) -> dict:
    """Map k = v - t -> folded scalar; empty when the t is dead (t < -[mu])."""
    nu, eta = divmod(mu, r)
    energy = t * r - eta
    if nu + t < 0:
        return {}
    if kind is HurwitzKind.USUAL:
        # no v-sum: the scalar is attached to the operator, any k admissible
        return {None: _folded_scalar(kind, r, mu, t, t)}
    table = {}
    for k in range(-1, k_hi + 1):
        if k == -1 and energy != 0:
            continue
        folded = _folded_scalar(kind, r, mu, t, t + k)
        if folded:
            table[k] = folded
    return table


def _balanced_t_tuples(ranges: Sequence[range], etas: Sequence[int],
                       r: int) -> Iterator[tuple[int, ...]]:
    """The t-tuples of product(*ranges) whose E-operators can reach the vacuum.

    Entry i carries energy t_i * r - etas[i]; a tuple is kept when the
    energies sum to zero and every proper prefix sum is nonnegative (the
    operators act from the right, and every state they pass through must
    have nonnegative energy).
    Tuples come in itertools.product order.  A prefix is cut as soon as its
    energy is negative or too large for the remaining entries to cancel, and
    the last t is solved for instead of searched.
    """
    n = len(ranges)
    if n == 0:
        yield ()
        return
    # room[i]: the most energy entries i+1.. can remove, at their lowest t
    room = [0] * n
    for i in range(n - 2, -1, -1):
        room[i] = room[i + 1] + etas[i + 1] - ranges[i + 1].start * r

    def extend(i: int, prefix: int, head: tuple[int, ...]):
        if i == n - 1:
            t, rest = divmod(etas[i] - prefix, r)
            if not rest and t in ranges[i]:
                yield head + (t,)
            return
        # prefix + t * r - etas[i] must lie in [0, room[i]]
        lo = max(ranges[i].start, -((prefix - etas[i]) // r))
        hi = min(ranges[i].stop - 1, (room[i] + etas[i] - prefix) // r)
        for t in range(lo, hi + 1):
            yield from extend(i + 1, prefix + t * r - etas[i], head + (t,))

    yield from extend(0, 0, ())


@lru_cache(maxsize=None)
def disconnected_block_series(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                              k_hi: int) -> TruncatedSeries:
    """Disconnected A-correlator block as a u-series on [-len(mus), k_hi].

    The per-entry binomial/power prefactors are folded into the term scalars,
    so [u^{b - d/r}] of this series is the disconnected Hurwitz number h_b.
    """
    n = len(mus)
    nus = [m // r for m in mus]
    etas = [m % r for m in mus]
    out: dict[int, Fraction] = {}
    if sum(mus) % r == 0:
        k_budget = k_hi + (n - 1)
        var_order = max(k_budget, 0) + 1
        names = [f"w{i}" for i in range(n)]
        orders = {v: var_order for v in names}
        eta_sum = sum(etas)
        nu_sum = sum(nus)
        ranges = [range(-nus[i], (eta_sum + r * (nu_sum - nus[i])) // r + 1)
                  for i in range(n)]
        for ts in _balanced_t_tuples(ranges, etas, r):
            energies = [t * r - e for t, e in zip(ts, etas)]
            tables = [_scalar_table(kind, r, mus[i], ts[i], k_budget)
                      for i in range(n)]
            if any(not tb for tb in tables):
                continue
            ops = [EOpSpec.single(a, v) for a, v in zip(energies, names)]
            series = vacuum_expectation(ops, orders, total_cap=k_hi)
            if series.is_zero():
                continue
            for i, v in enumerate(names):
                if kind is not HurwitzKind.USUAL:
                    series = mul(series, s_power(v, 1, 1, mus[i] - 1
                                                 if kind is HurwitzKind.MONOTONE
                                                 else -mus[i] - 1, var_order), k_hi)
                q = ts[i] + nus[i]
                if q:
                    series = mul(series, s_power(v, r, 1, q, var_order), k_hi)
            pos = [series.vars.index(v) for v in names]
            usual = kind is HurwitzKind.USUAL
            for exp, coeff in series.terms.items():
                total = sum(exp)
                if total > k_hi or total < -n:
                    continue
                weight = coeff
                for i in range(n):
                    e = exp[pos[i]]
                    if usual:
                        # substitute w_i -> mu_i * u and attach the t-scalar
                        weight = weight * tables[i][None] * Fraction(mus[i]) ** e
                    else:
                        scal = tables[i].get(e)
                        if scal is None:
                            weight = None
                            break
                        weight = weight * scal
                if weight:
                    out[total] = out.get(total, Fraction(0)) + weight
    return TruncatedSeries(("u",), {(k,): c for k, c in out.items()}, {"u": k_hi})


def connected_genus_series(kind: HurwitzKind, r: int, mus: tuple[int, ...],
                           k_hi: int) -> TruncatedSeries:
    n = len(mus)
    return connected_from_subprofiles(
        mus, lambda sub: disconnected_block_series(kind, r, sub, k_hi + n - len(sub)))


def fock_genus_series(kind: HurwitzKind, r: int, mus: Sequence[int], k_max: int,
                      connected: bool = True) -> TruncatedSeries:
    """Hurwitz genus series from the A-operator route, graded by 2g-2+n."""
    mus = tuple(mus)
    if connected:
        return connected_genus_series(kind, r, mus, k_max)
    return disconnected_block_series(kind, r, mus, k_max)


def a_correlator(kind: HurwitzKind, r: int, mus: Sequence[int], g: int,
                 connected: bool = True) -> Fraction:
    """[u^{2g-2+n}] of the (dis)connected A-operator correlator.

    The correlator excludes the per-entry prefactors, so this is the Hurwitz
    number divided by prod_i prefactor(kind, r, mu_i); it is undefined when a
    prefactor vanishes (strictly monotone at r = 1).
    """
    from .polycheck import prefactor

    mus = tuple(mus)
    k = 2 * g - 2 + len(mus)
    value = fock_genus_series(kind, r, mus, k, connected=connected).coefficient(u=k)
    denom = Fraction(1)
    for mu in mus:
        p = prefactor(kind, r, mu)
        if p == 0:
            raise ValueError("correlator undefined: vanishing prefactor "
                             f"for mu={mu}, r={r} ({kind.value})")
        denom *= p
    return value / denom
