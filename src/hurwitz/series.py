"""Sparse multivariate Laurent series over exact rationals.

A TruncatedSeries carries, per variable, the largest exponent through which
its coefficients are known exactly (the inclusive *order*); a missing order
means the series is exact in that variable (a Laurent polynomial).  Orders
propagate honestly through arithmetic: sums take the minimum, and a product
is exact through min(N_a + val(b), N_b + val(a)) in each variable, so
multiplying against a simple pole costs one order.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, Sequence

_BIG = 10**9  # stand-in for "exact in this variable"


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class TruncatedSeries:
    __slots__ = ("vars", "terms", "orders")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction],
                 orders: Mapping[str, int] | None = None):
        vs = tuple(sorted(variables))
        ods = {v: n for v, n in (orders or {}).items() if v in vs}
        cleaned = {}
        for exp, c in terms.items():
            if c == 0:
                continue
            if any(e > ods.get(v, _BIG) for v, e in zip(vs, exp)):
                continue
            cleaned[tuple(exp)] = _as_fraction(c)
        self.vars = vs
        self.terms = cleaned
        self.orders = ods

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "TruncatedSeries":
        c = _as_fraction(c)
        return cls((), {(): c} if c != 0 else {}, {})

    @classmethod
    def monomial(cls, var: str, exponent: int = 1, coeff=1,
                 order: int | None = None) -> "TruncatedSeries":
        orders = {var: order} if order is not None else {}
        return cls((var,), {(exponent,): _as_fraction(coeff)}, orders)

    # -- inspection --------------------------------------------------------

    def order_of(self, var: str) -> int | None:
        return self.orders.get(var)

    def valuation(self, var: str) -> int:
        """Lowest exponent of var present (0 if the series does not involve it).

        Raises on the zero series, whose valuation is unbounded.
        """
        if not self.terms:
            raise ValueError("zero series has no valuation")
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return min(exp[i] for exp in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Mapping[str, int] | None = None, **kw) -> Fraction:
        """Exact coefficient of the monomial prod var^e; errors beyond truncation."""
        wanted = dict(exponents or {})
        wanted.update(kw)
        for v, e in wanted.items():
            if v in self.vars and e > self.orders.get(v, _BIG):
                raise ValueError(f"coefficient of {v}^{e} is beyond truncation order")
            if v not in self.vars and e != 0:
                return Fraction(0)
        key = tuple(wanted.get(v, 0) for v in self.vars)
        return self.terms.get(key, Fraction(0))

    # -- alignment ---------------------------------------------------------

    def _aligned_to(self, vs: tuple) -> dict:
        if vs == self.vars:
            return self.terms
        pos = [self.vars.index(v) if v in self.vars else None for v in vs]
        out = {}
        for exp, c in self.terms.items():
            out[tuple(exp[p] if p is not None else 0 for p in pos)] = c
        return out

    def _effective_order(self, var: str) -> int:
        return self.orders.get(var, _BIG)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other)
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        terms = dict(self._aligned_to(vs))
        for exp, c in other._aligned_to(vs).items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        orders = {}
        for v in vs:
            n = min(self._effective_order(v), other._effective_order(v))
            if n < _BIG:
                orders[v] = n
        return TruncatedSeries(vs, terms, orders)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.vars, {e: -c for e, c in self.terms.items()}, self.orders)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_as_fraction(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            c = _as_fraction(other)
            if c == 0:
                return TruncatedSeries(self.vars, {}, self.orders)
            return TruncatedSeries(self.vars, {e: c * v for e, v in self.terms.items()}, self.orders)
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.invert() ** (-n)
        result = TruncatedSeries.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a monomial lowest term.

        The minimal exponent vector must be componentwise <= every other
        exponent present, i.e. the series factors as c*m*(1 + h) with h of
        positive total valuation.
        """
        if not self.terms:
            raise ValueError("zero series is not invertible")
        low = tuple(min(exp[i] for exp in self.terms) for i in range(len(self.vars)))
        c0 = self.terms.get(low)
        if c0 is None:
            raise ValueError("lowest term is not a monomial; series not invertible")
        shifted = {tuple(e - l for e, l in zip(exp, low)): c / c0
                   for exp, c in self.terms.items()}
        orders = {v: n - low[self.vars.index(v)] for v, n in self.orders.items()}
        h = TruncatedSeries(self.vars, {e: c for e, c in shifted.items() if any(e)}, orders)
        # geometric series sum_j (-h)^j; j is bounded by the total window of h
        # (exponents of h are componentwise >= 0 with total degree >= 1)
        jmax = 0
        for i, v in enumerate(h.vars):
            n = h._effective_order(v)
            if n >= _BIG:
                if any(exp[i] for exp in h.terms):
                    raise ValueError("inverse of an untruncated series tail is not "
                                     "representable; truncate first")
                n = 0
            jmax += max(n, 0)
        acc = TruncatedSeries.constant(1)
        power = TruncatedSeries.constant(1)
        sign = 1
        for _ in range(jmax):
            power = power * h
            sign = -sign
            if power.is_zero():
                break
            acc = acc + sign * power
        inv_mono = TruncatedSeries(self.vars,
                                   {tuple(-l for l in low): 1 / c0}, {})
        return inv_mono * acc

    # -- reshaping ----------------------------------------------------------

    def truncate(self, orders: Mapping[str, int]) -> "TruncatedSeries":
        new_orders = dict(self.orders)
        for v, n in orders.items():
            if v in self.vars:
                new_orders[v] = min(new_orders.get(v, _BIG), n)
        return TruncatedSeries(self.vars, self.terms, new_orders)

    def truncate_total(self, cap: int) -> "TruncatedSeries":
        """Drop terms of total degree > cap.

        Per-variable orders are kept as-is; callers own the bookkeeping of
        which total window remains meaningful.
        """
        terms = {e: c for e, c in self.terms.items() if sum(e) <= cap}
        return TruncatedSeries(self.vars, terms, self.orders)

    def scale_var(self, var: str, c) -> "TruncatedSeries":
        """Substitute var -> c*var."""
        if var not in self.vars:
            return self
        c = _as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        i = self.vars.index(var)
        terms = {exp: coeff * c ** exp[i] for exp, coeff in self.terms.items()}
        return TruncatedSeries(self.vars, terms, self.orders)

    def differentiate(self, var: str) -> "TruncatedSeries":
        if var not in self.vars:
            return TruncatedSeries(self.vars, {}, self.orders)
        i = self.vars.index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = c * exp[i]
        orders = dict(self.orders)
        if var in orders:
            orders[var] -= 1
        return TruncatedSeries(self.vars, terms, orders)

    def __repr__(self) -> str:
        if not self.terms:
            return "TruncatedSeries(0)"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.vars, exp) if e != 0)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "TruncatedSeries(" + " + ".join(bits) + ")"


def mul(a: TruncatedSeries, b: TruncatedSeries, total_cap: int | None = None) -> TruncatedSeries:
    """Truncated product; optional total-degree cap prunes the output."""
    vs = tuple(sorted(set(a.vars) | set(b.vars)))
    ta, tb = a._aligned_to(vs), b._aligned_to(vs)
    if not ta or not tb:
        orders = {}
        for v in vs:
            n = min(a._effective_order(v), b._effective_order(v))
            if n < _BIG:
                orders[v] = n
        return TruncatedSeries(vs, {}, orders)
    idx = range(len(vs))
    val_a = [min(e[i] for e in ta) for i in idx]
    val_b = [min(e[i] for e in tb) for i in idx]
    orders = {}
    caps = []
    for i, v in enumerate(vs):
        na = a._effective_order(v)
        nb = b._effective_order(v)
        n = min(na + val_b[i] if na < _BIG else _BIG,
                nb + val_a[i] if nb < _BIG else _BIG)
        caps.append(n)
        if n < _BIG:
            orders[v] = n
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out: dict[tuple, Fraction] = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            if any(e > n for e, n in zip(exp, caps)):
                continue
            if total_cap is not None and sum(exp) > total_cap:
                continue
            out[exp] = out.get(exp, Fraction(0)) + ca * cb
    return TruncatedSeries(vs, out, orders)


# -- elementary series -----------------------------------------------------


@lru_cache(maxsize=None)
def exp_series(var: str, scale, order: int) -> TruncatedSeries:
    """exp(scale * var) truncated at the inclusive order, cached."""
    c = _as_fraction(scale)
    terms = {}
    power = Fraction(1)
    for j in range(order + 1):
        if j:
            power = power * c / j
        terms[(j,)] = power
    return TruncatedSeries((var,), terms, {var: order})


def exp_linear(form: Mapping[str, object], orders: Mapping[str, int]) -> TruncatedSeries:
    """exp(sum_v c_v * v) truncated per variable."""
    factors = [exp_series(v, c, orders[v]) for v, c in sorted(form.items())]
    if not factors:
        return TruncatedSeries.constant(1)
    acc = factors[0]
    for factor in factors[1:]:
        acc = acc * factor
    return acc


def zeta_of_linear(form: Mapping[str, object], orders: Mapping[str, int]) -> TruncatedSeries:
    """zeta(L) = exp(L/2) - exp(-L/2) for a linear form L."""
    half = {v: Fraction(c) / 2 for v, c in form.items()}
    minus = {v: -c for v, c in half.items()}
    return exp_linear(half, orders) - exp_linear(minus, orders)


@lru_cache(maxsize=None)
def elementary_series(name: str, var: str, order: int) -> TruncatedSeries:
    """One of zeta, S = zeta(z)/z, or their multiplicative inverses, cached.

    zeta(z) = e^{z/2} - e^{-z/2}; inv_zeta has a simple pole at the origin.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if name == "zeta":
        terms = {(j,): Fraction(1, 2 ** (j - 1) * factorial(j))
                 for j in range(1, order + 1, 2)}
        return TruncatedSeries((var,), terms, {var: order})
    if name == "S":
        terms = {(j,): Fraction(1, 2 ** j * factorial(j + 1))
                 for j in range(0, order + 1, 2)}
        return TruncatedSeries((var,), terms, {var: order})
    if name == "inv_zeta":
        return elementary_series("zeta", var, order + 2).invert().truncate({var: order})
    if name == "inv_S":
        return elementary_series("S", var, order + 2).invert().truncate({var: order})
    raise ValueError(f"unknown elementary series: {name!r}")


@lru_cache(maxsize=None)
def s_power(var: str, scale_num: int, scale_den: int, exponent: int, order: int) -> TruncatedSeries:
    """S(scale * var)^exponent, cached; exponent may be negative."""
    base = elementary_series("S" if exponent >= 0 else "inv_S", var, order)
    base = base.scale_var(var, Fraction(scale_num, scale_den))
    return base ** abs(exponent) if exponent >= 0 else base ** (-exponent)


def compose_univariate(outer: Sequence, inner: TruncatedSeries) -> TruncatedSeries:
    """sum_k outer[k] * inner^k for inner of positive total valuation."""
    coeffs = [_as_fraction(c) for c in outer]
    if not inner.is_zero() and min(sum(e) for e in inner.terms) < 1:
        raise ValueError("inner series must have positive valuation")
    acc = TruncatedSeries.constant(coeffs[-1]) if coeffs else TruncatedSeries.constant(0)
    for c in reversed(coeffs[:-1]):
        acc = acc * inner + c
    return acc


def series_reversion(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """Compositional inverse of a univariate series s = c1*var + ..., c1 != 0.

    Lagrange inversion: the n-th coefficient of the inverse is
    [var^{n-1}] (var/s)^n / n.
    """
    if len(s.vars) != 1:
        raise ValueError("reversion requires a univariate series")
    var = s.vars[0]
    if s.is_zero() or s.valuation(var) != 1:
        raise ValueError("series must have valuation exactly 1")
    c1 = s.terms[(1,)] if (1,) in s.terms else Fraction(0)
    if c1 == 0:
        raise ValueError("vanishing linear term; not invertible under composition")
    n_have = s._effective_order(var)
    if n_have < order:
        raise ValueError(f"series order {n_have} insufficient for reversion to {order}")
    ratio = (TruncatedSeries.monomial(var, 1, order=order) *
             s.truncate({var: order}).invert())
    terms = {}
    power = TruncatedSeries.constant(1)
    for n in range(1, order + 1):
        power = power * ratio
        c = power.terms.get((n - 1,), Fraction(0))
        if c:
            terms[(n,)] = c / n
    return TruncatedSeries((var,), terms, {var: order})
