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
from math import factorial, lcm
from typing import Mapping, Sequence

_BIG = 10**9  # stand-in for "exact in this variable"
_ZERO = Fraction(0)  # Fractions are immutable: one zero serves every default


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
                return _ZERO
        key = tuple(wanted.get(v, 0) for v in self.vars)
        return self.terms.get(key, _ZERO)

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

    def _least_orders(self, other: "TruncatedSeries", vs: tuple) -> dict:
        """Each var's lesser order, untruncated ones left out: a sum's, and a zero product's."""
        orders = {v: min(self._effective_order(v), other._effective_order(v)) for v in vs}
        return {v: n for v, n in orders.items() if n < _BIG}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other)
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        terms = dict(self._aligned_to(vs))
        for exp, c in other._aligned_to(vs).items():
            terms[exp] = terms.get(exp, _ZERO) + c
        return TruncatedSeries(vs, terms, self._least_orders(other, vs))

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

    def __repr__(self) -> str:
        if not self.terms:
            return "TruncatedSeries(0)"
        bits = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.vars, exp) if e != 0)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "TruncatedSeries(" + " + ".join(bits) + ")"


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product."""
    vs = tuple(sorted(set(a.vars) | set(b.vars)))
    ta, tb = a._aligned_to(vs), b._aligned_to(vs)
    if not ta or not tb:
        return TruncatedSeries(vs, {}, a._least_orders(b, vs))
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
            out[exp] = out.get(exp, _ZERO) + ca * cb
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


def compose_univariate(outer: Sequence, inner: TruncatedSeries) -> TruncatedSeries:
    """sum_k outer[k] * inner^k for inner of positive total valuation."""
    coeffs = [_as_fraction(c) for c in outer]
    if not inner.is_zero() and min(sum(e) for e in inner.terms) < 1:
        raise ValueError("inner series must have positive valuation")
    acc = TruncatedSeries.constant(coeffs[-1]) if coeffs else TruncatedSeries.constant(0)
    for c in reversed(coeffs[:-1]):
        acc = acc * inner + c
    return acc


# -- univariate coefficient lists: c[k] = [t^k], ints or Fractions ---------


def list_mul(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of a*b."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        if x:
            for j, y in enumerate(b[:n + 1 - i]):
                out[i + j] += x * y
    return out


def list_power(a: Sequence, k: int, n: int) -> list:
    """Coefficients 0..n of a^k, k >= 0."""
    out = [1] + [0] * n
    for _ in range(k):
        out = list_mul(out, a, n)
    return out


def list_reciprocal(a: Sequence, n: int) -> list:
    """Coefficients 0..n of 1/a, a[0] != 0; in integers when a is and a[0] = 1."""
    inv0 = 1 if a[0] == 1 else 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, n + 1):
        out.append(-inv0 * sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return out


def lagrange_inversion(phi: Sequence, order: int) -> list:
    """z[0..order] of the inverse of q = w/phi(w): [q^n] z = [w^{n-1}] phi^n / n.

    phi runs in integers over one common denominator; an integral z[n] is an int.
    """
    den = lcm(*(Fraction(c).denominator for c in phi[:order]))
    scaled = [int(c * den) for c in phi[:order]]
    power, z = [1], [0]
    for n in range(1, order + 1):
        power = list_mul(power, scaled, order - 1)
        c = Fraction(power[n - 1], n * den ** n)
        z.append(c.numerator if c.denominator == 1 else c)
    return z
