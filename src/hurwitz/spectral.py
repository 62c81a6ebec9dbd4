"""Series computations on the three spectral curves.

Each kind of orbifold Hurwitz number lives on a genus-zero curve with a
marked function x, expanded in a kind-specific local variable:

    monotone:          x = z(1 - z^r),        expand in q = x near 0
    strictly monotone: x = z^{r-1} + z^{-1},  expand in q = 1/x near infinity
    usual:             x = log z - z^r,       expand in q = e^x near 0

The xi basis functions attached to the critical points expand with the same
per-entry coefficients that appear as quasi-polynomial prefactors:
binom(mu+[mu], mu), binom(mu-1, [mu]) and mu^[mu]/[mu]! respectively.  This
module inverts the curves exactly, builds the xi series and their d/dx
derivatives, and verifies the closed forms and the unstable (0,1) and (0,2)
identities, all on exact coefficient lists; a TruncatedSeries is built only
for return values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Sequence

from .kinds import HurwitzKind, check_r
from .series import (TruncatedSeries, lagrange_inversion, list_mul, list_power,
                     list_reciprocal)


@lru_cache(maxsize=None)
def _curve_inverse(kind: HurwitzKind, r: int, order: int) -> tuple:
    """z[0..order] by Lagrange inversion, with phi = z/q read off the curve:
    1/(1 - z^r), 1 + z^r or e^{z^r} for the three reversion targets below."""
    check_r(r)
    if kind is HurwitzKind.MONOTONE:
        phi = [int(j % r == 0) for j in range(order)]
    elif kind is HurwitzKind.STRICT:
        phi = [int(j in (0, r)) for j in range(order)]
    else:
        phi = [Fraction(1, factorial(j // r)) if j % r == 0 else 0 for j in range(order)]
    return tuple(lagrange_inversion(phi, order))


def curve_inverse_series(kind: HurwitzKind, r: int, order: int) -> TruncatedSeries:
    """z as an exact series in the curve's expansion variable q.

    Reversion targets: q = z - z^{r+1} (monotone), q = z/(1 + z^r) (strictly
    monotone, q = 1/x), q = z e^{-z^r} (usual, q = e^x).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    return _as_series(_curve_inverse(kind, r, order), order)


def _as_series(coeffs: Sequence, order: int) -> TruncatedSeries:
    return TruncatedSeries(("q",), {(e,): c for e, c in enumerate(coeffs)}, {"q": order})


def xi_series(kind: HurwitzKind, r: int, i: int, order: int) -> TruncatedSeries:
    """The i-th xi basis function expanded in the curve variable.

    Monotone: d/dx (z^{i+1}/(i+1)).  Strictly monotone: the same with the
    1/z^2 twist, normalized to the expansion with positive binomial
    coefficients.  Usual: z^i/(1 - r z^r), whose e^x-expansion carries
    mu^[mu]/[mu]!.
    """
    return _as_series(xi_derivative_series(kind, r, i, 0, order), order)


def xi_derivative_series(kind: HurwitzKind, r: int, i: int, p: int,
                         order: int) -> tuple:
    """[q^0..q^order] of (d/dx)^p xi_i, the series side of `xi_derivative_coefficient`.

    d/dx is d/dq at q = x (monotone), -q^2 d/dq at q = 1/x (strictly
    monotone) and q d/dq at q = e^x (usual); only d/dq lowers exponents, so
    xi_i is expanded through n = order + p.
    """
    check_r(r)
    if not 0 <= i <= r - 1:
        raise ValueError("need 0 <= i <= r-1")
    if p < 0:
        raise ValueError("p must be nonnegative")
    n = order + p
    # each is z^i z' / (z/q)^k, k = 0, 2, 1: d/dq (z^{i+1}/(i+1)) = z^i z', and on
    # q = z e^{-z^r}, z' = (z/q)/(1 - r z^r)
    z = _curve_inverse(kind, r, n + 2)
    k = {HurwitzKind.MONOTONE: 0, HurwitzKind.STRICT: 2, HurwitzKind.USUAL: 1}[kind]
    xi = list_mul(list_power(z, i, n), [e * c for e, c in enumerate(z) if e], n)
    xi = list_mul(xi, list_reciprocal(list_power(z[1:], k, n), n), n)
    for _ in range(p):
        xi = [e * c for e, c in enumerate(xi)]
        if kind is HurwitzKind.MONOTONE:
            xi = xi[1:]
        elif kind is HurwitzKind.STRICT:
            xi = [0] + [-c for c in xi]
    return tuple(xi[:order + 1])


def xi_closed_coefficient(kind: HurwitzKind, r: int, i: int, mu: int) -> Fraction:
    """Closed-form expansion coefficient of xi_i at exponent mu.

    Zero off the residue class mu = i mod r.  The strictly monotone basis
    starts at mu = 1; the other two include mu = 0.
    """
    check_r(r)
    if not 0 <= i <= r - 1:
        raise ValueError("need 0 <= i <= r-1")
    if mu < 0 or (mu - i) % r != 0:
        return Fraction(0)
    nu = mu // r
    if kind is HurwitzKind.MONOTONE:
        return Fraction(comb(mu + nu, mu))
    if kind is HurwitzKind.STRICT:
        if mu < 1:
            raise ValueError("strictly monotone coefficients need mu >= 1")
        return Fraction(comb(mu - 1, nu))
    return Fraction(mu ** nu, factorial(nu)) if mu else Fraction(1)


def xi_derivative_coefficient(kind: HurwitzKind, r: int, i: int, p: int,
                              mu: int) -> Fraction:
    """Expansion coefficient of (d/dx)^p xi_i at exponent mu, in closed form.

    Differentiation shifts the monotone exponent by p with a factor
    (mu+1)...(mu+p), the strictly monotone one with (-1)^p (mu-p)...(mu-1),
    and multiplies the usual coefficient by mu^p.
    """
    check_r(r)
    if p < 0:
        raise ValueError("p must be nonnegative")
    if kind is HurwitzKind.MONOTONE:
        factor = Fraction(1)
        for j in range(1, p + 1):
            factor *= mu + j
        return factor * xi_closed_coefficient(kind, r, i, mu + p)
    if kind is HurwitzKind.STRICT:
        if mu - p < 1:
            return Fraction(0)
        factor = Fraction((-1) ** p)
        for j in range(p):
            factor *= mu - p + j
        return factor * xi_closed_coefficient(kind, r, i, mu - p)
    return Fraction(mu) ** p * xi_closed_coefficient(kind, r, i, mu)


# -- unstable checks ---------------------------------------------------------


class CheckReport(NamedTuple):
    name: str
    params: dict
    passed: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        return {"check": self.name, "params": self.params,
                "status": "PASS" if self.passed else "FAIL",
                "witness": self.witness}


def one_point_genus_zero(kind: HurwitzKind, r: int, quotient: int) -> Fraction:
    """Closed (0,1) Hurwitz number at mu = r*[mu] for [mu] >= 1.

    (mu+[mu]-2)!/(mu![mu]!) in the monotone case,
    (mu-1)!/((mu-[mu]+1)![mu]!) in the strictly monotone case.
    """
    check_r(r)
    if quotient < 1:
        raise ValueError("quotient must be >= 1")
    mu, nu = r * quotient, quotient
    if kind is HurwitzKind.MONOTONE:
        return Fraction(factorial(mu + nu - 2), factorial(mu) * factorial(nu))
    if kind is HurwitzKind.STRICT:
        return Fraction(factorial(mu - 1), factorial(mu - nu + 1) * factorial(nu))
    raise ValueError("closed (0,1) forms are for the monotone kinds")


def check_F01(kind: HurwitzKind, r: int, order: int) -> CheckReport:
    """Check d F_{0,1} = -y dx (monotone) or = y dx (strictly monotone).

    Both sides are expanded exactly in the curve variable and compared term
    by term through the given order; the first mismatch is reported.
    """
    if kind is HurwitzKind.USUAL:
        raise ValueError("the (0,1) check covers the monotone kinds only")
    if order < r + 1:
        raise ValueError("order must be >= r + 1")
    params = {"kind": kind.value, "r": r, "order": order}
    z = _curve_inverse(kind, r, order + 2)
    if kind is HurwitzKind.MONOTONE:
        # -y dx = (z^r / x) dx: compare [x^e] z^r/x = lhs[e + 1] with
        # sum_m (rm) h_m x^{rm-1}
        lhs = list_power(z, r, order + 1)
    else:
        # y dx = z dx = -(z/q^2) dq, [q^e] = lhs[e + 1], against
        # dF/dq = -1/q - sum mu h_mu q^{mu-1}
        lhs = [-c for c in z[1:]]
    for e in range(-1, order + 1):
        mu = e + 1
        got = lhs[mu]
        if kind is HurwitzKind.MONOTONE:
            expected = Fraction(0)
            if mu >= 1 and mu % r == 0:
                expected = mu * one_point_genus_zero(kind, r, mu // r)
        else:
            if mu == 0:
                expected = Fraction(-1)
            elif mu >= 1 and mu % r == 0:
                expected = -mu * one_point_genus_zero(kind, r, mu // r)
            else:
                expected = Fraction(0)
        if got != expected:
            return CheckReport("F01", params, False,
                               {"exponent": e, "curve_side": str(got),
                                "closed_side": str(expected)})
    return CheckReport("F01", params, True)


def two_point_monotone(r: int, mu1: int, mu2: int) -> Fraction:
    """Closed genus-zero two-point monotone number h_{0;(mu1,mu2)}.

    One finite t-sum, t = 1 .. [(mu2 - 1)/r] + 1, covering Case I (both
    residues nonzero) and Case II (both zero): when r divides mu1 + mu2,
    <mu1> = 0 exactly when <mu2> = 0.  Vanishes unless r divides mu1 + mu2.
    """
    check_r(r)
    if mu1 < 1 or mu2 < 1:
        raise ValueError("parts must be positive")
    if (mu1 + mu2) % r != 0:
        return Fraction(0)
    nu1, e1 = divmod(mu1, r)
    top = (mu2 - 1) // r
    return sum((Fraction(factorial(mu1 + nu1 + t - 1), factorial(mu1) * factorial(nu1 + t))
                * (t * r - e1)
                * Fraction(factorial(mu2 + top - t), factorial(mu2) * factorial(top + 1 - t))
                for t in range(1, top + 2)), Fraction(0))


def check_case_identities(r: int, mu1: int, mu2: int) -> CheckReport:
    """The two combinatorial identities behind the (0,2) Bergman comparison.

    Case I (residues nonzero):
        (mu1+mu2) * S_I = r * binom(mu1+[mu1], mu1) * binom(mu2+[mu2], mu2)
    Case II (residues zero, the t-sum weighted by t not tr):
        (mu1+mu2) * S_II = 1/(r+1) * binom(...) * binom(...)
    """
    check_r(r)
    if (mu1 + mu2) % r != 0:
        raise ValueError("r must divide mu1 + mu2")
    nu1, e1 = divmod(mu1, r)
    nu2 = mu2 // r
    params = {"r": r, "mu1": mu1, "mu2": mu2,
              "case": "I" if e1 else "II"}
    binoms = Fraction(comb(mu1 + nu1, mu1) * comb(mu2 + nu2, mu2))
    s = two_point_monotone(r, mu1, mu2)
    if e1 != 0:
        lhs, rhs = (mu1 + mu2) * s, r * binoms
    else:
        # two_point_monotone weights the Case II t-sum by t*r
        lhs, rhs = (mu1 + mu2) * s / r, binoms / (r + 1)
    if lhs != rhs:
        return CheckReport("case_identity", params, False,
                           {"lhs": str(lhs), "rhs": str(rhs)})
    return CheckReport("case_identity", params, True)


def _bergman_log(r: int, order: int) -> dict[tuple[int, int], Fraction]:
    """L[p,q] = [x1^p x2^q] log G, p >= 1, p + q <= order, G = (z(x1)-z(x2))/(x1-x2).

    G[p,q] = [x^{p+q+1}] z and G[0,0] = 1, so x1 dG/dx1 = G * x1 dL/dx1 gives
    p L[p,q] = p G[p,q] - sum i L[i,j] G[p-i,q-j], 1 <= i <= p, j <= q, i+j < p+q.
    """
    a = _curve_inverse(HurwitzKind.MONOTONE, r, order + 2)
    m = {}
    for total in range(1, order + 1):
        for p in range(1, total + 1):
            q = total - p
            m[p, q] = p * a[total + 1] - sum(
                m[i, j] * a[total - i - j + 1]
                for i in range(1, p + 1) for j in range(q + 1) if i + j < total)
    return {key: Fraction(v, key[0]) for key, v in m.items()}


def check_bergman02(r: int, order: int) -> CheckReport:
    """Bergman kernel vs the (0,2) monotone numbers.

    Every mixed coefficient [x1^m1 x2^m2] (m1, m2 >= 1, m1+m2 <= order) of
    log((z(x1)-z(x2))/(x1-x2)) must equal h_{0;(m1,m2)} from the closed
    two-point sums.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    params = {"r": r, "order": order}
    log_g = _bergman_log(r, order)
    for m1 in range(1, order):
        for m2 in range(1, order + 1 - m1):
            got = log_g[m1, m2]
            expected = two_point_monotone(r, m1, m2)
            if got != expected:
                return CheckReport("bergman02", params, False,
                                   {"mu1": m1, "mu2": m2,
                                    "series_side": str(got),
                                    "two_point_side": str(expected)})
    return CheckReport("bergman02", params, True)
