"""Series computations on the three spectral curves.

Each kind of orbifold Hurwitz number lives on a genus-zero curve with a
marked function x, expanded in a kind-specific local variable:

    monotone:          x = z(1 - z^r),        expand in q = x near 0
    strictly monotone: x = z^{r-1} + z^{-1},  expand in q = 1/x near infinity
    usual:             x = log z - z^r,       expand in q = e^x near 0

The xi basis functions attached to the critical points expand with the same
per-entry coefficients that appear as quasi-polynomial prefactors:
binom(mu+[mu], mu), binom(mu-1, [mu]) and mu^[mu]/[mu]! respectively.  This
module inverts the curves exactly, builds the xi series, and verifies the
closed forms together with the unstable (0,1) and (0,2) identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .kinds import HurwitzKind
from .series import TruncatedSeries, compose_univariate, series_reversion


@lru_cache(maxsize=None)
def curve_inverse_series(kind: HurwitzKind, r: int, order: int) -> TruncatedSeries:
    """z as an exact series in the curve's expansion variable q.

    Reversion targets: q = z - z^{r+1} (monotone), q = z/(1 + z^r) (strictly
    monotone, q = 1/x), q = z e^{-z^r} (usual, q = e^x).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    z = TruncatedSeries.monomial("q", order=order)
    if kind is HurwitzKind.MONOTONE:
        forward = z - z ** (r + 1)
    elif kind is HurwitzKind.STRICT:
        forward = z * (1 + z ** r).invert()
    else:
        exp_coeffs = [Fraction((-1) ** j, factorial(j)) for j in range(order + 1)]
        forward = z * compose_univariate(exp_coeffs, z ** r)
    return series_reversion(forward, order)


def _apply_d_dx(kind: HurwitzKind, series: TruncatedSeries) -> TruncatedSeries:
    """d/dx in the expansion variable: d/dq, -q^2 d/dq rewritten, or q d/dq."""
    q = TruncatedSeries.monomial("q")
    if kind is HurwitzKind.MONOTONE:
        return series.differentiate("q")
    if kind is HurwitzKind.USUAL:
        return q * series.differentiate("q")
    # strictly monotone: q = 1/x, d/dx = -q^2 d/dq
    return -(q * q * series.differentiate("q"))


def xi_series(kind: HurwitzKind, r: int, i: int, order: int) -> TruncatedSeries:
    """The i-th xi basis function expanded in the curve variable.

    Monotone: d/dx (z^{i+1}/(i+1)).  Strictly monotone: the same with the
    1/z^2 twist, normalized to the expansion with positive binomial
    coefficients.  Usual: z^i/(1 - r z^r), whose e^x-expansion carries
    mu^[mu]/[mu]!.
    """
    if not 0 <= i <= r - 1:
        raise ValueError("need 0 <= i <= r-1")
    z = curve_inverse_series(kind, r, order + 2)
    if kind is HurwitzKind.MONOTONE:
        return _apply_d_dx(kind, z ** (i + 1) * Fraction(1, i + 1)).truncate({"q": order})
    if kind is HurwitzKind.STRICT:
        d = _apply_d_dx(kind, z ** (i + 1) * Fraction(1, i + 1))
        out = -(d * (z * z).invert())
        return out.truncate({"q": order})
    denom = 1 - r * z ** r
    return (z ** i * denom.invert()).truncate({"q": order})


def xi_closed_coefficient(kind: HurwitzKind, r: int, i: int, mu: int) -> Fraction:
    """Closed-form expansion coefficient of xi_i at exponent mu.

    Zero off the residue class mu = i mod r.  The strictly monotone basis
    starts at mu = 1; the other two include mu = 0.
    """
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


@dataclass
class CheckReport:
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
    z = curve_inverse_series(kind, r, order + 2)
    if kind is HurwitzKind.MONOTONE:
        # -y dx = (z^r / x) dx: compare with sum_m (rm) h_m x^{rm-1}
        lhs = z ** r * TruncatedSeries.monomial("q", -1)
    else:
        # y dx = z dx = -(z/q^2) dq against dF/dq = -1/q - sum mu h_mu q^{mu-1}
        lhs = -(z * TruncatedSeries.monomial("q", -2))
    for e in range(-1, order + 1):
        got = lhs.coefficient(q=e)
        mu = e + 1
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


def check_bergman02(r: int, order: int) -> CheckReport:
    """Bergman kernel vs the (0,2) monotone numbers.

    Every mixed coefficient [x1^m1 x2^m2] (m1, m2 >= 1, m1+m2 <= order) of
    log((z(x1)-z(x2))/(x1-x2)) must equal h_{0;(m1,m2)} from the closed
    two-point sums.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    params = {"r": r, "order": order}
    z = curve_inverse_series(HurwitzKind.MONOTONE, r, order + 2)
    a = {e: z.coefficient(q=e) for e in range(1, order + 2)}
    # (z(x1)-z(x2))/(x1-x2) = sum_n a_n sum_{p+q=n-1} x1^p x2^q
    terms = {}
    for n_exp, c in a.items():
        if c == 0:
            continue
        for p in range(n_exp):
            terms[(p, n_exp - 1 - p)] = c
    g = TruncatedSeries(("x1", "x2"), terms, {"x1": order, "x2": order})
    g = g.truncate_total(order)
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j)
                                  for j in range(1, order + 1)]
    log_g = compose_univariate(log_coeffs, g - 1).truncate_total(order)
    for m1 in range(1, order):
        for m2 in range(1, order + 1 - m1):
            got = log_g.coefficient(x1=m1, x2=m2)
            expected = two_point_monotone(r, m1, m2)
            if got != expected:
                return CheckReport("bergman02", params, False,
                                   {"mu1": m1, "mu2": m2,
                                    "series_side": str(got),
                                    "two_point_side": str(expected)})
    return CheckReport("bergman02", params, True)
