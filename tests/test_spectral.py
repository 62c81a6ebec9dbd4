from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from hurwitz.counts import HurwitzRequest, hurwitz_number
from hurwitz.kinds import HurwitzKind as K
from hurwitz.series import TruncatedSeries, compose_univariate
from hurwitz.spectral import (
    _bergman_log,
    check_F01,
    check_bergman02,
    check_case_identities,
    curve_inverse_series,
    one_point_genus_zero,
    two_point_monotone,
    xi_closed_coefficient,
    xi_derivative_coefficient,
    xi_derivative_series,
    xi_series,
)
from test_series import poly, truncate_total


def differentiate(series, var):
    """d/dvar of a TruncatedSeries, its order in var lowered by one."""
    if var not in series.vars:
        return TruncatedSeries(series.vars, {}, series.orders)
    i = series.vars.index(var)
    terms = {}
    for exp, c in series.terms.items():
        if exp[i] == 0:
            continue
        new = list(exp)
        new[i] -= 1
        terms[tuple(new)] = c * exp[i]
    orders = dict(series.orders)
    if var in orders:
        orders[var] -= 1
    return TruncatedSeries(series.vars, terms, orders)


def test_differentiate():
    s = poly("x", {0: Fraction(1), 2: Fraction(3), 5: Fraction(1, 2)}, order=6)
    d = differentiate(s, "x")
    assert d.coefficient(x=1) == 6
    assert d.coefficient(x=4) == Fraction(5, 2)
    assert d.orders.get("x") == 5


def _apply_d_dx(kind, series):
    """Reference d/dx on a q-series: d/dq, -q^2 d/dq (q = 1/x) or q d/dq (q = e^x)."""
    q = TruncatedSeries.monomial("q")
    if kind is K.MONOTONE:
        return differentiate(series, "q")
    if kind is K.USUAL:
        return q * differentiate(series, "q")
    return -(q * q * differentiate(series, "q"))


def test_monotone_inverse_catalan():
    z = curve_inverse_series(K.MONOTONE, 1, 6)
    for n, c in enumerate([1, 1, 2, 5, 14], start=1):
        assert z.coefficient(q=n) == c


def test_monotone_inverse_r2():
    # coefficients (3k)!/(k!(2k+1)!) on exponents 2k+1
    z = curve_inverse_series(K.MONOTONE, 2, 9)
    for k in range(4):
        expected = Fraction(factorial(3 * k), factorial(k) * factorial(2 * k + 1))
        assert z.coefficient(q=2 * k + 1) == expected


def test_strict_inverse_r2():
    # z = x^{-1} + x^{-3} + 2 x^{-5} + 5 x^{-7}: (rj)!/(j!(rj-j+1)!)
    z = curve_inverse_series(K.STRICT, 2, 8)
    for j in range(4):
        expected = Fraction(factorial(2 * j), factorial(j) * factorial(j + 1))
        assert z.coefficient(q=2 * j + 1) == expected
    for e in (2, 4, 6):
        assert z.coefficient(q=e) == 0


def test_usual_inverse_tree_function():
    # z = sum n^{n-1} q^n / n!
    z = curve_inverse_series(K.USUAL, 1, 7)
    for n in range(1, 8):
        assert z.coefficient(q=n) == Fraction(n ** (n - 1), factorial(n))


def test_inversion_roundtrip_all_curves():
    # substituting z(q) back into the curve recovers q, r <= 4
    from hurwitz.series import compose_univariate

    order = 10
    for kind in K:
        for r in range(1, 5):
            z = curve_inverse_series(kind, r, order)
            if kind is K.MONOTONE:
                back = z - z ** (r + 1)
            elif kind is K.STRICT:
                back = z * (1 + z ** r).invert()
            else:
                ec = [Fraction((-1) ** j, factorial(j)) for j in range(order + 1)]
                back = z * compose_univariate(ec, z ** r)
            for e in range(1, order + 1):
                assert back.coefficient(q=e) == (1 if e == 1 else 0), (kind, r, e)


def test_xi_series_examples():
    s = xi_series(K.MONOTONE, 2, 1, 6)
    assert [s.coefficient(q=e) for e in (1, 3, 5)] == [1, 4, 21]
    s = xi_series(K.STRICT, 2, 0, 5)
    assert [s.coefficient(q=e) for e in (2, 4)] == [1, 3]
    s = xi_series(K.USUAL, 2, 0, 5)
    assert [s.coefficient(q=e) for e in (0, 2, 4)] == [1, 2, 8]


def test_xi_closed_coefficient_examples():
    assert xi_closed_coefficient(K.MONOTONE, 2, 1, 5) == 21
    assert xi_closed_coefficient(K.MONOTONE, 2, 0, 5) == 0
    assert xi_closed_coefficient(K.STRICT, 3, 2, 5) == 4
    assert xi_closed_coefficient(K.USUAL, 2, 0, 0) == 1
    with pytest.raises(ValueError):
        xi_closed_coefficient(K.MONOTONE, 2, 2, 1)


def test_xi_series_matches_closed_forms():
    order = 12
    for kind in K:
        for r in range(1, 5):
            for i in range(r):
                s = xi_series(kind, r, i, order)
                start = 1 if kind is K.STRICT else 0
                for mu in range(start, order + 1):
                    assert s.coefficient(q=mu) == xi_closed_coefficient(kind, r, i, mu), \
                        (kind, r, i, mu)


def test_xi_derivative_examples():
    assert xi_derivative_coefficient(K.MONOTONE, 2, 0, 1, 1) == 6
    assert xi_derivative_coefficient(K.USUAL, 1, 0, 2, 3) == Fraction(81, 2)
    # p = 0 reduces to the closed coefficient
    for kind in K:
        for mu in range(1, 8):
            assert xi_derivative_coefficient(kind, 2, mu % 2, 0, mu) == \
                xi_closed_coefficient(kind, 2, mu % 2, mu)


def test_xi_derivative_matches_series():
    # the list-level d/dx against the TruncatedSeries reference and the
    # closed form, at every order up to 24
    top = 24
    for kind in K:
        for r in (1, 2, 3, 4):
            for i in range(r):
                for p in range(4):
                    s = xi_series(kind, r, i, top + p)
                    for _ in range(p):
                        s = _apply_d_dx(kind, s)
                    want = [s.coefficient(q=mu) for mu in range(top + 1)]
                    for order in range(top + 1):
                        got = xi_derivative_series(kind, r, i, p, order)
                        assert list(got) == want[:order + 1], (kind, r, i, p, order)
                    start = 1 if kind is K.STRICT else 0
                    for mu in range(start, top + 1):
                        assert want[mu] == xi_derivative_coefficient(kind, r, i, p, mu), \
                            (kind, r, i, p, mu)


def test_one_point_closed_forms():
    assert one_point_genus_zero(K.MONOTONE, 2, 1) == Fraction(1, 2)
    assert one_point_genus_zero(K.MONOTONE, 2, 2) == Fraction(factorial(4), factorial(4) * 2)
    assert one_point_genus_zero(K.STRICT, 2, 1) == Fraction(1, 2)


def test_check_F01():
    for kind in (K.MONOTONE, K.STRICT):
        for r in (1, 2, 3, 4):
            report = check_F01(kind, r, 14)
            assert report.passed, (kind, r, report.witness)
    with pytest.raises(ValueError):
        check_F01(K.USUAL, 1, 10)


def test_two_point_monotone_examples():
    assert two_point_monotone(2, 1, 3) == 2
    assert two_point_monotone(2, 2, 2) == Fraction(3, 2)
    assert two_point_monotone(2, 1, 2) == 0
    # r=1: both the character route and the Bergman expansion give 1
    assert two_point_monotone(1, 1, 1) == 1


def test_two_point_matches_character_route():
    for r in (1, 2, 3):
        for m1 in range(1, 8):
            for m2 in range(m1, 9 - m1):
                expected = hurwitz_number(HurwitzRequest(K.MONOTONE, r, 0, (m1, m2)))
                assert two_point_monotone(r, m1, m2) == expected, (r, m1, m2)


def test_closed_forms_against_character_route_at_degree_20_to_30():
    # past where the small sweeps reach: one-point genus 0 for both monotone
    # kinds at 20 <= r*q <= 30, two-point monotone genus 0 at d = 20, 24
    for kind in (K.MONOTONE, K.STRICT):
        for r in (1, 2, 3):
            for q in range(-(-20 // r), 30 // r + 1):
                got = hurwitz_number(HurwitzRequest(kind, r, 0, (r * q,)))
                assert got == one_point_genus_zero(kind, r, q), (kind, r, q)
    for d in (20, 24):
        for r in (1, 2, 3):
            if d % r:
                continue
            for m1 in (1, 5, d // 2):
                got = hurwitz_number(HurwitzRequest(K.MONOTONE, r, 0, (m1, d - m1)))
                assert got == two_point_monotone(r, m1, d - m1), (d, r, m1)


def test_case_identities():
    # worked examples: both sides 8 and both sides 3
    rep = check_case_identities(2, 1, 3)
    assert rep.passed
    lhs = 4 * sum(
        Fraction(factorial(1 + 0 + t - 1), factorial(1) * factorial(0 + t))
        * (2 * t - 1)
        * Fraction(factorial(3 + 1 - t), factorial(3) * factorial(1 + 1 - t))
        for t in range(1, 3))
    assert lhs == 8 == 2 * comb(1, 1) * comb(4, 3)
    rep = check_case_identities(2, 2, 2)
    assert rep.passed
    assert Fraction(comb(3, 2) * comb(3, 2), 3) == 3
    rep = check_case_identities(3, 1, 2)
    assert rep.passed
    with pytest.raises(ValueError):
        check_case_identities(2, 1, 2)


def test_check_bergman02():
    for r in (1, 2, 3):
        report = check_bergman02(r, 8)
        assert report.passed, (r, report.witness)


def plant_closed_forms(monkeypatch):
    """Add 1 to the closed (0,1) number at quotient 1 and the (0,2) one at (1,1)."""
    from hurwitz import spectral

    one_point, two_point = spectral.one_point_genus_zero, spectral.two_point_monotone
    monkeypatch.setattr(spectral, "one_point_genus_zero",
                        lambda kind, r, q: one_point(kind, r, q) + (q == 1))
    monkeypatch.setattr(spectral, "two_point_monotone",
                        lambda r, m1, m2: two_point(r, m1, m2) + ((m1, m2) == (1, 1)))


def test_checks_report_a_planted_closed_form(monkeypatch):
    plant_closed_forms(monkeypatch)
    # at r = 2 the first exponent with a closed (0,1) term is e = mu - 1 = 1,
    # where mu * h_mu = 2 * 1/2 becomes 2 * 3/2
    rep = check_F01(K.MONOTONE, 2, 6)
    assert not rep.passed
    assert rep.witness == {"exponent": 1, "curve_side": "1", "closed_side": "3"}
    rep = check_F01(K.STRICT, 2, 6)
    assert not rep.passed
    assert rep.witness == {"exponent": 1, "curve_side": "-1", "closed_side": "-3"}
    rep = check_bergman02(2, 6)
    assert not rep.passed
    assert rep.witness == {"mu1": 1, "mu2": 1, "series_side": "1", "two_point_side": "2"}
    rep = check_case_identities(2, 1, 1)
    assert not rep.passed
    assert rep.params == {"r": 2, "mu1": 1, "mu2": 1, "case": "I"}
    assert rep.witness == {"lhs": "4", "rhs": "2"}
    assert rep.to_json()["status"] == "FAIL"
    # the other profiles keep their closed forms
    assert check_case_identities(2, 1, 3).passed


def test_bergman_small_coefficients():
    # [x1 x2] coefficient at r=2 is 1 on both sides; parity kills (1,2)
    assert two_point_monotone(2, 1, 1) == 1
    assert two_point_monotone(2, 1, 2) == 0


# -- series-based references -------------------------------------------------
# The spectral layer once ran on TruncatedSeries: the forward maps built as
# series, reversion by powers of var/s, xi by series products and inverses,
# and the (0,2) log by a bivariate Horner scheme on the whole square of
# coefficients.  Those bodies are kept here as references for the
# coefficient-list code.


def reference_series_reversion(s, order):
    var = s.vars[0]
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


@lru_cache(maxsize=None)
def reference_curve_inverse_series(kind, r, order):
    z = TruncatedSeries.monomial("q", order=order)
    if kind is K.MONOTONE:
        forward = z - z ** (r + 1)
    elif kind is K.STRICT:
        forward = z * (1 + z ** r).invert()
    else:
        exp_coeffs = [Fraction((-1) ** j, factorial(j)) for j in range(order + 1)]
        forward = z * compose_univariate(exp_coeffs, z ** r)
    return reference_series_reversion(forward, order)


@lru_cache(maxsize=None)
def reference_xi_series(kind, r, i, order):
    z = reference_curve_inverse_series(kind, r, order + 2)
    if kind is K.MONOTONE:
        return _apply_d_dx(kind, z ** (i + 1) * Fraction(1, i + 1)).truncate({"q": order})
    if kind is K.STRICT:
        d = _apply_d_dx(kind, z ** (i + 1) * Fraction(1, i + 1))
        out = -(d * (z * z).invert())
        return out.truncate({"q": order})
    denom = 1 - r * z ** r
    return (z ** i * denom.invert()).truncate({"q": order})


@lru_cache(maxsize=None)
def reference_bergman_log(r, order):
    z = reference_curve_inverse_series(K.MONOTONE, r, order + 2)
    a = {e: z.coefficient(q=e) for e in range(1, order + 2)}
    # (z(x1)-z(x2))/(x1-x2) = sum_n a_n sum_{p+q=n-1} x1^p x2^q
    terms = {}
    for n_exp, c in a.items():
        if c == 0:
            continue
        for p in range(n_exp):
            terms[(p, n_exp - 1 - p)] = c
    g = TruncatedSeries(("x1", "x2"), terms, {"x1": order, "x2": order})
    g = truncate_total(g, order)
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j)
                                  for j in range(1, order + 1)]
    return truncate_total(compose_univariate(log_coeffs, g - 1), order)


def _same_series(a, b):
    return a.vars == b.vars and a.terms == b.terms and a.orders == b.orders


def test_curve_inverse_matches_series_reference():
    # every coefficient and the truncation order, every kind, r <= 4, order <= 24
    for kind in K:
        for r in range(1, 5):
            top = reference_curve_inverse_series(kind, r, 24)
            for order in range(2, 25):
                z = curve_inverse_series(kind, r, order)
                assert _same_series(z, top.truncate({"q": order})), (kind, r, order)
            for order in (2, 3, 7):
                assert _same_series(curve_inverse_series(kind, r, order),
                                    reference_curve_inverse_series(kind, r, order))


def test_xi_series_matches_series_reference():
    for kind in K:
        for r in range(1, 5):
            for i in range(r):
                top = reference_xi_series(kind, r, i, 24)
                for order in range(1, 25):
                    xi = xi_series(kind, r, i, order)
                    assert _same_series(xi, top.truncate({"q": order})), (kind, r, i, order)
                for order in (1, 2, 5):
                    assert _same_series(xi_series(kind, r, i, order),
                                        reference_xi_series(kind, r, i, order))


def test_bergman_log_matches_bivariate_reference():
    # every coefficient L[m1, m2], m1 >= 1, of the coefficient recurrence
    # against the Horner log, r <= 4, order <= 12
    for r in range(1, 5):
        top = reference_bergman_log(r, 12)
        for order in range(2, 13):
            log_g = _bergman_log(r, order)
            assert set(log_g) == {(m1, m2) for m1 in range(1, order + 1)
                                  for m2 in range(order + 1 - m1)}
            for (m1, m2), value in log_g.items():
                assert value == top.coefficient(x1=m1, x2=m2), (r, order, m1, m2)
        small = reference_bergman_log(r, 5)
        assert {k: v for k, v in _bergman_log(r, 5).items() if v} == \
            {e: c for e, c in small.terms.items() if e[0] >= 1}


def _inverse_anchor(kind, r, n):
    # Lagrange on phi = 1/(1 - w^r), 1 + w^r, e^{w^r}: [q^n] z, n = rk + 1
    k, rest = divmod(n - 1, r)
    if n < 1 or rest:
        return 0
    if kind is K.MONOTONE:
        return Fraction(comb((r + 1) * k, k), n)
    if kind is K.STRICT:
        return Fraction(comb(n, k), n)
    return Fraction(n) ** (k - 1) / factorial(k)


def test_curve_inverse_route_independent_anchors():
    # Fuss-Catalan, binomial and tree-function coefficients, r <= 5, order 30
    for kind in K:
        for r in range(1, 6):
            z = curve_inverse_series(kind, r, 30)
            for n in range(31):
                assert z.coefficient(q=n) == _inverse_anchor(kind, r, n), (kind, r, n)


@pytest.mark.parametrize("call", [
    lambda: curve_inverse_series(K.MONOTONE, 0, 6),
    lambda: xi_series(K.USUAL, 0, 0, 6),
    lambda: check_F01(K.MONOTONE, 0, 5),
    lambda: check_F01(K.STRICT, -2, 5),
    lambda: check_bergman02(0, 6),
    lambda: two_point_monotone(0, 1, 1),
    lambda: check_case_identities(0, 1, 1),
], ids=["curve_inverse_series", "xi_series", "check_F01", "check_F01-negative",
        "check_bergman02", "two_point_monotone", "check_case_identities"])
def test_spectral_api_rejects_r_below_one(call):
    with pytest.raises(ValueError, match=r"^r must be positive"):
        call()
