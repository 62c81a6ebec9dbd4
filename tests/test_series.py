from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.series import (
    TruncatedSeries,
    compose_univariate,
    elementary_series,
    exp_linear,
    exp_series,
    series_reversion,
    zeta_of_linear,
)


def poly(var, coeffs, order=None):
    """Series sum coeffs[e] * var^e from a dict."""
    return TruncatedSeries((var,), {(e,): c for e, c in coeffs.items()},
                           {var: order} if order is not None else {})


def test_basic_arithmetic():
    x = TruncatedSeries.monomial("x")
    s = (1 + x) * (1 - x)
    assert s.coefficient(x=0) == 1
    assert s.coefficient(x=1) == 0
    assert s.coefficient(x=2) == -1
    t = (1 + x) ** 3
    assert [t.coefficient(x=k) for k in range(4)] == [1, 3, 3, 1]


def test_multivariate_product():
    x = TruncatedSeries.monomial("x")
    y = TruncatedSeries.monomial("y")
    s = (x + y) ** 2
    assert s.coefficient(x=1, y=1) == 2
    assert s.coefficient(x=2) == 1
    assert s.coefficient(y=2) == 1


def test_truncation_order_propagation():
    # product of two series known through order 5; one has valuation -1
    z = "z"
    a = elementary_series("zeta", z, 7)
    b = elementary_series("inv_zeta", z, 5)
    p = a * b
    # b is exact through z^5, a through z^7; product exact through min(7-1, 5+1) = 6
    assert p.order_of(z) == 6
    for e in range(0, 7):
        assert p.coefficient(z=e) == (1 if e == 0 else 0)
    with pytest.raises(ValueError):
        p.coefficient(z=7)


def test_zeta_expansion():
    # zeta(z) = 2 sinh(z/2): z + z^3/24 + z^5/1920
    zeta = elementary_series("zeta", "z", 6)
    expected = {1: Fraction(1), 3: Fraction(1, 24), 5: Fraction(1, 1920)}
    for e in range(7):
        assert zeta.coefficient(z=e) == expected.get(e, 0)


def test_S_expansion():
    s = elementary_series("S", "z", 5)
    expected = {0: Fraction(1), 2: Fraction(1, 24), 4: Fraction(1, 1920)}
    for e in range(6):
        assert s.coefficient(z=e) == expected.get(e, 0)


def test_inv_zeta_expansion():
    inv = elementary_series("inv_zeta", "z", 3)
    expected = {-1: Fraction(1), 1: Fraction(-1, 24), 3: Fraction(7, 5760)}
    for e in range(-1, 4):
        assert inv.coefficient(z=e) == expected.get(e, 0)


def test_inverse_roundtrip():
    for name in ("zeta", "S"):
        s = elementary_series(name, "z", 9)
        p = s * s.invert()
        for e in range(0, p.order_of("z") + 1):
            assert p.coefficient(z=e) == (1 if e == 0 else 0), (name, e)


def test_invert_requires_monomial_lowest_term():
    x = TruncatedSeries.monomial("x", order=4)
    y = TruncatedSeries.monomial("y", order=4)
    with pytest.raises(ValueError):
        (x + y).invert()


def test_exp_series_and_linear():
    e = exp_series("z", Fraction(3, 2), 4)
    for j in range(5):
        assert e.coefficient(z=j) == Fraction(3, 2) ** j / factorial(j)
    # exp(z + w) = exp(z) exp(w)
    ezw = exp_linear({"z": 1, "w": 1}, {"z": 3, "w": 3})
    assert ezw.coefficient(z=1, w=2) == Fraction(1, 2)
    assert ezw.coefficient(z=2, w=2) == Fraction(1, 4)


def test_zeta_of_linear_is_odd():
    s = zeta_of_linear({"z": 1, "w": -2}, {"z": 4, "w": 4})
    # zeta is odd: even total degrees vanish
    for exp, c in s.terms.items():
        assert sum(exp) % 2 == 1
    assert s.coefficient(z=1) == 1
    assert s.coefficient(w=1) == -2


def test_reversion_identity():
    x = TruncatedSeries.monomial("x", order=8)
    rev = series_reversion(x, 8)
    assert rev.terms == {(1,): Fraction(1)}


def test_reversion_catalan():
    # x = z(1-z): inverse z = x + x^2 + 2x^3 + 5x^4 + 14x^5 (Catalan numbers)
    z = TruncatedSeries.monomial("x", order=8)
    s = z - z * z
    rev = series_reversion(s, 6)
    catalan = [1, 1, 2, 5, 14, 42]
    for n, c in enumerate(catalan, start=1):
        assert rev.coefficient(x=n) == c
    # compose check: s(rev(x)) = x
    coeffs = [s.coefficient(x=e) for e in range(7)]
    back = compose_univariate(coeffs, rev)
    for e in range(1, 7):
        assert back.coefficient(x=e) == (1 if e == 1 else 0)


def test_reversion_odd_curve():
    # x = z(1-z^2): z = x + x^3 + 3x^5 + ..., coefficients (3k)!/(k!(2k+1)!)
    z = TruncatedSeries.monomial("x", order=9)
    s = z - z ** 3
    rev = series_reversion(s, 9)
    for k in range(4):
        expected = Fraction(factorial(3 * k), factorial(k) * factorial(2 * k + 1))
        assert rev.coefficient(x=2 * k + 1) == expected
    for e in (2, 4, 6, 8):
        assert rev.coefficient(x=e) == 0


def test_reversion_rejects_bad_input():
    with pytest.raises(ValueError):
        series_reversion(TruncatedSeries.monomial("x", 2, order=5), 4)
    s = 2 * TruncatedSeries.monomial("x", order=3)
    with pytest.raises(ValueError):
        series_reversion(s, 5)  # order too small


def test_scale_and_substitute_merge():
    s = exp_series("z", 1, 5)
    doubled = s.scale_var("z", 2)
    for j in range(6):
        assert doubled.coefficient(z=j) == Fraction(2 ** j, factorial(j))
    # exp(2u)*exp(3u) = exp(5u): scaled copies in one variable merge under product
    prod = exp_series("u", 1, 4).scale_var("u", 2) * exp_series("u", 1, 4).scale_var("u", 3)
    for j in range(5):
        assert prod.coefficient(u=j) == Fraction(5 ** j, factorial(j))


def test_substitute_merge_with_pole():
    inv = elementary_series("inv_zeta", "u", 4).scale_var("u", Fraction(1, 2))
    # 1/zeta(u/2) has residue 2 at u=0
    assert inv.coefficient(u=-1) == 2


def test_differentiate():
    s = poly("x", {0: Fraction(1), 2: Fraction(3), 5: Fraction(1, 2)}, order=6)
    d = s.differentiate("x")
    assert d.coefficient(x=1) == 6
    assert d.coefficient(x=4) == Fraction(5, 2)
    assert d.order_of("x") == 5


def test_truncate_total():
    s = (1 + TruncatedSeries.monomial("x") + TruncatedSeries.monomial("y")) ** 3
    t = s.truncate_total(2)
    assert all(sum(e) <= 2 for e in t.terms)
    assert t.coefficient(x=1, y=1) == 6


def test_compose_univariate_log():
    # log(1+x) o (e^x - 1) = x
    n = 6
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]
    em1 = exp_series("x", 1, n) - 1
    composed = compose_univariate(log_coeffs, em1)
    for e in range(n + 1):
        assert composed.coefficient(x=e) == (1 if e == 1 else 0)


coeff_strategy = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def invertible_series(draw):
    val = draw(st.integers(min_value=-1, max_value=2))
    order = draw(st.integers(min_value=val + 1, max_value=val + 6))
    lead = draw(coeff_strategy.filter(lambda c: c != 0))
    terms = {(val,): lead}
    for e in range(val + 1, order + 1):
        c = draw(coeff_strategy)
        if c:
            terms[(e,)] = c
    return TruncatedSeries(("z",), terms, {"z": order})


@given(invertible_series())
@settings(max_examples=60, deadline=None)
def test_inverse_contract_randomized(s):
    p = s * s.invert()
    n = p.order_of("z")
    assert n is not None
    for e in range(0, n + 1):
        assert p.coefficient(z=e) == (1 if e == 0 else 0)


@st.composite
def reversible_series(draw):
    order = draw(st.integers(min_value=3, max_value=8))
    c1 = draw(coeff_strategy.filter(lambda c: c != 0))
    terms = {(1,): c1}
    for e in range(2, order + 1):
        c = draw(coeff_strategy)
        if c:
            terms[(e,)] = c
    return TruncatedSeries(("x",), terms, {"x": order})


@given(reversible_series())
@settings(max_examples=60, deadline=None)
def test_reversion_contract_randomized(s):
    order = s.order_of("x")
    rev = series_reversion(s, order)
    coeffs = [s.coefficient(x=e) for e in range(order + 1)]
    back = compose_univariate(coeffs, rev)
    for e in range(1, order + 1):
        assert back.coefficient(x=e) == (1 if e == 1 else 0)


def test_elementary_series_error_contract():
    with pytest.raises(ValueError):
        elementary_series("zeta", "z", 0)
    with pytest.raises(ValueError):
        elementary_series("cosh", "z", 4)
