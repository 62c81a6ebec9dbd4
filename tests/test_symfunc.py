from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

from hypothesis import given, settings, strategies as st

from hurwitz.symfunc import complete_coeffs, elementary_coeffs, sym_poly, stirling


def h_bruteforce(k, values):
    return sum((prod(c) for c in combinations_with_replacement(values, k)), Fraction(0))


def sigma_bruteforce(k, values):
    return sum((prod(c) for c in combinations(values, k)), Fraction(0))


def test_sym_poly_examples():
    assert sym_poly("complete", 2, [1, 2]) == 7  # 1 + 2 + 4
    assert sym_poly("elementary", 2, [1, 2, 3]) == 11  # 2 + 3 + 6
    assert sym_poly("elementary", 4, [1, 2, 3]) == 0  # k exceeds variable count
    assert sym_poly("complete", 0, []) == 1
    assert sym_poly("elementary", 0, [5]) == 1


def test_sym_poly_against_bruteforce():
    values = [Fraction(1, 2), -2, 3, Fraction(-1, 3)]
    for k in range(6):
        assert sym_poly("complete", k, values) == h_bruteforce(k, values)
        assert sym_poly("elementary", k, values) == sigma_bruteforce(k, values)


def test_integer_inputs_give_integer_coefficients():
    for values in ([], [0], [3], [-1, 0, 2], [-3, -2, -1, 0, 1, 2], [5, 5, -7, 1]):
        fractions = [Fraction(v) for v in values]
        for coeffs in (complete_coeffs, elementary_coeffs):
            ints = coeffs(values, 7)
            assert all(type(c) is int for c in ints), (coeffs, values)
            assert ints == coeffs(fractions, 7), (coeffs, values)
        for k in range(8):
            for kind in ("complete", "elementary"):
                assert type(sym_poly(kind, k, values)) is Fraction, (kind, k, values)


def reference_elementary_coeffs(values, order):
    """sigma_0..sigma_order with every pass run down from min(order, len(values))."""
    coeffs = [1] + [0] * order
    for x in values:
        if x == 0:
            continue
        for j in range(min(order, len(values)), 0, -1):
            coeffs[j] += x * coeffs[j - 1]
    return coeffs


@given(st.lists(st.integers(min_value=-4, max_value=4), max_size=14),
       st.integers(min_value=0, max_value=16))
@settings(max_examples=200, deadline=None)
def test_elementary_coeffs_match_full_length_passes(values, order):
    # values drawn from a small range, so zeros and repeats are common
    assert elementary_coeffs(values, order) == reference_elementary_coeffs(values, order)


def test_elementary_coeffs_with_zeros_and_repeats():
    for values in ([0, 0, 3, 0, 3, -1], [2, 2, 2, 0, 0, 0, 0], [0] * 5, [-1, 0, 1] * 4):
        for order in range(12):
            got = elementary_coeffs(values, order)
            assert got == reference_elementary_coeffs(values, order), (values, order)


def test_stirling_examples():
    # T(T+1)(T+2) = T^3 + 3T^2 + 2T
    assert stirling("first", 3, 2) == 3
    assert stirling("second", 4, 2) == 7
    assert stirling("first", 2, 5) == 0  # t > j


def test_stirling_small_tables():
    first = {(0, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1,
             (3, 1): 2, (3, 2): 3, (3, 3): 1,
             (4, 1): 6, (4, 2): 11, (4, 3): 6, (4, 4): 1}
    second = {(0, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1,
              (3, 1): 1, (3, 2): 3, (3, 3): 1,
              (4, 1): 1, (4, 2): 7, (4, 3): 6, (4, 4): 1}
    for (j, t), v in first.items():
        assert stirling("first", j, t) == v
    for (j, t), v in second.items():
        assert stirling("second", j, t) == v


def test_stirling_row_sums():
    # sum_t c(j,t) = j!  (rising factorial at T=1)
    from math import factorial
    for j in range(8):
        assert sum(stirling("first", j, t) for t in range(j + 1)) == factorial(j)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(rationals, min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_duality_identity(values):
    # sum_{l=0..k} (-1)^l h_{k-l} sigma_l = 0 for k >= 1
    for k in range(1, 9):
        total = sum((-1) ** l * sym_poly("complete", k - l, values)
                    * sym_poly("elementary", l, values)
                    for l in range(k + 1))
        assert total == 0


def binom_general(m, i):
    """Generalized binomial m(m-1)...(m-i+1)/i!, valid for negative m."""
    num = Fraction(1)
    for j in range(i):
        num *= m - j
    return num / factorial(i)


@given(st.lists(rationals, min_size=1, max_size=5),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_offset_identities(values, a):
    n = len(values)
    shifted = [v + a for v in values]
    for k in range(7):
        lhs_h = sym_poly("complete", k, shifted)
        rhs_h = sum(comb(k + n - 1, i) * sym_poly("complete", k - i, values) * Fraction(a) ** i
                    for i in range(k + 1))
        assert lhs_h == rhs_h
        lhs_s = sym_poly("elementary", k, shifted)
        rhs_s = sum(binom_general(n + i - k, i) * sym_poly("elementary", k - i, values)
                    * Fraction(a) ** i for i in range(k + 1))
        assert lhs_s == rhs_s


def test_stirling_symmetric_polynomial_links():
    # sigma_v(1..t-1) = c(t, t-v) and h_v(1..t) = S(t+v, t)
    for t in range(1, 9):
        for v in range(9):
            assert sym_poly("elementary", v, range(1, t)) == stirling("first", t, t - v)
            assert sym_poly("complete", v, range(1, t + 1)) == stirling("second", t + v, t)


def test_stirling_generating_series():
    # c(j,t) = [y^{j-t}] (j-1)!/(t-1)! S(y)^{-j} e^{yj/2}
    # S(j,t) = [y^{j-t}] j!/t!     S(y)^{t}  e^{yt/2}
    from hurwitz.series import elementary_series, exp_series
    order = 8
    s_pow = {}
    for j in range(1, 9):
        for t in range(1, j + 1):
            if -j not in s_pow:
                s_pow[-j] = elementary_series("S", "y", order + 2) ** (-j)
            if t not in s_pow:
                s_pow[t] = elementary_series("S", "y", order + 2) ** t
            first = s_pow[-j] * exp_series("y", Fraction(j, 2), order)
            val = Fraction(factorial(j - 1), factorial(t - 1)) * first.coefficient(y=j - t)
            assert val == stirling("first", j, t), (j, t)
            second = s_pow[t] * exp_series("y", Fraction(t, 2), order)
            val = Fraction(factorial(j), factorial(t)) * second.coefficient(y=j - t)
            assert val == stirling("second", j, t), (j, t)
