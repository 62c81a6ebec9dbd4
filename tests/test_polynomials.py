import itertools
import random
from fractions import Fraction

import pytest

from hurwitz.polynomials import MultiPolynomial, interpolate_on_grid


# -- reference: the recursive Newton interpolation the per-axis passes replaced,
# with the polynomial arithmetic it needs on exponent-vector -> coefficient dicts


def poly_add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + scale * c
    return {e: c for e, c in out.items() if c != 0}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def reference_interpolate(values: dict, nodes: list) -> dict:
    """Newton along the first axis, with polynomials in the other axes as values."""
    if not nodes:
        return {(): values[()]}
    xs, rest = nodes[0], nodes[1:]
    dd = [{(0,) + e: c for e, c in reference_interpolate(
               {p[1:]: v for p, v in values.items() if p[0] == x}, rest).items()}
          for x in xs]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diff = poly_add(dd[i], dd[i - 1], -1)
            dd[i] = {e: c * Fraction(1, xs[i] - xs[i - j]) for e, c in diff.items()}
    zero = (0,) * len(nodes)
    result: dict = {}
    basis = {zero: Fraction(1)}
    for j, coeff in enumerate(dd):
        result = poly_add(result, poly_mul(coeff, basis))
        basis = poly_mul(basis, {(1,) + zero[1:]: Fraction(1), zero: -Fraction(xs[j])})
    return result


def test_constant_recovery():
    samples = {(i,): Fraction(7) for i in range(1, 4)}
    poly = interpolate_on_grid(samples, 2)
    assert poly.terms == {(0,): Fraction(7)}
    assert poly.total_degree() == 0


def test_linear_recovery():
    samples = {(nu,): 2 * nu + 3 for nu in (1, 2)}
    poly = interpolate_on_grid(samples, 1)
    assert poly.evaluate((5,)) == 13
    assert poly.total_degree() == 1
    assert poly.terms == {(1,): Fraction(2), (0,): Fraction(3)}


def test_bivariate_recovery():
    def f(x, y):
        return Fraction(3) * x * x - 2 * x * y + y - 7

    samples = {(x, y): f(Fraction(x), Fraction(y))
               for x in (0, 1, 2) for y in (0, 1, 2)}
    poly = interpolate_on_grid(samples, 2)
    for x in range(-2, 5):
        for y in range(-2, 5):
            assert poly.evaluate((x, y)) == f(Fraction(x), Fraction(y))
    assert poly.total_degree() == 2


def test_zero_polynomial_degree():
    samples = {(x, y): Fraction(0) for x in (1, 2) for y in (1, 2)}
    poly = interpolate_on_grid(samples, 1)
    assert poly.is_zero()
    assert poly.total_degree() == -1


def test_grid_validation():
    with pytest.raises(ValueError):
        interpolate_on_grid({(1, 1): Fraction(0), (2, 2): Fraction(1)}, 1)
    with pytest.raises(ValueError):
        interpolate_on_grid({(1,): Fraction(0)}, 1)  # too few nodes


def test_polynomial_arithmetic_and_json():
    p = MultiPolynomial(("x", "y"), {(1, 0): Fraction(2), (0, 1): Fraction(1)})
    # (2x + y)^2, written out
    q = MultiPolynomial(("x", "y"), {(2, 0): 4, (1, 1): 4, (0, 2): 1, (0, 0): 0})
    assert q.evaluate((1, 1)) == 9
    assert q.total_degree() == 2
    assert (0, 0) not in q.terms
    assert p.to_json() == {"0,1": "1", "1,0": "2"}
    assert repr(p) == "MultiPolynomial(1*y^1 + 2*x^1)"


def random_grid(rng: random.Random, n: int, degree: int) -> tuple[dict, list]:
    """Values of a random polynomial of total degree <= degree on a tensor grid
    of shifted, unevenly spaced nodes, with degree + 1 or degree + 2 per axis."""
    monomials = [e for e in itertools.product(range(degree + 1), repeat=n)
                 if sum(e) <= degree]
    coeffs = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for e in monomials}
    nodes = []
    for _ in range(n):
        x, axis = rng.randint(-6, 6), []
        for _ in range(degree + 1 + rng.randint(0, 1)):
            axis.append(x)
            x += rng.randint(1, 4)
        nodes.append(axis)
    poly = MultiPolynomial([f"nu{i + 1}" for i in range(n)], coeffs)
    return {p: poly.evaluate(p) for p in itertools.product(*nodes)}, nodes


@pytest.mark.parametrize("n, degree", [(1, 0), (1, 5), (2, 2), (2, 5), (3, 1), (3, 4),
                                       (3, 5), (4, 2), (4, 3)])
@pytest.mark.parametrize("seed", range(2))
def test_matches_recursive_reference(n, degree, seed):
    samples, nodes = random_grid(random.Random(f"{n},{degree},{seed}"), n, degree)
    poly = interpolate_on_grid(samples, degree)
    assert poly.vars == tuple(f"nu{i + 1}" for i in range(n))
    assert poly.terms == reference_interpolate(samples, nodes)
    assert poly.total_degree() <= degree


def test_all_zero_grid_matches_reference():
    nodes = [[-3, 0, 4], [1, 2, 7], [5, 6, 9]]
    samples = {p: Fraction(0) for p in itertools.product(*nodes)}
    assert reference_interpolate(samples, nodes) == {}
    assert interpolate_on_grid(samples, 2).terms == {}
