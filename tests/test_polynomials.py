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


# -- reference: the per-axis Newton pass in Fraction arithmetic that the
# integer pass over one common denominator replaced


def monomial_coefficients(xs, ys):
    """Coefficients, constant first, of the polynomial through (xs[k], ys[k])."""
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    out = [dd[-1]]
    for x, d in zip(xs[-2::-1], dd[-2::-1]):
        out = [d - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def fraction_interpolate(samples: dict) -> dict:
    """Exponent vector -> nonzero Fraction coefficient of the full-grid interpolant."""
    n = len(next(iter(samples)))
    nodes = [sorted({p[i] for p in samples}) for i in range(n)]
    coeffs = {p: Fraction(v) for p, v in samples.items()}
    for axis, xs in enumerate(nodes):
        lines: dict = {}
        for p, v in coeffs.items():
            lines.setdefault(p[:axis] + p[axis + 1:], {})[p[axis]] = v
        coeffs = {}
        for rest, line in lines.items():
            for k, c in enumerate(monomial_coefficients(xs, [line[x] for x in xs])):
                coeffs[rest[:axis] + (k,) + rest[axis:]] = c
    return {e: c for e, c in coeffs.items() if c != 0}


def fraction_evaluate(terms: dict, point) -> Fraction:
    """sum of c * prod x^e in Fraction arithmetic."""
    total = Fraction(0)
    for exp, c in terms.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= Fraction(x) ** e
        total += term
    return total


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


NODE_SETS = {
    "consecutive": lambda rng, size: list(range(1, size + 1)),
    "gapped": lambda rng, size: sorted(rng.sample(range(0, 40), size)),
    "negative": lambda rng, size: sorted(rng.sample(range(-30, 0), size - 1)) + [rng.randint(0, 5)],
}
VALUES = {
    "int": lambda rng: rng.randint(-10 ** 6, 10 ** 6),
    "fraction": lambda rng: Fraction(rng.randint(-999, 999), rng.randint(1, 720)),
    "zero": lambda rng: 0,
}


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("node_set", NODE_SETS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_pass_matches_fraction_references(n, node_set, values):
    # any values on a full grid: the interpolant has degree < len(xs) per axis
    rng = random.Random(f"{n},{node_set},{values}")
    for _ in range(3):
        nodes = [NODE_SETS[node_set](rng, rng.randint(1, 5 - n // 2)) for _ in range(n)]
        samples = {p: VALUES[values](rng) for p in itertools.product(*nodes)}
        poly = interpolate_on_grid(samples, min(map(len, nodes)) - 1)
        assert poly.terms == fraction_interpolate(samples) == reference_interpolate(samples, nodes)
        assert all(type(c) is Fraction for c in poly.terms.values())
        for p in list(samples)[:5]:
            assert poly.evaluate(p) == samples[p]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_matches_fraction_reference(n):
    rng = random.Random(n)
    for _ in range(20):
        terms = {tuple(rng.randint(0, 4) for _ in range(n)):
                 Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(rng.randint(0, 6))}
        poly = MultiPolynomial([f"x{i}" for i in range(n)], terms)
        ints = tuple(rng.randint(-9, 9) for _ in range(n))
        fractions = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n))
        for point in (ints, fractions, tuple(map(Fraction, ints))):
            value = poly.evaluate(point)
            assert type(value) is Fraction
            assert value == fraction_evaluate(terms, point), (terms, point)
