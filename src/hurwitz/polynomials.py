"""Exact multivariate polynomials and tensor-grid Newton interpolation, in integers."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Mapping, Sequence


def _rational(x) -> Fraction | int:
    """x itself when it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


class MultiPolynomial:
    """Polynomial in named variables as exponent vector -> coefficient; no arithmetic."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.vars = tuple(variables)
        self.terms = {tuple(e): c if isinstance(c, Fraction) else Fraction(c)
                      for e, c in terms.items() if c != 0}

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at point, summed in integers over one common denominator."""
        values = [_rational(x) for x in point]
        scale = lcm(*(x.denominator for x in values))
        nums = [x.numerator * (scale // x.denominator) for x in values]
        top, den = max(self.total_degree(), 0), lcm(*(c.denominator for c in self.terms.values()))
        return Fraction(sum(c.numerator * (den // c.denominator) * scale ** (top - sum(e))
                            * prod(map(pow, nums, e)) for e, c in self.terms.items()),
                        den * scale ** top)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        """Exponent vector (comma-joined) -> "p/q" strings, sorted."""
        return {",".join(map(str, e)): str(self.terms[e])
                for e in sorted(self.terms)}

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPolynomial(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.vars, e) if k)
            bits.append(f"{self.terms[e]}" + (f"*{mono}" if mono else ""))
        return "MultiPolynomial(" + " + ".join(bits) + ")"


def interpolate_on_grid(samples: Mapping[tuple, object], degree_cap: int) -> MultiPolynomial:
    """Exact Newton interpolation of samples on a full tensor grid.

    `samples` maps lattice points (tuples of integers, one entry per axis)
    to rational values; the grid must be the full cartesian product of the
    per-axis node sets, with at least degree_cap + 1 nodes per axis.  The
    values, as integers over their common denominator in the grid's product
    order, go through one pass per axis: each grid line along it becomes the
    monomial coefficients of its interpolant times the axis's scale
    (`_line_coefficients`), node k becoming exponent k.  Only the nonzero
    coefficients are made Fractions, in the variables nu1..nun.
    """
    points = list(samples)
    if not points:
        raise ValueError("no samples")
    n = len(points[0])
    nodes = [sorted({p[i] for p in points}) for i in range(n)]
    expected = 1
    for ax in nodes:
        if len(ax) < degree_cap + 1:
            raise ValueError(f"need at least {degree_cap + 1} nodes per axis")
        expected *= len(ax)
    if len(points) != expected:
        raise ValueError("samples do not form a full tensor grid")
    values = [_rational(samples[p]) for p in itertools.product(*nodes)]
    den = lcm(*(v.denominator for v in values))
    grid = [v.numerator * (den // v.denominator) for v in values]
    stride = expected
    for xs in nodes:
        # the lines along this axis start at every index whose entry on it is 0
        block, stride = stride, stride // len(xs)
        scale = lcm(*(prod(x - y for y in xs if y != x) for x in xs))
        den *= scale
        for outer in range(0, expected, block):
            for start in range(outer, outer + stride):
                line = slice(start, start + block, stride)
                grid[line] = _line_coefficients(xs, [y * scale for y in grid[line]])
    exponents = itertools.product(*(range(len(ax)) for ax in nodes))
    return MultiPolynomial(tuple(f"nu{i + 1}" for i in range(n)),
                           {e: Fraction(c, den) for e, c in zip(exponents, grid) if c})


def _line_coefficients(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients, constant first, of the polynomial through (xs[k], ys[k]), in integers.

    Divided differences give the Newton form; Horner in the Newton basis
    expands it, multiplying by (x - xs[j]) from the top coefficient down.
    Each ys[k] must be a multiple of w = lcm_k prod_{l != k} (xs[k] - xs[l]): the
    products over a run of nodes divide those, so every division is exact.
    """
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) // (xs[i] - xs[i - j])
    out = [dd[-1]]
    for x, d in zip(xs[-2::-1], dd[-2::-1]):
        out = [d - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out
