"""Exact multivariate polynomials and tensor-grid Newton interpolation."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


class MultiPolynomial:
    """Polynomial in named variables as exponent vector -> coefficient; no arithmetic."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.vars = tuple(variables)
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}

    def evaluate(self, point: Sequence) -> Fraction:
        values = [Fraction(x) for x in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for x, e in zip(values, exp):
                term *= x ** e
            total += term
        return total

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

    `samples` maps lattice points (tuples, one entry per axis) to rational
    values; the grid must be the full cartesian product of the per-axis node
    sets, with at least degree_cap + 1 nodes per axis.  One pass per axis
    replaces every grid line along it by the monomial coefficients of its
    one-variable interpolant; after the last pass the keys are exponent
    vectors in the variables nu1..nun.
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
    coeffs = {p: Fraction(v) for p, v in samples.items()}
    for axis, xs in enumerate(nodes):
        # each line along this axis trades its values for the monomial
        # coefficients of its interpolant: node xs[k] becomes exponent k
        lines: dict[tuple, dict] = {}
        for p, v in coeffs.items():
            lines.setdefault(p[:axis] + p[axis + 1:], {})[p[axis]] = v
        coeffs = {}
        for rest, line in lines.items():
            for k, c in enumerate(_monomial_coefficients(xs, [line[x] for x in xs])):
                coeffs[rest[:axis] + (k,) + rest[axis:]] = c
    return MultiPolynomial(tuple(f"nu{i + 1}" for i in range(n)), coeffs)


def _monomial_coefficients(xs: Sequence[int], ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial through (xs[k], ys[k]).

    Divided differences give the Newton form; Horner in the Newton basis
    expands it, multiplying by (x - xs[j]) from the top coefficient down.
    """
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    out = [dd[-1]]
    for x, d in zip(xs[-2::-1], dd[-2::-1]):
        out = [d - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out
