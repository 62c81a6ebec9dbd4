"""Exact multivariate polynomials and tensor-grid Newton interpolation."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


class MultiPolynomial:
    """Polynomial in named variables, stored as exponent-vector -> coefficient."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.vars = tuple(variables)
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "MultiPolynomial":
        zero = (0,) * len(variables)
        return cls(variables, {zero: Fraction(c)})

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPolynomial(self.vars, terms)

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        return self + (other * Fraction(-1))

    def __mul__(self, other):
        if not isinstance(other, MultiPolynomial):
            c = Fraction(other)
            return MultiPolynomial(self.vars, {e: v * c for e, v in self.terms.items()})
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        terms: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return MultiPolynomial(self.vars, terms)

    __rmul__ = __mul__

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
    sets, with at least degree_cap + 1 nodes per axis.
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
    values = {p: Fraction(v) for p, v in samples.items()}
    return _interpolate(values, nodes, tuple(f"nu{i + 1}" for i in range(n)))


def _interpolate(values: Mapping[tuple, Fraction], nodes: list, variables: tuple) -> MultiPolynomial:
    if not nodes:
        return MultiPolynomial(variables, {(): values[()]})
    axis_nodes = nodes[0]
    rest = nodes[1:]
    subpolys = []
    for x in axis_nodes:
        sub = {p[1:]: v for p, v in values.items() if p[0] == x}
        subpolys.append(_lift(_interpolate(sub, rest, variables[1:]), variables))
    # divided differences along the first axis, with polynomial values
    dd = list(subpolys)
    for j in range(1, len(axis_nodes)):
        for i in range(len(axis_nodes) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * Fraction(1, axis_nodes[i] - axis_nodes[i - j])
    result = MultiPolynomial.constant(variables, 0)
    basis = MultiPolynomial.constant(variables, 1)
    x_var = MultiPolynomial(variables, {(1,) + (0,) * (len(variables) - 1): 1})
    for j, coeff_poly in enumerate(dd):
        result = result + coeff_poly * basis
        if j + 1 < len(dd):
            shift = MultiPolynomial.constant(variables, -Fraction(axis_nodes[j]))
            basis = basis * (x_var + shift)
    return result


def _lift(poly: MultiPolynomial, variables: tuple) -> MultiPolynomial:
    """Embed a polynomial in variables[1:] into the full variable list."""
    return MultiPolynomial(variables, {(0,) + e: c for e, c in poly.terms.items()})
