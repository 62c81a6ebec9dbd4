"""Quasi-polynomiality verification.

For 2g-2+n > 0 each kind of orbifold Hurwitz number factors as an explicit
per-entry prefactor times a polynomial of total degree at most 3g-3+n in the
quotients [mu_i], with coefficients depending only on the residues <mu_i>.
The verifier samples the normalized numbers on an integer tensor grid in the
quotients, interpolates exactly, checks the degree bound, and re-predicts
held-out lattice points.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .counts import HurwitzRequest, hurwitz_number
from .kinds import HurwitzKind, check_r
from .polynomials import MultiPolynomial, interpolate_on_grid
from .spectral import xi_closed_coefficient


def prefactor(kind: HurwitzKind, r: int, mu: int) -> Fraction:
    """Per-entry non-polynomial factor of the quasi-polynomial form.

    The closed-form coefficient of xi_{mu mod r} at mu: binom(mu+[mu], mu)
    for monotone, binom(mu-1, [mu]) for strictly monotone, mu^[mu]/[mu]! for
    usual (the residue-dependent constant r^{<mu>/r} is absorbed into the
    polynomial).
    """
    check_r(r)
    if mu < 1:
        raise ValueError("mu must be positive")
    return xi_closed_coefficient(kind, r, mu % r, mu)


class QuasiPolyReport:
    """One residue class's verdict; the verifier fills it in as it runs.

    grid holds (point, normalized value) pairs and holdouts (point,
    expected, predicted, ok) tuples, each a new list unless one is given.
    """

    def __init__(self, kind: HurwitzKind, r: int, g: int, n: int,
                 residues: tuple[int, ...], degree_bound: int, passed: bool,
                 trivial: bool = False, reason: str | None = None,
                 polynomial: MultiPolynomial | None = None,
                 observed_degree: int | None = None, grid: list | None = None,
                 holdouts: list | None = None):
        self.kind, self.r, self.g, self.n = kind, r, g, n
        self.residues, self.degree_bound, self.passed = residues, degree_bound, passed
        self.trivial, self.reason = trivial, reason
        self.polynomial, self.observed_degree = polynomial, observed_degree
        self.grid = [] if grid is None else grid
        self.holdouts = [] if holdouts is None else holdouts

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "r": self.r,
            "g": self.g,
            "n": self.n,
            "residues": list(self.residues),
            "degree_bound": self.degree_bound,
            "status": "PASS" if self.passed else "FAIL",
            "trivial": self.trivial,
            "reason": self.reason,
            "observed_degree": self.observed_degree,
            "polynomial": self.polynomial.to_json() if self.polynomial else None,
            "grid": [[list(p), str(v)] for p, v in self.grid],
            "holdouts": [{"point": list(p), "expected": str(e), "predicted": str(q),
                          "ok": ok} for p, e, q, ok in self.holdouts],
        }


def _normalized_value(kind: HurwitzKind, r: int, g: int, mus: tuple[int, ...]) -> Fraction | None:
    """h / prod(prefactor); None flags h != 0 against a vanishing prefactor."""
    h = hurwitz_number(HurwitzRequest(kind, r, g, mus))
    denom = Fraction(1)
    for mu in mus:
        denom *= prefactor(kind, r, mu)
    if denom == 0:
        return Fraction(0) if h == 0 else None
    return h / denom


def verify_quasipolynomiality(kind: HurwitzKind, r: int, g: int, n: int,
                              residues, grid_base: int = 1,
                              holdout_count: int = 3) -> QuasiPolyReport:
    """Interpolate normalized numbers in the quotients and check the degree bound.

    PASS requires interpolant total degree <= 3g-3+n and exact prediction of
    every holdout point.  Residue classes with sum not divisible by r carry
    no nonzero numbers at all; they report trivially as PASS-empty.  r < 1,
    n < 1, holdout_count < 1 or a grid entry r*grid_base + eta_i < 1 raises
    ValueError.
    """
    residues = tuple(residues)
    check_r(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(residues) != n or any(not 0 <= e < r for e in residues):
        raise ValueError("residues must be n integers in [0, r)")
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable range requires 2g-2+n > 0")
    if holdout_count < 1:
        raise ValueError(f"holdout_count must be >= 1, got {holdout_count}")
    if r * grid_base + min(residues) < 1:
        raise ValueError(f"grid_base {grid_base} gives an entry r*nu + eta_i < 1")
    degree_bound = 3 * g - 3 + n
    report = QuasiPolyReport(kind=kind, r=r, g=g, n=n, residues=residues,
                             degree_bound=degree_bound, passed=True)
    if sum(residues) % r != 0:
        report.trivial = True
        report.reason = "sum of residues not divisible by r: all numbers vanish"
        return report

    def mu_of(point):
        return tuple(r * nu + e for nu, e in zip(point, residues))

    width = degree_bound + 1
    axes = [range(grid_base, grid_base + width)] * n
    grid_points = [tuple(p) for p in itertools.product(*axes)]
    samples = {}
    for point in grid_points:
        value = _normalized_value(kind, r, g, mu_of(point))
        if value is None:
            report.passed = False
            report.reason = f"nonzero number against vanishing prefactor at {point}"
            return report
        samples[point] = value
        report.grid.append((point, value))
    poly = interpolate_on_grid(samples, degree_bound)
    report.polynomial = poly
    report.observed_degree = poly.total_degree()
    if poly.total_degree() > degree_bound:
        report.passed = False
        report.reason = (f"interpolant degree {poly.total_degree()} exceeds "
                         f"bound {degree_bound}")
        return report
    for j in range(holdout_count):
        axis, bump = j % n, grid_base + width + j // n
        point = tuple(bump if i == axis else grid_base for i in range(n))
        expected = _normalized_value(kind, r, g, mu_of(point))
        if expected is None:
            report.passed = False
            report.reason = f"nonzero number against vanishing prefactor at {point}"
            return report
        predicted = poly.evaluate(point)
        ok = predicted == expected
        report.holdouts.append((point, expected, predicted, ok))
        if not ok:
            report.passed = False
            report.reason = f"holdout mismatch at {point}"
    return report


def admissible_residue_classes(r: int, n: int):
    """All residue tuples with sum divisible by r (the nonvanishing classes)."""
    out = []
    for combo in itertools.product(range(r), repeat=n):
        if sum(combo) % r == 0:
            out.append(tuple(combo))
    return out

