"""Quasi-polynomiality verification.

For 2g-2+n > 0 each kind of orbifold Hurwitz number factors as an explicit
per-entry prefactor times a polynomial of total degree at most 3g-3+n in the
quotients [mu_i], with coefficients depending only on the residues <mu_i>.
The verifier takes four steps in integers: the points (a tensor grid in the
quotients, streamed, then holdouts off it); the numbers, each the integer
pair of `counts.number_pair` over those of its prefactors, made the one
Fraction the report reads; the fit (`polynomials.interpolate_on_grid`, a
Fraction per coefficient); and the checks, the degree bound and each holdout
against the fit's value there (`MultiPolynomial.evaluate`, one Fraction).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .counts import number_pair
from .kinds import HurwitzKind, check_r, entry_coefficient
from .polynomials import MultiPolynomial, interpolate_on_grid


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
    return Fraction(*entry_coefficient(kind, r, mu))


class QuasiPolyReport:
    """One residue class's verdict; the verifier fills it in as it runs.

    grid holds (point, normalized value) pairs and holdouts (point,
    expected, predicted, ok) tuples.
    """

    def __init__(self, kind: HurwitzKind, r: int, g: int, n: int,
                 residues: tuple[int, ...], degree_bound: int, passed: bool):
        self.kind, self.r, self.g, self.n = kind, r, g, n
        self.residues, self.degree_bound, self.passed = residues, degree_bound, passed
        self.trivial, self.reason = False, None
        self.polynomial: MultiPolynomial | None = None
        self.observed_degree: int | None = None
        self.grid, self.holdouts = [], []

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


def _normalized_numbers(kind: HurwitzKind, r: int, g: int, residues: tuple[int, ...], points):
    """(point, h / prod of prefactors) at each point, mu_i = r * nu_i + residues[i].

    The value is the point's one Fraction; None flags h != 0 against a
    vanishing prefactor.
    """
    for point in points:
        mus = tuple(r * nu + e for nu, e in zip(point, residues))
        num, den = number_pair(kind, r, g, mus)
        for mu in mus:
            factor, below = entry_coefficient(kind, r, mu)
            num, den = num * below, den * factor
        yield point, Fraction(num, den) if den else (Fraction(0) if num == 0 else None)


def verify_quasipolynomiality(kind: HurwitzKind, r: int, g: int, n: int,
                              residues, grid_base: int = 1,
                              holdout_count: int = 3) -> QuasiPolyReport:
    """Interpolate normalized numbers in the quotients and check the degree bound.

    PASS requires interpolant total degree <= 3g-3+n and exact prediction of
    every holdout point.  Residue classes with sum not divisible by r carry
    no nonzero numbers at all; they report trivially as PASS-empty.  r < 1,
    g < 0, n < 1, holdout_count < 1 or a grid entry r*grid_base + eta_i < 1
    raises ValueError.
    """
    residues = tuple(residues)
    check_r(r)
    if g < 0:
        raise ValueError(f"g must be nonnegative, got {g}")
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

    width = degree_bound + 1
    grid = itertools.product(range(grid_base, grid_base + width), repeat=n)
    holdouts = (tuple(grid_base + width + j // n if i == j % n else grid_base for i in range(n))
                for j in range(holdout_count))
    samples = {}
    for point, value in _normalized_numbers(kind, r, g, residues, grid):
        if value is None:
            return _fail(report, f"nonzero number against vanishing prefactor at {point}")
        samples[point] = value
        report.grid.append((point, value))
    poly = report.polynomial = interpolate_on_grid(samples, degree_bound)
    report.observed_degree = poly.total_degree()
    if report.observed_degree > degree_bound:
        return _fail(report, f"interpolant degree {report.observed_degree} exceeds "
                             f"bound {degree_bound}")
    for point, expected in _normalized_numbers(kind, r, g, residues, holdouts):
        if expected is None:
            return _fail(report, f"nonzero number against vanishing prefactor at {point}")
        predicted = poly.evaluate(point)
        ok = predicted == expected
        report.holdouts.append((point, expected, predicted, ok))
        if not ok:
            _fail(report, f"holdout mismatch at {point}")
    return report


def _fail(report: QuasiPolyReport, reason: str) -> QuasiPolyReport:
    report.passed, report.reason = False, reason
    return report


def admissible_residue_classes(r: int, n: int):
    """All residue tuples with sum divisible by r (the nonvanishing classes)."""
    out = []
    for combo in itertools.product(range(r), repeat=n):
        if sum(combo) % r == 0:
            out.append(tuple(combo))
    return out

