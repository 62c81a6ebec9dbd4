import json
from fractions import Fraction

import pytest

from hurwitz import counts, polycheck
from hurwitz.cli import run
from hurwitz.counts import HurwitzRequest, hurwitz_number
from hurwitz.kinds import ALL_KINDS, HurwitzKind as K
from hurwitz.polycheck import (
    admissible_residue_classes,
    prefactor,
    verify_quasipolynomiality,
)
from hurwitz.spectral import (
    one_point_genus_zero,
    xi_closed_coefficient,
    xi_derivative_coefficient,
)


def test_prefactor_examples():
    assert prefactor(K.MONOTONE, 2, 5) == 21  # binom(7,5)
    assert prefactor(K.STRICT, 2, 4) == 3     # binom(3,2)
    assert prefactor(K.USUAL, 2, 4) == 8      # 4^2/2!
    assert prefactor(K.STRICT, 1, 3) == 0     # binom(2,3): degenerate at r=1
    with pytest.raises(ValueError):
        prefactor(K.USUAL, 2, 0)


def test_admissible_residue_classes():
    assert admissible_residue_classes(1, 3) == [(0, 0, 0)]
    assert admissible_residue_classes(2, 2) == [(0, 0), (1, 1)]
    assert len(admissible_residue_classes(2, 4)) == 8


def test_monotone_r1_03_is_constant():
    report = verify_quasipolynomiality(K.MONOTONE, 1, 0, 3, (0, 0, 0))
    assert report.passed
    assert report.observed_degree == 0
    # the normalized (0,3) monotone numbers are identically 1
    assert report.polynomial.terms == {(0, 0, 0): Fraction(1)}
    assert len(report.holdouts) == 3
    assert all(ok for _, _, _, ok in report.holdouts)


def test_usual_r2_11():
    report = verify_quasipolynomiality(K.USUAL, 2, 1, 1, (0,))
    assert report.passed
    assert report.observed_degree <= 1


def test_strict_r2_03_mixed_residues():
    report = verify_quasipolynomiality(K.STRICT, 2, 0, 3, (1, 1, 0))
    assert report.passed
    assert report.observed_degree <= 0


def test_trivial_class_reports_pass_empty():
    report = verify_quasipolynomiality(K.MONOTONE, 2, 0, 3, (1, 0, 0))
    assert report.passed and report.trivial
    assert report.grid == []


def test_strict_r1_all_zero():
    # stable strictly monotone numbers vanish at r=1 (not enough distinct maxima)
    report = verify_quasipolynomiality(K.STRICT, 1, 1, 1, (0,))
    assert report.passed
    assert report.polynomial.is_zero()
    for nu in range(2, 5):
        assert hurwitz_number(HurwitzRequest(K.STRICT, 1, 1, (nu,))) == 0


def test_permutation_equivariance():
    a = verify_quasipolynomiality(K.MONOTONE, 2, 0, 3, (1, 1, 0))
    b = verify_quasipolynomiality(K.MONOTONE, 2, 0, 3, (0, 1, 1))
    assert a.passed and b.passed
    # swap axes 0 and 2 in a's polynomial and compare on sample points
    for p in [(1, 2, 3), (2, 2, 5), (4, 1, 1)]:
        assert a.polynomial.evaluate(p) == b.polynomial.evaluate(p[::-1])


def test_residue_classes_not_mixed():
    # different residue class => different polynomial is allowed; the grids
    # must stay inside one class, which the mu reconstruction guarantees
    report = verify_quasipolynomiality(K.MONOTONE, 2, 1, 1, (0,))
    for (point, _) in report.grid:
        mu = 2 * point[0] + 0
        assert mu % 2 == 0


def test_report_json_roundtrip():
    import json

    report = verify_quasipolynomiality(K.USUAL, 1, 1, 1, (0,))
    blob = json.dumps(report.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["status"] == "PASS"
    assert data["degree_bound"] == 1
    assert json.dumps(data, sort_keys=True) == blob


def test_stable_range_required():
    with pytest.raises(ValueError):
        verify_quasipolynomiality(K.USUAL, 1, 0, 2, (0, 0))
    with pytest.raises(ValueError):
        verify_quasipolynomiality(K.USUAL, 2, 1, 1, (2,))


def test_normalized_03_monotone_constant_on_cube():
    # normalized genus-0 three-point monotone values on a 2x2x2 grid are
    # constant: interpolate directly and observe total degree 0
    from hurwitz.polynomials import interpolate_on_grid

    samples = {}
    for point in [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]:
        mus = tuple(point)  # r = 1: mu = nu
        h = hurwitz_number(HurwitzRequest(K.MONOTONE, 1, 0, mus))
        denom = Fraction(1)
        for mu in mus:
            denom *= prefactor(K.MONOTONE, 1, mu)
        samples[point] = h / denom
    poly = interpolate_on_grid(samples, 1)
    assert poly.total_degree() == 0


# -- failure paths: one wrong value planted per branch -------------------------


def plant(monkeypatch, *, prefactor_zero_at=None, wrong_h_at=None):
    """Zero the prefactor at one part, or add 1 to h at one profile."""
    true_prefactor, true_h = polycheck.prefactor, polycheck.hurwitz_number

    def fake_prefactor(kind, r, mu):
        return Fraction(0) if mu == prefactor_zero_at else true_prefactor(kind, r, mu)

    def fake_h(req):
        return true_h(req) + (req.mus == wrong_h_at)

    monkeypatch.setattr(polycheck, "prefactor", fake_prefactor)
    monkeypatch.setattr(polycheck, "hurwitz_number", fake_h)


# (planted fault, g, n, holdout_count, reason, observed degree, holdout ok flags);
# monotone at r = 1, where the (0,3) grid is the one point (1,1,1) and its
# holdouts are (2,1,1), (1,2,1), (1,1,2), (3,1,1)
FAILURES = {
    "vanishing-prefactor-on-grid": (
        {"prefactor_zero_at": 1}, 0, 3, 3,
        "nonzero number against vanishing prefactor at (1, 1, 1)", None, []),
    "vanishing-prefactor-at-holdout": (
        {"prefactor_zero_at": 3}, 0, 3, 4,
        "nonzero number against vanishing prefactor at (3, 1, 1)", 0, [True] * 3),
    # a bump at the corner of the 3 x 3 (1,2) grid has total degree 2 + 2
    "degree-above-bound": (
        {"wrong_h_at": (3, 3)}, 1, 2, 3, "interpolant degree 4 exceeds bound 2", 4, []),
    "holdout-mismatch": (
        {"wrong_h_at": (1, 2, 1)}, 0, 3, 3,
        "holdout mismatch at (1, 2, 1)", 0, [True, False, True]),
}


@pytest.mark.parametrize("fault, g, n, holdout_count, reason, degree, oks",
                         FAILURES.values(), ids=FAILURES)
def test_planted_fault_fails_the_check(monkeypatch, capsys, fault, g, n, holdout_count,
                                       reason, degree, oks):
    plant(monkeypatch, **fault)
    report = verify_quasipolynomiality(K.MONOTONE, 1, g, n, (0,) * n,
                                       holdout_count=holdout_count)
    assert not report.passed
    assert report.reason == reason
    assert report.observed_degree == degree
    assert [ok for _, _, _, ok in report.holdouts] == oks
    code = run(["verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", str(g),
                "--n", str(n), "--eta", ",".join("0" * n), "--holdouts", str(holdout_count)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "FAIL"


@pytest.mark.parametrize("n, residues, kwargs, name", [
    (1, (0,), {"holdout_count": 0}, "holdout_count"),
    (1, (0,), {"holdout_count": -2}, "holdout_count"),
    (1, (0,), {"grid_base": 0}, "grid_base"),
    (1, (0,), {"grid_base": -3}, "grid_base"),
    (0, (), {}, "n must be"),
    (-1, (), {}, "n must be"),
])
def test_bad_check_settings_raise(n, residues, kwargs, name):
    with pytest.raises(ValueError, match=name):
        verify_quasipolynomiality(K.MONOTONE, 2, 2, n, residues, **kwargs)


@pytest.mark.parametrize("call", [
    lambda: prefactor(K.MONOTONE, 0, 3),
    lambda: one_point_genus_zero(K.MONOTONE, 0, 2),
    lambda: xi_closed_coefficient(K.USUAL, 0, 0, 3),
    lambda: xi_derivative_coefficient(K.STRICT, -1, 0, 1, 4),
    lambda: verify_quasipolynomiality(K.MONOTONE, 0, 0, 3, (0, 0, 0)),
], ids=["prefactor", "one_point_genus_zero", "xi_closed_coefficient",
        "xi_derivative_coefficient", "verify_quasipolynomiality"])
def test_r_below_one_raises_naming_r(call):
    with pytest.raises(ValueError, match=r"^r must be positive"):
        call()


# -- each profile built once per verifier run ----------------------------------


def builds_per_run(monkeypatch, route_name, runs):
    """The distinct (kind, r, profile, b_max) each run asks of one route.

    The dispatch looks its routes up by name, so the spy sees every call;
    the distinct keys of one run are the builds of a cache cleared before it.
    """
    route = getattr(counts, route_name)
    seen = set()

    def spy(kind, r, rho, b_max):
        seen.add((kind, r, rho, b_max))
        return route(kind, r, rho, b_max)

    monkeypatch.setattr(counts, route_name, spy)
    for args in runs:
        seen.clear()
        assert verify_quasipolynomiality(*args).passed, args
        yield args, set(seen)


VERIFIER_RUNS = [(kind, r, g, n, eta) for kind in ALL_KINDS for r in (1, 2, 3)
                 for g, n in [(0, 3), (1, 1), (1, 2), (2, 1), (0, 4), (1, 3)]
                 for eta in admissible_residue_classes(r, n)]


def test_verifier_builds_each_character_profile_once(monkeypatch):
    # every part is at least r on the grid, so a sub-profile N is asked
    # through b = 2g - 2 + 2n - len(N) + |N|/r, the same for every parent
    assert len(VERIFIER_RUNS) == 228
    for args, keys in builds_per_run(monkeypatch, "_partition_sum", VERIFIER_RUNS):
        assert len({key[:3] for key in keys}) == len(keys), args


def test_verifier_on_fock_builds_each_profile_once(monkeypatch):
    def on_fock(req):
        return hurwitz_number(HurwitzRequest(req.kind, req.r, req.g, req.mus,
                                             req.connected, method="fock"))

    monkeypatch.setattr(polycheck, "hurwitz_number", on_fock)
    runs = [(kind, 2, 0, 4, eta) for kind in ALL_KINDS
            for eta in admissible_residue_classes(2, 4)]
    for args, keys in builds_per_run(monkeypatch, "disconnected_block_series", runs):
        assert len({key[:3] for key in keys}) == len(keys), args
        assert keys, args
