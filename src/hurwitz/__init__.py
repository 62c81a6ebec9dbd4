"""Exact monotone, strictly monotone and usual r-orbifold Hurwitz numbers.

Three independent evaluation routes (symmetric-group characters, A-operator
correlators on the semi-infinite wedge, and a group-algebra oracle built from
Jucys-Murphy elements), plus exact verifiers for the quasi-polynomial
structure, the spectral-curve xi expansions and the unstable (0,1)/(0,2)
identities.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it; a name is imported on
# first access (PEP 562), so `import hurwitz` loads no submodule and each
# CLI command compiles only the modules it runs
_SOURCES = {
    "ALL_KINDS": "kinds",
    "EOpSpec": "fock",
    "HurwitzKind": "kinds",
    "HurwitzRequest": "counts",
    "METHODS": "kinds",
    "MultiPolynomial": "polynomials",
    "TruncatedSeries": "series",
    "character": "partitions",
    "check_F01": "spectral",
    "check_bergman02": "spectral",
    "check_case_identities": "spectral",
    "connected_from_disconnected": "partitions",
    "connected_series_character": "counts",
    "contents": "partitions",
    "curve_inverse_series": "spectral",
    "disconnected_series_character": "counts",
    "elementary_series": "series",
    "enumerate_partitions": "partitions",
    "hurwitz_number": "counts",
    "interpolate_on_grid": "polynomials",
    "oracle_group_algebra": "counts",
    "prefactor": "polycheck",
    "route_series": "counts",
    "stirling": "symfunc",
    "sym_poly": "symfunc",
    "two_point_monotone": "spectral",
    "vacuum_expectation": "fock",
    "verify_quasipolynomiality": "polycheck",
    "xi_closed_coefficient": "spectral",
    "xi_derivative_coefficient": "spectral",
    "xi_series": "spectral",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
