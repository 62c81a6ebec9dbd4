"""Exact monotone, strictly monotone and usual r-orbifold Hurwitz numbers.

Three independent evaluation routes (symmetric-group characters, A-operator
correlators on the semi-infinite wedge, and a group-algebra oracle built from
Jucys-Murphy elements), plus exact verifiers for the quasi-polynomial
structure, the spectral-curve xi expansions and the unstable (0,1)/(0,2)
identities.
"""

from .counts import (
    METHODS,
    HurwitzRequest,
    connected_series_character,
    disconnected_series_character,
    hurwitz_number,
    oracle_group_algebra,
    route_series,
)
from .fock import EOpSpec, vacuum_expectation
from .kinds import ALL_KINDS, HurwitzKind
from .partitions import (
    character,
    connected_from_disconnected,
    contents,
    enumerate_partitions,
)
from .polycheck import prefactor, verify_quasipolynomiality
from .polynomials import MultiPolynomial, interpolate_on_grid
from .series import TruncatedSeries, elementary_series
from .spectral import (
    check_F01,
    check_bergman02,
    check_case_identities,
    curve_inverse_series,
    two_point_monotone,
    xi_closed_coefficient,
    xi_derivative_coefficient,
    xi_series,
)
from .symfunc import stirling, sym_poly

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "EOpSpec",
    "HurwitzKind",
    "HurwitzRequest",
    "METHODS",
    "MultiPolynomial",
    "TruncatedSeries",
    "character",
    "check_F01",
    "check_bergman02",
    "check_case_identities",
    "connected_from_disconnected",
    "connected_series_character",
    "contents",
    "curve_inverse_series",
    "disconnected_series_character",
    "elementary_series",
    "enumerate_partitions",
    "hurwitz_number",
    "interpolate_on_grid",
    "oracle_group_algebra",
    "prefactor",
    "route_series",
    "stirling",
    "sym_poly",
    "two_point_monotone",
    "vacuum_expectation",
    "verify_quasipolynomiality",
    "xi_closed_coefficient",
    "xi_derivative_coefficient",
    "xi_series",
]
