"""The three flavours of orbifold Hurwitz numbers."""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb, factorial


class HurwitzKind(Enum):
    """Weight attached to the transposition factors of a factorization.

    MONOTONE: weakly increasing maxima (complete symmetric weights h_b).
    STRICT: strictly increasing maxima, i.e. dessins d'enfants / hypermaps
        (elementary symmetric weights sigma_b).
    USUAL: unconstrained simple branch points (power-sum weights u^b/b!).
    """

    MONOTONE = "monotone"
    STRICT = "strict"
    USUAL = "usual"

    @classmethod
    def parse(cls, name: str) -> "HurwitzKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown kind {name!r}; expected monotone|strict|usual")


ALL_KINDS = (HurwitzKind.MONOTONE, HurwitzKind.STRICT, HurwitzKind.USUAL)

# the three independent routes, in the order the CLI reports them
METHODS = ("character", "fock", "oracle")


def check_r(r: int) -> None:
    """The one check of the orbifold order: r < 1 raises ValueError."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")


def check_profile(mus: tuple[int, ...], name: str) -> None:
    """The one profile check: an empty mus or a part not a positive int raises ValueError."""
    if not mus or not all(type(m) is int and m >= 1 for m in mus):  # a bool is no part
        raise ValueError(f"{name} must be a nonempty profile of positive integers, got {mus}")


@lru_cache(maxsize=None)
def entry_coefficient(kind: HurwitzKind, r: int, mu: int) -> tuple[int, int]:
    """The per-entry closed form at mu as (numerator, denominator), nu = mu // r.

    binom(mu+nu, mu), binom(mu-1, nu) (mu >= 1) or mu^nu/nu! by kind: the coefficient
    of xi_{mu mod r} at mu and the quasi-polynomial prefactor.  Callers check input.
    """
    nu = mu // r
    if kind is HurwitzKind.MONOTONE:
        return comb(mu + nu, mu), 1
    if kind is HurwitzKind.STRICT:
        return comb(mu - 1, nu), 1
    return mu ** nu, factorial(nu)
