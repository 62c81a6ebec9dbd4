"""The three flavours of orbifold Hurwitz numbers."""

from __future__ import annotations

from enum import Enum


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


def check_r(r: int) -> None:
    """The one check of the orbifold order: r < 1 raises ValueError."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")


def check_profile(mus: tuple[int, ...], name: str) -> None:
    """The one profile check: an empty mus or a part not a positive int raises ValueError."""
    if not mus or not all(type(m) is int and m >= 1 for m in mus):  # a bool is no part
        raise ValueError(f"{name} must be a nonempty profile of positive integers, got {mus}")
