"""Integer partitions, symmetric-group characters and connected parts.

Partitions are tuples of weakly decreasing positive integers. Characters are
computed by the Murnaghan-Nakayama rule on beta-sets (first-column hook
lengths), memoized in memory for the life of the process.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

Partition = tuple[int, ...]


def check_partition(parts: Sequence[int]) -> Partition:
    lam = tuple(parts)
    if any(p <= 0 for p in lam):
        raise ValueError("partition parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return lam


@lru_cache(maxsize=None)
def enumerate_partitions(d: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of d in descending-lexicographic order."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return ((),)
    cap = d if max_part is None else min(max_part, d)
    out = []
    for first in range(cap, 0, -1):
        for rest in enumerate_partitions(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def contents(lam: Sequence[int]) -> list[int]:
    """Multiset of cell contents j - i of the Young diagram (0-based)."""
    lam = check_partition(lam)
    return [j - i for i, row in enumerate(lam) for j in range(row)]


def class_size(rho: Sequence[int]) -> int:
    """Number of permutations of cycle type rho: d! / prod(m_k! k^m_k)."""
    rho = check_partition(rho)
    d = sum(rho)
    z = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= factorial(m) * k ** m
    return factorial(d) // z


def _beta_set(lam: Partition, length: int) -> list[int]:
    # distinct descending beta numbers lam_i + (length - 1 - i), padded with 0..
    return [(lam[i] if i < len(lam) else 0) + (length - 1 - i) for i in range(length)]


def _partition_from_beta(beta: list[int]) -> Partition:
    length = len(beta)
    parts = [b - (length - 1 - i) for i, b in enumerate(sorted(beta, reverse=True))]
    return tuple(p for p in parts if p > 0)


def border_strip_removals(lam: Partition, k: int) -> list[tuple[Partition, int]]:
    """All ways to remove a border strip of size k, with the MN sign."""
    length = max(len(lam), 1)
    beta = _beta_set(lam, length)
    beta_set = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = [nb if c == b else c for c in beta]
        out.append((_partition_from_beta(new_beta), (-1) ** crossed))
    return out


class CharacterCache:
    """In-memory memo table of Murnaghan-Nakayama characters.

    Nothing is persisted: `save` is a no-op kept because the benchmark
    tracer (perfbench/tracer.py) wraps it.
    """

    def __init__(self):
        self.table: dict[tuple[Partition, Partition], int] = {}

    def save(self) -> None:
        """Persist nothing; the table lives only as long as the process."""

    def __len__(self) -> int:
        return len(self.table)

    def compute(self, lam: Partition, rho: Partition) -> int:
        if not rho:
            return 1
        key = (lam, rho)
        cached = self.table.get(key)
        if cached is not None:
            return cached
        k, rest = rho[0], rho[1:]
        total = 0
        for smaller, sign in border_strip_removals(lam, k):
            total += sign * self.compute(smaller, rest)
        self.table[key] = total
        return total


_active_cache = CharacterCache()


def active_cache() -> CharacterCache:
    return _active_cache


def character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character chi^lam at cycle type rho (Murnaghan-Nakayama)."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |lam|={sum(lam)} vs |rho|={sum(rho)}")
    return _active_cache.compute(lam, tuple(sorted(rho, reverse=True)))


def connected_from_disconnected(blocks: dict):
    """Connected value from disconnected ones, by the exponential formula.

    `blocks` maps every nonempty frozenset S of range(n) to a disconnected
    value D(S) in any commutative ring (rationals, truncated series) and
    returns C(range(n)) from the recursion

        C(S) = D(S) - sum_{min S in T, T a proper subset of S} C(T) D(S - T),

    which splits off the connected component of min S.  It equals the
    set-partition sum  sum_pi (-1)^{|pi|-1} (|pi|-1)! prod_{B in pi} D(B)
    with 3^{n-1} - 2^{n-1} products instead of one per block of each of the
    Bell(n) set partitions.  Subsets are bitmasks; only those holding 0 get
    a C value.
    """
    n_elems = frozenset().union(*blocks.keys())
    n = len(n_elems)
    if n_elems != frozenset(range(n)):
        raise ValueError("blocks must be indexed by subsets of range(n)")
    full = (1 << n) - 1
    disconnected = [None] * (full + 1)
    for key, value in blocks.items():
        disconnected[sum(1 << i for i in key)] = value
    for mask in range(1, full + 1):
        if disconnected[mask] is None:
            raise ValueError(f"missing subset {[i for i in range(n) if mask >> i & 1]}")
    connected = {}
    for mask in range(1, full + 1, 2):
        value = disconnected[mask]
        rest = mask ^ 1
        # T = {0} + sub over the proper subsets sub of rest
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            value = value - connected[sub | 1] * disconnected[rest ^ sub]
        connected[mask] = value
    return connected[full]


def connected_from_subprofiles(mus: Sequence[int], block: Callable):
    """Connected value of the profile mus from the disconnected sub-profiles.

    `block(sub)` gives the disconnected value of each nonempty sub-profile
    `sub` (a tuple of parts of mus, in their order); the values are keyed by
    their index sets for connected_from_disconnected.
    """
    n = len(mus)
    blocks = {frozenset(sub): block(tuple(mus[i] for i in sub))
              for size in range(1, n + 1)
              for sub in itertools.combinations(range(n), size)}
    return connected_from_disconnected(blocks)
