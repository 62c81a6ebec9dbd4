"""Integer partitions, symmetric-group characters and connected parts.

Partitions are tuples of weakly decreasing positive integers.  The nonzero
characters of a class rho are built together, lam -> chi^lam(rho), by adding
one border strip per part of rho, and memoized in memory per class.
Connected values come from disconnected ones by inclusion-exclusion over
sub-multisets (`connected_from_subprofiles`) or, as its reference, over
index subsets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod
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


def strip_additions(lam: Partition, k: int) -> list[tuple[Partition, int]]:
    """Every lam + (border strip of size k), with the Murnaghan-Nakayama sign.

    On the beta-set lam_i - i of lam padded with k zeros (a strip adds at most
    k rows), the bead b of row i moves to a vacant b + k, jumping the beads of
    rows top..i-1: the strip fills rows top..i, with sign (-1)^(i - top).
    """
    padded = lam + (0,) * k
    beta = [p - i for i, p in enumerate(padded)]
    occupied = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b + k in occupied:
            continue
        top = i
        while top and beta[top - 1] < b + k:
            top -= 1
        # rows above top keep their parts (no zero row lies above the strip)
        grown = (lam[:top] + (padded[i] + k - (i - top),)
                 + tuple(p + 1 for p in padded[top:i]) + lam[i + 1:])
        out.append((grown, (-1) ** (i - top)))
    return out


class CharacterCache:
    """In-memory memo of lam -> chi^lam(rho) != 0, one dictionary per class rho.

    `at(rho)` extends `at(rho[:-1])` by a strip of size rho[-1] on each lam
    (p_k s_lam = sum of +-s_(lam + strip), Macdonald ch. I), so sorted classes
    share prefixes; a dictionary is stored only once complete.  `save` is a
    no-op kept because the benchmark tracer (perfbench/tracer.py) wraps it.
    """

    def __init__(self):
        self.tables: dict[Partition, dict[Partition, int]] = {(): {(): 1}}

    def save(self) -> None:
        """Persist nothing; the tables live only as long as the process."""

    def __len__(self) -> int:  # the nonzero characters stored
        return sum(len(table) for table in list(self.tables.values()))

    def at(self, rho: Partition) -> dict[Partition, int]:
        """lam -> chi^lam(rho) for every lam with a nonzero value."""
        table = self.tables.get(rho)
        if table is None:
            grown: dict[Partition, int] = {}
            for lam, chi in self.at(rho[:-1]).items():
                for bigger, sign in strip_additions(lam, rho[-1]):
                    grown[bigger] = grown.get(bigger, 0) + sign * chi
            table = self.tables[rho] = {lam: chi for lam, chi in grown.items() if chi}
        return table


_active_cache = CharacterCache()


def active_cache() -> CharacterCache:
    return _active_cache


def character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character chi^lam at cycle type rho (Murnaghan-Nakayama)."""
    lam = check_partition(lam)
    rho = check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |lam|={sum(lam)} vs |rho|={sum(rho)}")
    return _active_cache.at(rho).get(lam, 0)


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


def _sub_mul(acc: list, w: int, a: tuple, b: tuple) -> None:
    """acc -= w * a * b on coefficient tuples, truncated; zeros are skipped."""
    top = len(acc)
    b_nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        x *= w
        for j, y in b_nonzero:
            if i + j >= top:
                break
            acc[i + j] -= x * y


def connected_from_subprofiles(mus: Sequence[int], block: Callable) -> tuple:
    """Connected coefficients of the profile mus from its sub-multisets.

    `block(sub)` gives the disconnected coefficients h_0..h_{b_max} of a
    nonempty sub-multiset `sub` of mus (its parts decreasing) as a tuple.
    They depend only on the multiset, so the recursion of
    connected_from_disconnected runs over multiplicity vectors, splitting
    off the component of one fixed copy of the least part a:

        C(M) = D(M) - sum_{a in N, N a proper sub-multiset of M} w(N) C(N) D(M - N),

    w(N) = prod_v binom(m_v - [v = a], n_v - [v = a]) counting the index
    subsets with multiset N that hold that copy.  D and C are memoized per
    vector, so each distinct sub-multiset reaches `block` once.
    """
    values = sorted(set(mus), reverse=True)
    full = tuple(list(mus).count(v) for v in values)
    vectors = list(itertools.product(*(range(m + 1) for m in full)))[1:]
    disconnected = {n: block(tuple(v for v, c in zip(values, n) for _ in range(c)))
                    for n in vectors}
    # the vectors holding a, in product order: each comes after its sub-vectors
    connected = {}
    for n in vectors:
        if not n[-1]:
            continue
        acc = list(disconnected[n])
        for p, c_p in connected.items():
            if any(x > y for x, y in zip(p, n)):
                continue
            w = comb(n[-1] - 1, p[-1] - 1) * prod(comb(y, x) for x, y in zip(p[:-1], n))
            rest = tuple(y - x for x, y in zip(p, n))
            _sub_mul(acc, w, c_p, disconnected[rest])
        connected[n] = tuple(acc)
    return connected[full]
