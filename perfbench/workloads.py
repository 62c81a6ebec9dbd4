"""Workload populations and seeded draws.

This module runs in the benchmark's parent process and does not import
`hurwitz`: it only describes requests as JSON-ready lists.  Requests are
drawn from a finite population, so reference values are recorded for every
request any seed can draw (reference/, by record_reference.py).

A seed changes which requests run, or their order, but hardly how much
work a round is or its spread of latencies:
- route_agreement and degree_sweep run their whole population, in (kind, r)
  blocks whose order the seed sets.  Requests share memo tables within a
  block (sub-profiles, fock blocks), so a drawn subset would make each
  request's latency depend on which others were drawn; the blocks share
  only characters and the oracle's class tables, a few percent of a round.
- quasipoly draws one residue class of each class up to order: the numbers
  are symmetric in mu, so the drawn classes do the same work.
- cli_calls splits its population into cells of calls that cost about the
  same when the references were recorded, the costliest alone, and draws
  one call per cell; calls run in fresh processes and share only the
  on-disk character cache.
"""

from __future__ import annotations

import json
import random
from itertools import product

KINDS = ("monotone", "strict", "usual")

# Sizes keep a round at 3-8 seconds, so that a 28-second run holds three to
# seven rounds.  ROUTE_B_MAX mirrors acceptance
# criterion 1 (b <= 5); the oracle stops at degree 6.  Profiles of 6 parts
# are left out of route_agreement: at r = 1 each takes 1-2.5 s, all of it on
# entries of negative genus, which the (1^5) and (2,1^4) profiles still have.
ROUTE_B_MAX = 5
ROUTE_MAX_DEGREE = 6
ROUTE_MAX_PARTS = 5
QUASIPOLY_MAX_R = 3
QUASIPOLY_CASES = ((0, 3), (1, 1), (1, 2), (2, 1))
SWEEP_DEGREE = 8
SWEEP_MAX_PARTS = 7


def partitions(d: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of d, parts weakly decreasing."""
    if d == 0:
        return [()]
    cap = d if max_part is None else min(d, max_part)
    return [(first,) + rest for first in range(cap, 0, -1)
            for rest in partitions(d - first, first)]


def admissible_residues(r: int, n: int) -> list[tuple[int, ...]]:
    return [e for e in product(range(r), repeat=n) if sum(e) % r == 0]


# -- populations ---------------------------------------------------------------


def route_population():
    for kind in KINDS:
        for r in (1, 2, 3):
            for d in range(r, ROUTE_MAX_DEGREE + 1, r):
                for mus in partitions(d):
                    if len(mus) <= ROUTE_MAX_PARTS:
                        yield ["route", kind, r, list(mus)]


def quasipoly_population():
    for kind in KINDS:
        for r in range(1, QUASIPOLY_MAX_R + 1):
            for g, n in QUASIPOLY_CASES:
                for eta in admissible_residues(r, n):
                    yield ["quasipoly", kind, r, g, n, list(eta)]


def sweep_population():
    d = SWEEP_DEGREE
    for kind in KINDS:
        for r in (1, 2):
            if d % r:
                continue
            for mus in partitions(d):
                if len(mus) <= SWEEP_MAX_PARTS:
                    # connected series through genus 1: b = 2*1 - 2 + n + d/r
                    yield ["sweep", kind, r, list(mus), len(mus) + d // r]


def cli_population():
    """Small `hurwitz.cli` calls; every one exits 0 at the recording commit."""
    for kind in KINDS:
        for r, g, mu in ((1, 0, "2,1"), (2, 1, "2,2"), (2, 0, "3,1"),
                         (3, 0, "3,3"), (1, 1, "3"), (2, 0, "1,1,2")):
            yield ["cli", "compute", "--kind", kind, "--r", str(r), "--g", str(g),
                   "--mu", mu, "--method", "all"]
        for r, mu, order in ((2, "2,4", 8), (1, "3,2", 7), (3, "3,3", 6),
                             (1, "2,2,1", 8)):
            yield ["cli", "series", "--kind", kind, "--r", str(r), "--mu", mu,
                   "--order", str(order)]
        for r, i, order, derivative in ((2, 1, 14, 0), (3, 2, 12, 1), (2, 0, 16, 2),
                                        (4, 3, 12, 0)):
            yield ["cli", "xi", "--kind", kind, "--r", str(r), "--i", str(i),
                   "--order", str(order), "--derivative", str(derivative)]
        for r, g, n, eta in ((1, 0, 3, "0,0,0"), (2, 1, 1, "0"), (2, 0, 3, "1,1,0"),
                             (3, 1, 1, "0")):
            yield ["cli", "verify-quasipoly", "--kind", kind, "--r", str(r),
                   "--g", str(g), "--n", str(n), "--eta", eta]
    for kind in ("monotone", "strict"):
        for r, order in ((1, 8), (2, 10), (3, 9), (2, 6), (3, 12), (4, 8)):
            yield ["cli", "unstable-check", "--kind", kind, "--r", str(r),
                   "--order", str(order)]


def cost_stratum(certain: int, size: int):
    """Cells by cost rank: the `certain` costliest requests alone, then `size` at a time."""
    return lambda request, rank: rank if rank < certain else certain + (rank - certain) // size


def residue_orbit(request, rank):
    """quasipoly cell: residue classes equal up to order give the same work."""
    _, kind, r, g, n, eta = request
    return kind, r, g, n, tuple(sorted(eta))


def one_per_cell(cell_of):
    """Draw one request of each cell, kept in population order."""
    def arrange(requests, rng, rank):
        cells: dict = {}
        for request in requests:
            cells.setdefault(cell_of(request, rank[request_key(request)]), []).append(request)
        chosen = {request_key(rng.choice(members)) for members in cells.values()}
        return [r for r in requests if request_key(r) in chosen]
    return arrange


def shuffled_blocks(requests, rng, rank):
    """Every request, in (kind, r) blocks taken in a seeded order.

    Within a block, requests keep population order, so each request finds
    the same memo entries of its block's earlier requests whatever the seed.
    """
    blocks: dict = {}
    for request in requests:
        blocks.setdefault(tuple(request[1:3]), []).append(request)
    order = list(blocks.values())
    rng.shuffle(order)
    return [request for block in order for request in block]


# name -> (population, arrangement of a round's requests)
WORKLOADS = {
    "route_agreement": (route_population, shuffled_blocks),
    "quasipoly": (quasipoly_population, one_per_cell(residue_orbit)),
    "degree_sweep": (sweep_population, shuffled_blocks),
    "cli_calls": (cli_population, one_per_cell(cost_stratum(3, 3))),
}


def draw(workload: str, seed: int, costs: dict) -> list[list]:
    """The seeded request list of one round of `workload`.

    `costs` maps request keys to their recorded latency, by which
    cost_stratum ranks requests.
    """
    population, arrange = WORKLOADS[workload]
    requests = list(population())
    ranked = sorted(requests, key=lambda r: -costs[request_key(r)])
    rank = {request_key(r): i for i, r in enumerate(ranked)}
    return arrange(requests, random.Random(seed), rank)


def request_key(request: list) -> str:
    """Stable text key of a request, used to index reference values."""
    return json.dumps(request, separators=(",", ":"))
