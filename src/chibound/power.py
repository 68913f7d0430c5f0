"""Modular distance power graphs and the witness for a growth target.

Given a base graph in which every reachable pair is joined by a unique
directed path, the power graph for a prime p keeps the same vertices and
joins every comparable pair whose path length is nonzero mod p, oriented
low-to-high in the reachability order and labeled with the residue: it is
the base's reachability closure less the pairs whose length p divides, with
each length taken mod p. The CLI builds every power graph on the closure
``zykov.zykov_closure`` composes; ``graphs.distance_table`` merges any other
base's. Residues are stored per edge at build time because induced subgraphs
cannot recompute them from their own edges alone.

``growth_witness(f, n)`` names the power graph that witnesses a growth
target f at order n: the prime p at or below n, and the level k = max f over
p..n. It reads f on that interval only.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable

from .errors import DomainTooSmall, NotPrime
from .graphs import LabeledGraph, OrientedGraph, distance_table


def is_prime(n: int) -> bool:
    """Deterministic trial division; desk-scale primes only."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def build_power_graph(base, p: int, distances: LabeledGraph | None = None) -> LabeledGraph:
    """Build the power graph of a verified unique-path base for prime p.

    Edges are exactly the pairs (u, v) with u below v in the base reachability
    order and path length d(u, v) not divisible by p; the label is d mod p.
    The base is a subgraph: its edges all carry label 1. ``distances`` is the
    base's closure (``zykov_closure(k)`` for zykov(k)); only when it is not
    given is ``base`` read, and ``distance_table(base)`` merges it. When every
    distance is below p, the power graph is the closure itself and shares its
    graph and labels; otherwise the pairs with d % p == 0 are filtered out.

    Propagates CycleFound/MultiplePaths from ``distance_table`` when the base
    breaks the unique-path contract.
    """
    if not is_prime(p):
        raise NotPrime(p)
    closure = distance_table(base) if distances is None else distances
    g, d = closure.graph, closure.labels
    if max(d, default=0) < p:
        return LabeledGraph(g, d, p)
    residues = [x % p for x in d]  # true exactly where the pair is kept
    kept = OrientedGraph._canonical(g.n, compress(g.tails, residues), compress(g.heads, residues))
    return LabeledGraph(kept, tuple(compress(residues, residues)), p)


def growth_witness(f: Callable[[int], int], n: int) -> tuple[int, int, int]:
    """(p, q, k) for the target f at order n: p the largest prime <= n, q the
    first prime above n, and k = max f(m) over p <= m <= n, so power(k, p)
    has clique number at most p <= n and chromatic number at least f(n)."""
    if n < 2:
        raise DomainTooSmall(f"need n_max >= 2, got {n}")
    p = next(m for m in range(n, 1, -1) if is_prime(m))
    q = next(m for m in count(n + 1) if is_prime(m))
    return p, q, max(map(f, range(p, n + 1)))


BUILTIN_F: dict[str, Callable[[int], int]] = {
    "n^2": lambda n: n * n,
    "2^n": lambda n: 2**n,
}
