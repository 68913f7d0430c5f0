"""Shared generators for seeded random instances, a comparable outcome of an
edge-list reader, the class colors a product coloring packs, and the Farey
sequence and Φ count by brute force. Kept
separate from the package so test inputs and references never depend on the
code under test beyond the graph constructor."""

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from chibound import GraphError, OrientedGraph


def random_dag(rng: random.Random, max_n: int = 200) -> OrientedGraph:
    """Random DAG: random vertex order, forward edges with sparse density."""
    n = rng.randint(1, max_n)
    perm = list(range(n))
    rng.shuffle(perm)
    p = rng.uniform(0.01, min(0.25, 30.0 / n))
    edges = [
        (perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return OrientedGraph(n, edges)


def random_oriented_graph(rng: random.Random, max_n: int = 9) -> OrientedGraph:
    """Random oriented simple graph of any density (acyclic by construction;
    the undirected view is what the coloring/clique oracles consume)."""
    n = rng.randint(1, max_n)
    p = rng.random()
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return OrientedGraph(n, edges)


def heap_order(g: OrientedGraph) -> list[int]:
    """The lexicographically smallest topological order of a DAG, by Kahn's
    sort with a heap for its queue: a reference order that the package's
    sorts, which take index order or a FIFO queue, do not give."""
    indeg = [0] * g.n
    for v in g.heads:
        indeg[v] += 1
    heap = [v for v in range(g.n) if indeg[v] == 0]
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in g.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    assert len(order) == g.n, "heap_order takes a DAG"
    return order


def class_colors(assignment, n: int, classes: int) -> tuple[tuple[int, ...], ...]:
    """Per vertex, its color in each of ``classes`` residue classes, decoded
    from a mixed-radix product coloring: class c's color of v is
    ``assignment[v] // n**c % n``. A code outside the palette ``n**classes``
    has no decoding and fails here."""
    assert all(0 <= a < n**classes for a in assignment), "color outside the palette"
    return tuple(tuple(a // n**c % n for c in range(classes)) for a in assignment)


def read_outcome(read, text, size_cap=None):
    """What an edge-list reader returns, its graph's tails and heads
    included, or the type and message of what it raises."""
    try:
        g, labels, metadata = read(text, size_cap=size_cap)
    except (ValueError, GraphError) as exc:
        return type(exc), str(exc)
    return g.n, g.tails, g.heads, labels, metadata


@dataclass(frozen=True, eq=False)
class FareySequence:
    """All reduced fractions in [0, 1] with denominator <= n, ascending."""

    n: int
    entries: tuple[Fraction, ...]

    @property
    def phi(self) -> int:
        """Number of entries excluding 0."""
        return len(self.entries) - 1


def farey_sequence(n: int) -> FareySequence:
    """Enumerate the order-n sequence by generating all reduced s/m and
    sorting: the reference that residue_partition's recurrence walk is
    compared against."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    entries = {Fraction(s, m) for m in range(1, n + 1) for s in range(0, m + 1)}
    return FareySequence(n, tuple(sorted(entries)))


def phi_count(n: int) -> int:
    """Count the fractions of order n other than 0, by direct coprimality count.

    Kept independent of any totient sieve so the totient-sum identity stays a
    two-route check.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return sum(1 for m in range(1, n + 1) for s in range(1, m + 1) if math.gcd(s, m) == 1)
