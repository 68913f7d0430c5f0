"""Shared generators for seeded random instances, and a comparable outcome
of an edge-list reader. Kept separate from the package so test inputs never
depend on the code under test beyond the graph constructor."""

import random

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


def read_outcome(read, text, size_cap=None):
    """What an edge-list reader returns, its graph's tails and heads
    included, or the type and message of what it raises."""
    try:
        g, labels, metadata = read(text, size_cap=size_cap)
    except (ValueError, GraphError) as exc:
        return type(exc), str(exc)
    return g.n, g.tails, g.heads, labels, metadata
