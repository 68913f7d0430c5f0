"""Edge partition by residue class, longest-path colorings, and the product
coloring that bounds the chromatic number of any power-graph subgraph by a
function of its clique number alone.

The pipeline distrusts its caller: if a class graph turns out to contain a
directed path of the forbidden length, the path converts into an explicit
clique one larger than the claimed clique number, and that witness is
re-checked against the graph before it is surfaced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CliqueTooLarge,
    InconsistentLabels,
    MissingSize,
    OrderNotLess,
    PathTooLong,
    PrimeMismatch,
    UnlabeledEdge,
)
from .farey import ResiduePartition
from .graphs import OrientedGraph, as_labeled, oriented_view, topological_order
from .power import ClassParameters, sieve_primes


@dataclass(frozen=True, eq=False)
class Coloring:
    """A vertex coloring drawn from a palette {0..palette-1} for a stated graph."""

    assignment: tuple[int, ...]
    palette: int
    target: OrientedGraph
    tuples: tuple[tuple[int, ...], ...] | None = None

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))

    def to_json_dict(self, include_tuples: bool = True) -> dict:
        out = {"palette": self.palette, "assignment": list(self.assignment)}
        if include_tuples and self.tuples is not None:
            out["tuple_view"] = [list(t) for t in self.tuples]
        return out


@dataclass(frozen=True, eq=False)
class EdgePartition:
    """Edges of a labeled graph split by the residue class of their label."""

    p: int
    n_vertices: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def class_graph(self, i: int) -> OrientedGraph:
        return OrientedGraph(self.n_vertices, self.classes[i])


def edge_partition(g, part: ResiduePartition) -> EdgePartition:
    """Split the edge set by which partition class each residue label lies in."""
    g = as_labeled(g)
    graph, labels = g.graph, g.labels
    if g.p is not None and g.p != part.p:
        raise PrimeMismatch(part.p, g.p)
    if labels is None and graph.m > 0:
        raise UnlabeledEdge(graph.edges[0])
    buckets: list[list[tuple[int, int]]] = [[] for _ in part.classes]
    for e in graph.edges:
        r = labels.get(e)
        if r is None:
            raise UnlabeledEdge(e)
        i = part.class_index.get(r)
        if i is None:
            raise UnlabeledEdge(e, label=r)
        buckets[i].append(e)
    return EdgePartition(
        p=part.p,
        n_vertices=graph.n,
        classes=tuple(tuple(b) for b in buckets),
    )


def longest_path_coloring(g, k: int) -> Coloring:
    """Color each vertex by the length of the longest directed path leaving it.

    Proper on any acyclic graph whose longest directed path is shorter than k,
    because an edge u -> v forces color(u) >= color(v) + 1. A longer path is an
    error carrying the path itself, never a silent truncation.
    """
    graph = oriented_view(g)
    order = topological_order(graph)
    height = [0] * graph.n
    successor = [-1] * graph.n
    for u in reversed(order):
        for v in graph.out_neighbors(u):
            if height[v] + 1 > height[u]:
                height[u] = height[v] + 1
                successor[u] = v
    if graph.n > 0:
        top = max(range(graph.n), key=lambda v: (height[v], -v))
        if height[top] >= k:
            path = [top]
            while successor[path[-1]] != -1:
                path.append(successor[path[-1]])
            raise PathTooLong(path, k)
    return Coloring(assignment=tuple(height), palette=k, target=graph)


def path_clique(graph: OrientedGraph, path: list[int], n: int) -> list[int]:
    """The clique on the first n+1 vertices of a directed path in a class graph.

    In a power graph, vertices joined by a path inside one residue class are
    pairwise adjacent. Each pair is re-checked against ``graph``; a
    non-adjacent pair raises InconsistentLabels.
    """
    clique = sorted(path[: n + 1])
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            if not graph.has_und_edge(a, b):
                raise InconsistentLabels(path[: n + 1], (a, b))
    return clique


def bounded_color(g, n: int, part: ResiduePartition) -> Coloring:
    """Product coloring over per-class longest-path colorings.

    ``n`` is the caller's clique number for g and must be below the modulus.
    Each class graph is colored with bound n; a directed path of length n in
    any class graph certifies a clique of size n+1 in g, which is raised as
    CliqueTooLarge after the clique is re-checked edge by edge.
    """
    g = as_labeled(g)
    graph = g.graph
    if g.p is not None and n >= g.p:
        raise OrderNotLess(n, g.p)
    if n < 1:
        raise ValueError(f"clique order must be positive, got {n}")
    ep = edge_partition(g, part)
    per_class: list[tuple[int, ...]] = []
    for i in range(len(ep.classes)):
        try:
            coloring = longest_path_coloring(ep.class_graph(i), n)
        except PathTooLong as exc:
            raise CliqueTooLarge(path_clique(graph, exc.path, n), n) from exc
        per_class.append(coloring.assignment)

    phi = len(ep.classes)
    mixed = []
    tuples = []
    for v in range(graph.n):
        coords = tuple(per_class[i][v] for i in range(phi))
        code = 0
        for c in reversed(coords):
            code = code * n + c
        mixed.append(code)
        tuples.append(coords)
    return Coloring(
        assignment=tuple(mixed),
        palette=n**phi,
        target=graph,
        tuples=tuple(tuples),
    )


@dataclass(frozen=True, eq=False)
class ChiBoundResult:
    """The bounding value at clique order n, with every term's provenance.

    ``prime_terms`` maps each prime q <= n to (value, kind) where kind is
    "exact" when an exact chromatic number was supplied and "vertex-count"
    for the always-valid fallback upper bound; the substitution is flagged,
    never silent.
    """

    n: int
    bound: int
    polynomial_term: int
    prime_terms: tuple[tuple[int, int, str], ...]

    @property
    def substituted(self) -> bool:
        return any(kind == "vertex-count" for _, _, kind in self.prime_terms)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "polynomial_term": self.polynomial_term,
            "prime_terms": [
                {"prime": q, "value": v, "kind": kind} for q, v, kind in self.prime_terms
            ],
            "substituted": self.substituted,
        }


def chi_bound(
    n: int,
    params: ClassParameters,
    sizes: dict[int, int],
    exact_chi: dict[int, int] | None = None,
) -> ChiBoundResult:
    """Bounding function value at n: max of n^(n^2) and a per-prime term for
    every prime q <= n, preferring exact chromatic numbers over vertex counts."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    exact_chi = exact_chi or {}
    poly = n ** (n * n)
    terms = []
    for q in sieve_primes(n):
        if q in exact_chi:
            terms.append((q, int(exact_chi[q]), "exact"))
        elif q in sizes:
            terms.append((q, int(sizes[q]), "vertex-count"))
        else:
            raise MissingSize(q)
    bound = max([poly] + [v for _, v, _ in terms])
    return ChiBoundResult(
        n=n, bound=bound, polynomial_term=poly, prime_terms=tuple(terms)
    )
