"""Edge partition by residue class, longest-path colorings, and the product
coloring that bounds the chromatic number of any power-graph subgraph by a
function of its clique number alone.

The pipeline distrusts its caller: if a residue class turns out to contain a
directed path of the forbidden length, the path converts into an explicit
clique one larger than the claimed clique number, and that witness is
re-checked against the graph before it is surfaced.

Edges are read from a graph's ``tails`` and ``heads``, with residue labels and
class indices parallel to them; an edge partition keeps each class the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import (
    CliqueTooLarge,
    InconsistentLabels,
    OrderTooLarge,
    PathTooLong,
    PrimeMismatch,
    UnlabeledEdge,
)
from .farey import ResiduePartition
from .graphs import LabeledGraph, OrientedGraph, as_labeled, oriented_view, topological_order


@dataclass(frozen=True, eq=False)
class Coloring:
    """A vertex coloring drawn from a palette {0..palette-1} for a stated graph."""

    assignment: tuple[int, ...]
    palette: int
    target: OrientedGraph
    tuples: tuple[tuple[int, ...], ...] | None = None

    def to_json_dict(self) -> dict:
        out = {"palette": self.palette, "assignment": list(self.assignment)}
        if self.tuples is not None:
            out["tuple_view"] = [list(t) for t in self.tuples]
        return out


def _edge_classes(g: LabeledGraph, part: ResiduePartition) -> list[int]:
    """The partition class of each edge's residue label, parallel to
    ``g.graph.tails`` and ``g.graph.heads``."""
    graph, labels = g.graph, g.labels
    if g.p is not None and g.p != part.p:
        raise PrimeMismatch(part.p, g.p)
    if labels is None and graph.m > 0:
        raise UnlabeledEdge((graph.tails[0], graph.heads[0]))
    index = {a: i for i, cls in enumerate(part.classes) for a in cls}
    classes = list(map(index.get, labels or ()))
    if None in classes:
        j = classes.index(None)
        raise UnlabeledEdge((graph.tails[j], graph.heads[j]), label=labels[j])
    return classes


class EdgePartition:
    """The edges of a labeled graph split by the residue class of their
    label: ``classes[i]`` holds the tails and the heads of class i. It is
    built from the graph alone, so each class is a subsequence of canonical
    edges and its class graph needs no checking."""

    __slots__ = ("n_vertices", "classes")

    def __init__(self, g, part: ResiduePartition):
        g = as_labeled(g)
        buckets: list[tuple[list[int], list[int]]] = [([], []) for _ in part.classes]
        for u, v, i in zip(g.graph.tails, g.graph.heads, _edge_classes(g, part)):
            buckets[i][0].append(u)
            buckets[i][1].append(v)
        self.n_vertices, self.classes = g.graph.n, tuple((tuple(t), tuple(h)) for t, h in buckets)

    def class_graph(self, i: int) -> OrientedGraph:
        return OrientedGraph._canonical(self.n_vertices, *self.classes[i])


def edge_partition(g, part: ResiduePartition) -> EdgePartition:
    """Split the edge set by which partition class each residue label lies in."""
    return EdgePartition(g, part)


def _longest_paths(graph: OrientedGraph, edge_class: list[int], phi: int, k: int) -> list[list[int]]:
    """Per class c < phi, the length of the longest directed path of class-c
    edges leaving each vertex; ``edge_class[j]`` is the class of edge j.

    The DP visits every vertex after its out-neighbours, for all classes at
    once. If every edge descends (u > v), which the graph finds once and
    keeps, that is canonical edge order, tails ascending; otherwise the
    edges are sorted by their tail's place in ``topological_order``, which
    raises CycleFound on a cycle. A class whose longest path reaches length
    k raises PathTooLong, the first such class in class order: the path,
    rebuilt from the heights alone, starts at the lowest-indexed vertex of
    greatest height and steps to the lowest-indexed class-c out-neighbour
    one lower, whatever the order.
    """
    edges = zip(graph.tails, graph.heads, edge_class)
    if not graph._descends():
        rank = {u: i for i, u in enumerate(topological_order(graph))}
        edges = sorted(edges, key=lambda edge: -rank[edge[0]])
    height = [[0] * graph.n for _ in range(phi)]
    for u, v, c in edges:
        h = height[c]
        if h[v] >= h[u]:
            h[u] = h[v] + 1
    for c, h in enumerate(height):
        if h and max(h) >= k:
            path, first = [h.index(max(h))], graph._row_starts()
            while h[u := path[-1]]:
                row = range(first[u], first[u + 1])
                j = next(j for j in row if edge_class[j] == c and h[graph.heads[j]] == h[u] - 1)
                path.append(graph.heads[j])
            raise PathTooLong(path, k)
    return height


def longest_path_coloring(g, k: int) -> Coloring:
    """Color each vertex by the length of the longest directed path leaving it.

    Proper on any acyclic graph whose longest directed path is shorter than k,
    because an edge u -> v forces color(u) >= color(v) + 1. A longer path is an
    error carrying the path itself, never a silent truncation.
    """
    graph = oriented_view(g)
    (height,) = _longest_paths(graph, [0] * graph.m, 1, k)
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

    ``n`` is the caller's clique number for g; an n outside 1..p-1 of the
    partition's modulus p raises OrderTooLarge, as residue_partition does.
    Each residue class is colored with bound n in one pass over the labeled
    edges; a directed path of length n inside any class certifies a clique of
    size n+1 in g, which is raised as CliqueTooLarge after the clique is
    re-checked edge by edge. A directed cycle in g raises CycleFound.
    """
    g = as_labeled(g)
    graph = g.graph
    if not 1 <= n < part.p:
        raise OrderTooLarge(n, part.p)
    edge_class = _edge_classes(g, part)
    phi = len(part.classes)
    try:
        per_class = _longest_paths(graph, edge_class, phi, n)
    except PathTooLong as exc:
        raise CliqueTooLarge(path_clique(graph, exc.path, n), n) from exc

    # the mixed-radix code sum_c per_class[c][v] * n**c, one pass per class
    mixed = [0] * graph.n
    for h in reversed(per_class):
        mixed = list(map(add, map(n.__mul__, mixed), h))
    return Coloring(
        assignment=tuple(mixed),
        palette=n**phi,
        target=graph,
        tuples=tuple(zip(*per_class)),
    )
