"""Edge partition by residue class, longest-path colorings, and the product
coloring that bounds the chromatic number of any power-graph subgraph by a
function of its clique number alone.

The pipeline distrusts its caller: if a residue class turns out to contain a
directed path of the forbidden length, the path converts into an explicit
clique one larger than the claimed clique number, and that witness is
re-checked against the graph before it is surfaced.

Edges are read from a graph's ``tails`` and ``heads``, with the residue labels
parallel to them. A table indexed by residue, up to the largest label, maps each
label to its class's entry, so no column of class indices is built; an edge
partition keeps each class as tails and heads the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

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

    def to_json_dict(self) -> dict:
        return {"palette": self.palette, "assignment": list(self.assignment)}


def _label_table(g: LabeledGraph, part: ResiduePartition, rows: list) -> tuple[tuple[int, ...], list]:
    """g's residue labels, parallel to ``g.graph.tails`` and ``g.graph.heads``,
    and the table whose entry r is ``rows[c]`` for the class c that holds
    residue r. The classes are consecutive intervals of 1..p-1 in order, so
    the table stops at the largest label. An edge whose label lies outside
    1..p-1, the first in canonical order, raises UnlabeledEdge."""
    graph, labels = g.graph, g.labels
    if g.p is not None and g.p != part.p:
        raise PrimeMismatch(part.p, g.p)
    if labels is None and graph.m > 0:
        raise UnlabeledEdge((graph.tails[0], graph.heads[0]))
    top = max(labels) if labels else 0
    if labels and not (0 < min(labels) and top < part.p):
        j = next(j for j, r in enumerate(labels) if not 0 < r < part.p)
        raise UnlabeledEdge((graph.tails[j], graph.heads[j]), label=labels[j])
    table = [None]
    for cls, row in zip(part.classes, rows):
        if len(table) > top:
            break
        table += repeat(row, min(len(cls), top + 1 - len(table)))
    return labels or (), table


class EdgePartition:
    """The edges of a labeled graph split by the residue class of their
    label: ``classes[i]`` holds the tails and the heads of class i. It is
    built from the graph alone, so each class is a subsequence of canonical
    edges and its class graph needs no checking."""

    __slots__ = ("n_vertices", "classes")

    def __init__(self, g, part: ResiduePartition):
        g = as_labeled(g)
        buckets: list[tuple[list[int], list[int]]] = [([], []) for _ in part.classes]
        labels, of_label = _label_table(g, part, buckets)
        for u, v, r in zip(g.graph.tails, g.graph.heads, labels):
            tails, heads = of_label[r]
            tails.append(u)
            heads.append(v)
        self.n_vertices, self.classes = g.graph.n, tuple((tuple(t), tuple(h)) for t, h in buckets)

    def class_graph(self, i: int) -> OrientedGraph:
        return OrientedGraph._canonical(self.n_vertices, *self.classes[i])


def edge_partition(g, part: ResiduePartition) -> EdgePartition:
    """Split the edge set by which partition class each residue label lies in."""
    return EdgePartition(g, part)


def _longest_paths(graph: OrientedGraph, labels, height: list[list[int]], of_label: list, k: int) -> None:
    """Fill ``height[c]``, for every class c at once, with the length of the
    longest directed path of class-c edges leaving each vertex. Edge j is in
    the class whose list is ``of_label[labels[j]]``, so the DP reads the
    labels as it goes and builds no column of classes.

    The DP visits every vertex after its out-neighbours. If every edge
    descends (u > v), which the graph finds once and keeps, that is
    canonical edge order, tails ascending; otherwise the edges are sorted by
    their tail's place in ``topological_order``, which raises CycleFound on
    a cycle. A class whose longest path reaches length k raises PathTooLong,
    the first such class in class order: the path, rebuilt from the heights
    alone, starts at the lowest-indexed vertex of greatest height and steps
    to the lowest-indexed class-c out-neighbour one lower, whatever the order.
    """
    edges = zip(graph.tails, graph.heads, labels)
    if not graph._descends():
        rank = {u: i for i, u in enumerate(topological_order(graph))}
        edges = sorted(edges, key=lambda edge: -rank[edge[0]])
    for u, v, r in edges:
        h = of_label[r]
        if h[v] >= h[u]:
            h[u] = h[v] + 1
    for h in height:
        if h and max(h) >= k:
            path, first, heads = [h.index(max(h))], graph._row_starts(), graph.heads
            while h[u := path[-1]]:
                row = range(first[u], first[u + 1])
                j = next(j for j in row if of_label[labels[j]] is h and h[heads[j]] == h[u] - 1)
                path.append(heads[j])
            raise PathTooLong(path, k)


def longest_path_coloring(g, k: int) -> Coloring:
    """Color each vertex by the length of the longest directed path leaving it.

    Proper on any acyclic graph whose longest directed path is shorter than k,
    because an edge u -> v forces color(u) >= color(v) + 1. A longer path is an
    error carrying the path itself, never a silent truncation.
    """
    graph = oriented_view(g)
    height = [0] * graph.n
    _longest_paths(graph, bytes(graph.m), [height], [height], k)  # every edge labeled 0, one class
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
            if not graph.has_und_edge(b, a):  # b -> a first: a built graph descends
                raise InconsistentLabels(path[: n + 1], (a, b))
    return clique


def bounded_color(g, n: int, part: ResiduePartition) -> Coloring:
    """Product coloring over per-class longest-path colorings.

    ``n`` is the caller's clique number for g; an n outside 1..p-1 of the
    partition's modulus p raises OrderTooLarge, as residue_partition does.
    Each residue class is colored with bound n in one pass over the edges and
    their labels, each label looked up in a table that stops at the largest;
    a directed path of length n inside any class certifies a clique of
    size n+1 in g, which is raised as CliqueTooLarge after the clique is
    re-checked edge by edge. A directed cycle in g raises CycleFound.
    The assignment packs the class colors mixed-radix: class c's color of
    vertex v is ``assignment[v] // n**c % n``.
    """
    g = as_labeled(g)
    graph = g.graph
    if not 1 <= n < part.p:
        raise OrderTooLarge(n, part.p)
    height = [[0] * graph.n for _ in part.classes]
    labels, of_label = _label_table(g, part, height)
    try:
        _longest_paths(graph, labels, height, of_label, n)
    except PathTooLong as exc:
        raise CliqueTooLarge(path_clique(graph, exc.path, n), n) from exc

    # the mixed-radix code sum_c height[c][v] * n**c; a class with no edge adds 0
    mixed = [0] * graph.n
    for c, h in enumerate(height):
        if any(h):
            w = n**c
            mixed = [a + w * b for a, b in zip(mixed, h)]
    return Coloring(assignment=tuple(mixed), palette=n ** len(height), target=graph)
