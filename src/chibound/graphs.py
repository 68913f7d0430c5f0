"""Oriented-graph core: immutable carrier, the labeled graph built on it, DAG
utilities, the reachability closure labeled with unique-path distances, and
induced subgraphs.

Vertices are dense integer indices ``0..n-1``; every construction in this
package emits deterministic numbering so repeated runs are bit-for-bit
reproducible. A graph stores edge j once, as entry j of two parallel tuples
``tails`` and ``heads`` in canonical order (compressed sparse rows): u's
out-neighbours are the run of heads whose tail is u. The row offsets and
whether every edge descends are found on first use; ``edges`` builds the pairs
on each read, for callers outside the package. The oracles build their own
bitset rows and in-degrees from the two tuples.

``OrientedGraph(n, edges)`` validates and canonicalizes external input. The
package's builders call ``OrientedGraph._canonical``, which checks nothing: their
edges must be canonical (sorted ascending, unique, in ``0..n-1``, no self-loops).

Every graph the package builds descends (each edge u -> v has u > v), so its
descending index order is topological, and ``topological_order`` returns it;
external input need not descend, and gets Kahn's sort.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from operator import gt, index, itemgetter
from typing import Iterable

from .errors import CycleFound, MultiplePaths, UnknownVertex


class OrientedGraph:
    """A finite simple graph together with an orientation of its edges.

    Edge j runs from ``tails[j]`` to ``heads[j]``. Anti-parallel pairs
    ``(u, v), (v, u)`` are accepted at construction time so that cycle
    detection can report them as a 2-cycle; every acyclicity-certified graph
    produced by this package has at most one edge per unordered pair.
    Instances are immutable after construction and safe to share across
    threads: the row offsets and the descent fact are filled on first use,
    and a racing fill stores an equal value.
    """

    __slots__ = ("n", "tails", "heads", "_first", "_desc")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = index(n)  # vertex ids are integers: a float or a string raises TypeError
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        # ascending input sorts in linear time (a set would hand it hash order);
        # duplicates end up adjacent, and rebinding drops the sorted copy
        pairs = sorted([(index(u), index(v)) for u, v in edges])
        pairs = [e for e, nxt in zip(pairs, pairs[1:]) if e != nxt] + pairs[-1:]
        for u, v in pairs:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        self._set(n, map(itemgetter(0), pairs), map(itemgetter(1), pairs))

    @classmethod
    def _canonical(cls, n: int, tails, heads) -> OrientedGraph:
        """The builders' trusted path: ``zip(tails, heads)`` must be canonical (module docstring)."""
        (g := cls.__new__(cls))._set(n, tails, heads)
        return g

    def _set(self, n: int, tails, heads) -> None:
        self.n, self.tails, self.heads = n, tuple(tails), tuple(heads)
        self._first = self._desc = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (tail, head) pairs, canonical order, built on each read."""
        return tuple(zip(self.tails, self.heads))

    @property
    def m(self) -> int:
        return len(self.tails)

    def _row_starts(self) -> tuple[int, ...]:
        """u's out-edges are j in ``range(first[u], first[u + 1])``, first =
        ``_row_starts()``; found on first use by bisecting the sorted tails."""
        if self._first is None:
            self._first = tuple(map(bisect_left, repeat(self.tails, self.n + 1), range(self.n + 1)))
        return self._first

    def _descends(self) -> bool:
        """Whether every edge u -> v has u > v, found on first use."""
        if self._desc is None:
            self._desc = all(map(gt, self.tails, self.heads))
        return self._desc

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        first = self._row_starts()
        return self.heads[first[u] : first[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        first = self._row_starts()
        i = bisect_left(self.heads, v, first[u], first[u + 1])
        return i < first[u + 1] and self.heads[i] == v

    def has_und_edge(self, u: int, v: int) -> bool:
        return self.has_edge(u, v) or self.has_edge(v, u)

    def undirected_edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted pairs (u, v), u < v, of the undirected view. Each edge goes
        under its lower end; canonical order files a vertex's out-neighbours
        above it, then its in-neighbours above it, as two sorted runs, which
        the sort merges in linear time. An anti-parallel pair shows up in both
        and is kept once."""
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(self.tails, self.heads):
            if u < v:
                rows[u].append(v)
            else:
                rows[v].append(u)
        pairs: list[tuple[int, int]] = []
        for u, row in enumerate(rows):
            pairs += zip(repeat(u), dict.fromkeys(sorted(row)))
        return tuple(pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.n == other.n and self.tails == other.tails and self.heads == other.heads

    def __hash__(self) -> int:
        return hash((self.n, self.tails, self.heads))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """An oriented graph with the optional data of a residue-labeled graph.

    A base graph fills ``graph`` only. A reachability closure
    (``distance_table``) also fills ``labels``, with ``p`` None:
    ``labels[j]`` is the path length d of edge j, ``graph.tails[j]`` ->
    ``graph.heads[j]``. A power graph fills the modulus ``p`` as well, and
    its ``labels[j]`` is the residue d mod p. An induced subgraph inherits
    labels and modulus from its parent and records ``vertices``:
    ``vertices[i]`` is the parent id of the sub-vertex ``i``.
    """

    graph: OrientedGraph
    labels: tuple[int, ...] | None = None
    p: int | None = None
    vertices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.graph.m:
            raise ValueError(f"{len(self.labels)} residue labels for {self.graph.m} edges")

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.graph.n}, m={self.graph.m}, p={self.p})"


def oriented_view(obj) -> OrientedGraph:
    """Return the OrientedGraph of a graph or of a labeled graph."""
    return obj.graph if isinstance(obj, LabeledGraph) else obj


def as_labeled(obj) -> LabeledGraph:
    """Return a labeled graph as is, or wrap a bare graph without labels."""
    return obj if isinstance(obj, LabeledGraph) else LabeledGraph(obj)


def topological_order(g) -> range | list[int]:
    """A topological order of g, or CycleFound: descending index order, as a
    range, when every edge descends (u > v), as in every graph the package
    builds; otherwise Kahn's sort, its queue the list it walks."""
    g = oriented_view(g)
    if g._descends():
        return range(g.n - 1, -1, -1)
    indeg = [0] * g.n
    for v in g.heads:
        indeg[v] += 1
    order, first, heads = [v for v in range(g.n) if indeg[v] == 0], g._row_starts(), g.heads
    for u in order:  # the list grows while it is walked
        for v in heads[first[u] : first[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < g.n:
        raise CycleFound(_left_behind_cycle(g, indeg))
    return order


def _left_behind_cycle(g: OrientedGraph, indeg: list[int]) -> list[int]:
    """A directed cycle among the vertices that Kahn's sort left behind, those
    with ``indeg`` still positive. Each keeps an in-neighbour left behind, so
    walking back from the least of them repeats a vertex; the walk from its
    first visit on, reversed, is the cycle."""
    back = {v: u for u, v in zip(g.tails, g.heads) if indeg[u] and indeg[v]}
    trail, at, v = [], {}, min(back)
    while v not in at:
        at[v] = len(trail)
        trail.append(v)
        v = back[v]
    return trail[at[v] :][::-1]


def distance_table(g) -> LabeledGraph:
    """The reachability closure of g, labeled with path lengths: an edge
    u -> v labeled d for every v != u that u reaches, d the length of the one
    u -> v path, and ``p`` None. Raises CycleFound on a cycle and
    MultiplePaths on a pair reached through two paths. It serves any base;
    ``zykov.zykov_closure`` composes a tower's from its layout instead.

    The merge over out-neighbors rejects any pair reachable through two
    different branches, which is exactly the 0/1/>=2 path-count distinction
    (counts need never grow past 2). Each child w goes in as ``w: 1`` before
    its row, so the pair reported is the first one the merge meets twice,
    with u in reverse ``topological_order``: ascending index order on every
    graph the package builds.
    """
    g = oriented_view(g)
    order, first, heads = topological_order(g), g._row_starts(), g.heads
    rows: list[dict[int, int] | None] = [None] * g.n
    for u in reversed(order):
        row = {}
        for w in heads[first[u] : first[u + 1]]:
            if w in row:
                raise MultiplePaths(u, w)
            row[w] = 1
            for v, dwv in rows[w].items():
                if v in row:
                    raise MultiplePaths(u, v)
                row[v] = dwv + 1
        rows[u] = row
    # sorted rows in ascending u give canonical edges; each row is dropped as
    # it is emitted, so the dicts and the finished columns never all coexist
    tails, reached, labels = [], [], []
    for u in range(g.n):
        row, rows[u] = rows[u], None
        vs = sorted(row)
        tails += repeat(u, len(vs))
        reached += vs
        labels += map(row.__getitem__, vs)
    return LabeledGraph(OrientedGraph._canonical(g.n, tails, reached), tuple(labels))


def induced_subgraph(parent, vs: Iterable[int]) -> LabeledGraph:
    """Induce on a vertex subset, keeping exactly the inherited edges and labels.

    Only the out-edges of the chosen vertices are walked, so a call costs
    O(n + their out-degrees), not O(parent edges), after the first call on a
    parent has found its row offsets and whether it descends. The subgraph's
    own offsets are counted on the way. The renumbering is monotone, so the
    subgraph of a descending parent descends."""
    parent = as_labeled(parent)
    g, labels = parent.graph, parent.labels
    chosen = sorted(set(map(index, vs)))
    if chosen and not (0 <= chosen[0] and chosen[-1] < g.n):
        raise UnknownVertex(next(v for v in chosen if not 0 <= v < g.n), g.n)
    at = [-1] * g.n
    for new, old in enumerate(chosen):
        at[old] = new
    # the renumbering is monotone and each row is sorted, so kept edges stay
    # in canonical order. Labels are gathered on the same walk; an unlabeled
    # parent gathers its heads in their place, which are then dropped
    first, heads = g._row_starts(), g.heads
    row_labels = heads if labels is None else labels
    tails, sub_heads, sub_labels, starts = [], [], [], []
    for a, u in enumerate(chosen):
        starts.append(len(tails))
        for j in range(first[u], first[u + 1]):
            v = at[heads[j]]
            if v >= 0:
                tails.append(a)
                sub_heads.append(v)
                sub_labels.append(row_labels[j])
    starts.append(len(tails))
    sub = OrientedGraph._canonical(len(chosen), tails, sub_heads)
    sub._first = tuple(starts)
    sub._desc = g._descends() or None  # a parent that does not descend tells nothing
    return LabeledGraph(sub, None if labels is None else tuple(sub_labels), parent.p, tuple(chosen))
