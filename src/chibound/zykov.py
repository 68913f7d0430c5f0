"""Triangle-free base graphs with prescribed chromatic number.

``build_zykov(k)`` produces the k-th member of a recursive tower: level 1 is a
single vertex, and level k+1 takes disjoint copies of levels 1..k plus one new
apex vertex per transversal (one chosen vertex per copy), with every apex edge
oriented apex -> chosen vertex. The result is triangle-free, acyclically
oriented, has chromatic number k, and joins every reachable pair of vertices
by exactly one directed path. Those four properties are not trusted: the
oracles module re-derives them on every instance the test suite builds.

Vertex numbering is deterministic: copies are laid out consecutively in level
order, then apexes in lexicographic transversal order, so runs are
reproducible bit-for-bit. Apexes come after the copies they point into, so
every edge descends (u -> v, u > v), and power graphs and subgraphs inherit it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import SizeBudgetExceeded
from .graphs import LabeledGraph, OrientedGraph

DEFAULT_SIZE_CAP = 10**6


@dataclass(frozen=True)
class VertexTag:
    """Where a vertex came from.

    ``level`` is the construction level that created the vertex (1 for base
    vertices, the apex's level otherwise), ``copy`` is the 1-based top-level
    copy containing it (None for vertices created at the top level), and
    ``transversal`` is the creation transversal index for apex vertices.
    """

    level: int
    copy: int | None
    transversal: int | None

    def as_dict(self) -> dict:
        return {"level": self.level, "copy": self.copy, "transversal": self.transversal}


@dataclass(frozen=True, eq=False, kw_only=True)
class ZykovGraph(LabeledGraph):
    """A tower graph: an unlabeled LabeledGraph with its level and provenance."""

    k: int
    provenance: tuple[VertexTag, ...]

    def copy_vertices(self, j: int) -> list[int]:
        """Vertices of the embedded level-j copy (ascending, contiguous)."""
        return [v for v, tag in enumerate(self.provenance) if tag.copy == j]

    def level_coloring(self) -> list[int]:
        """The proper coloring induced by creation levels (color = level - 1).

        Every edge runs from an apex to a strictly lower-level vertex, so
        levels strictly decrease along edges.
        """
        return [tag.level - 1 for tag in self.provenance]

    def __repr__(self) -> str:
        return f"ZykovGraph(k={self.k}, n={self.graph.n}, m={self.graph.m})"


def _level_sizes(k: int) -> Iterator[tuple[int, int]]:
    """(vertices, edges) of levels 1..k from the size recurrence

    v_{j+1} = sum(v_1..v_j) + prod(v_1..v_j);
    e_{j+1} = sum(e_1..e_j) + j * prod(v_1..v_j),

    walked with a running sum and product. The vertex counts strictly grow.
    """
    if k < 1:
        raise ValueError(f"level must be positive, got {k}")
    v, e = 1, 0
    vsum, esum, vprod = 0, 0, 1
    yield v, e
    for j in range(1, k):
        vsum, esum, vprod = vsum + v, esum + e, vprod * v
        v, e = vsum + vprod, esum + j * vprod
        yield v, e


def predict_size(k: int) -> tuple[int, int]:
    """Exact (vertices, edges) of build_zykov(k) from the size recurrence.
    Pure big-integer arithmetic; grows superexponentially."""
    *_, size = _level_sizes(k)
    return size


def capped_size(k: int, size_cap: int) -> tuple[int, int]:
    """predict_size(k), refused with SizeBudgetExceeded at the first level
    whose vertex count is above size_cap, so a tower far above the cap is
    refused without computing its size. Below level k that count is a lower
    bound, and the message says "at least"."""
    for level, (pv, pe) in enumerate(_level_sizes(k), start=1):
        if pv > size_cap:
            raise SizeBudgetExceeded(pv, size_cap, exact=level == k)
    return pv, pe


def build_zykov(k: int, size_cap: int = DEFAULT_SIZE_CAP) -> ZykovGraph:
    """Build the level-k tower graph with its acyclic orientation and provenance."""
    capped_size(k, size_cap)

    levels: list[ZykovGraph] = [
        ZykovGraph(OrientedGraph._canonical(1, (), ()), k=1, provenance=(VertexTag(1, None, None),))
    ]
    while len(levels) < k:
        levels.append(_compose(levels))
    return levels[k - 1]


def _compose(levels: list[ZykovGraph]) -> ZykovGraph:
    """One tower step: copies of every built level, plus one apex per transversal.
    Copies in level order, then apexes in order, emit the edges canonically."""
    new_level = len(levels) + 1
    offsets = []
    total = 0
    for zg in levels:
        offsets.append(total)
        total += zg.graph.n

    tails: list[int] = []
    heads: list[int] = []
    tags: list[VertexTag] = []
    for i, zg in enumerate(levels):
        off = offsets[i]
        tails += map(off.__add__, zg.graph.tails)
        heads += map(off.__add__, zg.graph.heads)
        # copy membership is re-tagged to the new top level
        tags.extend(
            VertexTag(t.level, i + 1, t.transversal) for t in zg.provenance
        )

    ranges = [range(offsets[i], offsets[i] + levels[i].graph.n) for i in range(len(levels))]
    apex = total
    for t_index, transversal in enumerate(itertools.product(*ranges)):
        tails += itertools.repeat(apex, len(transversal))
        heads += transversal
        tags.append(VertexTag(new_level, None, t_index))
        apex += 1

    return ZykovGraph(OrientedGraph._canonical(apex, tails, heads), k=new_level, provenance=tuple(tags))


def provenance_json_dict(zg: ZykovGraph) -> dict:
    """JSON-ready provenance sidecar: vertex index -> tag."""
    return {"k": zg.k, "vertices": [tag.as_dict() for tag in zg.provenance]}
