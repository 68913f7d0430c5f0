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

``build_zykov`` returns a plain ``LabeledGraph`` that fills ``graph`` only.
The layout fixes where every vertex came from, so nothing is recorded per
vertex while building: ``provenance_json_dict(k)`` derives each vertex's
creation level, top-level copy and transversal from k alone, for output.
"""

from __future__ import annotations

from itertools import chain, count, product, repeat
from typing import Iterator

from .errors import SizeBudgetExceeded
from .graphs import LabeledGraph, OrientedGraph

DEFAULT_SIZE_CAP = 10**6


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


def build_zykov(k: int, size_cap: int = DEFAULT_SIZE_CAP) -> LabeledGraph:
    """Build the level-k tower graph with its acyclic orientation."""
    capped_size(k, size_cap)

    levels = [OrientedGraph._canonical(1, (), ())]
    while len(levels) < k:
        levels.append(_compose(levels))
    return LabeledGraph(levels[k - 1])


def _compose(levels: list[OrientedGraph]) -> OrientedGraph:
    """One tower step: copies of every built level, plus one apex per transversal.
    Copies in level order, then apexes in order, emit the edges canonically."""
    ranges: list[range] = []  # each copy's vertices
    total = 0
    for g in levels:
        ranges.append(range(total, total + g.n))
        total += g.n

    tails: list[int] = []
    heads: list[int] = []
    for r, g in zip(ranges, levels):
        tails += map(r.start.__add__, g.tails)
        heads += map(r.start.__add__, g.heads)

    apex = total
    for transversal in product(*ranges):
        tails += repeat(apex, len(transversal))
        heads += transversal
        apex += 1

    return OrientedGraph._canonical(apex, tails, heads)


def zykov_closure(k: int, size_cap: int = DEFAULT_SIZE_CAP) -> LabeledGraph:
    """``distance_table(build_zykov(k))``, composed from the layout with no
    merge and no sort. An apex's chosen vertices lie in distinct copies with
    disjoint closures, so its row is, copy by copy in layout order, the chosen
    vertex's row shifted by the copy's offset with each length + 1, then the
    chosen vertex at length 1; a copy's rows are its level's rows, shifted.
    Every row comes out sorted. The layout is trusted as ``_compose`` trusts
    it; ``verify_unique_paths`` certifies the tower on its own."""
    n, _ = capped_size(k, size_cap)
    flat = chain.from_iterable
    # (heads, lengths) of each row of the levels below; level 1 is the apex of no copies
    levels: list[tuple[list, list]] = []
    while True:
        heads, lengths, via_heads, via_lengths = [], [], [], []
        for level_heads, level_lengths in levels:
            offset = len(heads)
            shifted = [tuple(map(offset.__add__, row)) for row in level_heads]
            heads += shifted
            lengths += level_lengths
            via_heads.append([row + (v,) for v, row in enumerate(shifted, offset)])
            via_lengths.append([(*map((1).__add__, row), 1) for row in level_lengths])
        if len(levels) == k - 1:
            break
        heads += map(tuple, map(flat, product(*via_heads)))
        lengths += map(tuple, map(flat, product(*via_lengths)))
        levels.append((heads, lengths))
    # level k's apex rows go straight into the columns, with no tuple per row
    apex_sizes = map(sum, product(*[list(map(len, rows)) for rows in via_heads]))
    tails = chain(flat(map(repeat, count(), map(len, heads))), flat(map(repeat, count(len(heads)), apex_sizes)))
    graph = OrientedGraph._canonical(n, tails, chain(flat(heads), flat(flat(product(*via_heads)))))
    return LabeledGraph(graph, tuple(chain(flat(lengths), flat(flat(product(*via_lengths))))))


def provenance_json_dict(k: int) -> dict:
    """JSON-ready provenance sidecar of build_zykov(k): vertex index -> the
    level that created it, the top-level copy holding it (None for vertices
    created at level k) and its creation transversal (None for base vertices).

    The layout alone fixes these, so they are derived from k: copies of
    levels 1..k-1 in order, each vertex keeping the level and transversal it
    has in its own tower, then level k's apexes numbered 0, 1, ...; level 1 is
    the one base vertex.
    """
    towers: list[list[tuple[int, int | None]]] = []  # (level, transversal) per vertex of each level
    for level, (n, _) in enumerate(_level_sizes(k), start=1):
        below = [tag for tower in towers for tag in tower]
        created = [(level, t) for t in range(n - len(below))] if level > 1 else [(1, None)]
        towers.append(below + created)
    vertices = [
        {"level": lv, "copy": c, "transversal": t} for c, tower in enumerate(towers[:-1], start=1) for lv, t in tower
    ]
    vertices += [{"level": lv, "copy": None, "transversal": t} for lv, t in created]
    return {"k": k, "vertices": vertices}
