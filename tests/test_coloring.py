import random

import pytest

from chibound import (
    CliqueTooLarge,
    CycleFound,
    LabeledGraph,
    OrderTooLarge,
    OrientedGraph,
    PathTooLong,
    PrimeMismatch,
    UnlabeledEdge,
    bounded_color,
    build_power_graph,
    build_zykov,
    edge_partition,
    exact_chromatic_number,
    induced_subgraph,
    longest_path_coloring,
    max_clique,
    residue_partition,
    verify_proper,
)
from chibound.coloring import _longest_paths as longest_paths


def labeled(n, labeled_edges, p):
    """Ad-hoc residue-labeled graph for the coloring pipeline."""
    label_of = dict(labeled_edges)
    graph = OrientedGraph(n, label_of)
    return LabeledGraph(graph, tuple(label_of[e] for e in graph.edges), p)


def test_longest_path_coloring_on_a_path():
    col = longest_path_coloring(OrientedGraph(3, [(0, 1), (1, 2)]), 3)
    assert col.assignment == (2, 1, 0)
    assert col.palette == 3
    assert verify_proper(col).passed


def test_longest_path_coloring_single_vertex():
    assert longest_path_coloring(OrientedGraph(1), 1).assignment == (0,)


def test_longest_path_coloring_diamond():
    g = OrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    col = longest_path_coloring(g, 3)
    assert col.assignment == (2, 1, 1, 0)
    assert verify_proper(col).passed


def test_longest_path_coloring_rejects_long_paths_with_witness():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(PathTooLong) as exc:
        longest_path_coloring(g, 2)
    assert exc.value.path == [0, 1, 2]
    with pytest.raises(PathTooLong):
        longest_path_coloring(OrientedGraph(2, [(0, 1)]), 1)
    # ties: the lowest-indexed top vertex, then the lowest-indexed successor
    tied = OrientedGraph(7, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
    with pytest.raises(PathTooLong) as exc:
        longest_path_coloring(tied, 2)
    assert exc.value.path == [0, 1, 3]


def test_longest_path_coloring_rejects_cycles():
    with pytest.raises(CycleFound):
        longest_path_coloring(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), 5)


def test_edge_partition_splits_by_class():
    g = labeled(4, [((0, 1), 1), ((1, 2), 3), ((0, 2), 2), ((2, 3), 4)], 5)
    part = residue_partition(5, 2)  # A_1 = {1,2}, A_2 = {3,4}
    ep = edge_partition(g, part)
    assert ep.classes == (((0, 0), (1, 2)), ((1, 2), (2, 3)))
    assert ep.class_graph(1).edges == ((1, 2), (2, 3))


def test_edge_partition_empty_graph():
    ep = edge_partition(labeled(3, [], 5), residue_partition(5, 2))
    assert ep.classes == (((), ()), ((), ()))


def test_edge_partition_single_class_takes_all():
    g = labeled(3, [((0, 1), 1), ((1, 2), 2)], 5)
    ep = edge_partition(g, residue_partition(5, 1))
    assert ep.classes == (((0, 1), (1, 2)),)  # tails (0, 1), heads (1, 2)


def test_edge_partition_prime_mismatch():
    g = labeled(2, [((0, 1), 1)], 7)
    with pytest.raises(PrimeMismatch):
        edge_partition(g, residue_partition(5, 2))


def test_edge_partition_requires_labels():
    with pytest.raises(UnlabeledEdge):
        edge_partition(OrientedGraph(2, [(0, 1)]), residue_partition(5, 2))
    out_of_range = labeled(2, [((0, 1), 0)], 5)
    with pytest.raises(UnlabeledEdge):
        edge_partition(out_of_range, residue_partition(5, 2))


def test_bounded_color_edgeless_palette_one():
    col = bounded_color(labeled(4, [], 5), 1, residue_partition(5, 1))
    assert col.palette == 1
    assert col.assignment == (0, 0, 0, 0)


def test_bounded_color_single_edge():
    col = bounded_color(labeled(2, [((0, 1), 1)], 5), 2, residue_partition(5, 2))
    assert col.palette == 4  # 2^phi(2)
    assert verify_proper(col).passed


def test_bounded_color_requires_order_below_modulus():
    g = labeled(2, [((0, 1), 1)], 5)
    with pytest.raises(OrderTooLarge):
        bounded_color(g, 5, residue_partition(5, 4))
    with pytest.raises(OrderTooLarge):
        bounded_color(g, 0, residue_partition(5, 1))


def test_bounded_color_full_power_graph():
    pg = build_power_graph(build_zykov(4), 5)
    n, _ = max_clique(pg)
    assert n == 4
    part = residue_partition(5, n)
    col = bounded_color(pg, n, part)
    assert verify_proper(col).passed
    assert col.palette == n ** len(part.classes) <= n ** (n * n)
    # tuple view decodes the mixed-radix code and differs per edge at the
    # coordinate of the edge's class
    for v in range(pg.graph.n):
        code = col.assignment[v]
        for c in col.tuples[v]:
            assert code % n == c
            code //= n
    for (u, v), r in zip(pg.graph.edges, pg.labels):
        i = next(j for j, cls in enumerate(part.classes) if r in cls)
        assert col.tuples[u][i] != col.tuples[v][i]


def test_bounded_color_tuples_are_the_class_colorings():
    pg = build_power_graph(build_zykov(4), 5)
    rng = random.Random(4)
    for _ in range(20):
        sub = induced_subgraph(pg, [v for v in range(pg.graph.n) if rng.random() < rng.random()])
        n = max(1, max_clique(sub)[0])
        part = residue_partition(5, n)
        col = bounded_color(sub, n, part)
        ep = edge_partition(sub, part)
        for i in range(len(part.classes)):
            assignment = longest_path_coloring(ep.class_graph(i), n).assignment
            assert tuple(t[i] for t in col.tuples) == assignment


def test_bounded_color_builds_no_graph(monkeypatch):
    pg = build_power_graph(build_zykov(4), 5)
    part = residue_partition(5, 4)
    built = []
    init = OrientedGraph.__init__
    canonical = OrientedGraph._canonical

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_canonical(cls, *args):
        built.append(args)
        return canonical(*args)

    monkeypatch.setattr(OrientedGraph, "__init__", counting_init)
    monkeypatch.setattr(OrientedGraph, "_canonical", classmethod(counting_canonical))
    assert verify_proper(bounded_color(pg, 4, part)).passed
    assert built == []
    edge_partition(pg, part).class_graph(0)
    assert len(built) == 1


def test_longest_paths_takes_the_descent_fact_from_an_induced_subgraph():
    """An induced subgraph inherits its parent's descent fact, so the
    coloring DP walks its tails and heads once and runs no descent test of
    its own; the same edges in a fresh graph are walked twice. A cyclic
    graph built by hand still raises CycleFound."""

    class Counting(tuple):
        walks = 0

        def __iter__(self):
            Counting.walks += 1
            return super().__iter__()

    pg = build_power_graph(build_zykov(4), 3)
    rng = random.Random(4)
    for _ in range(10):
        sub = induced_subgraph(pg, rng.sample(range(pg.graph.n), rng.randint(2, pg.graph.n))).graph
        fresh = OrientedGraph._canonical(sub.n, sub.tails, sub.heads)
        for g, walks in ((sub, 1), (fresh, 2)):
            g.tails, g.heads = Counting(g.tails), Counting(g.heads)
            Counting.walks = 0
            longest_paths(g, [0] * g.m, 1, g.n + 1)
            assert Counting.walks == 2 * walks  # each walk reads both tuples
    # a parent whose edges ascend passes on no fact, and Kahn's sort serves
    ascending = induced_subgraph(OrientedGraph(3, [(0, 1), (1, 2)]), [0, 1, 2]).graph
    assert longest_paths(ascending, [0, 0], 1, 5) == [[2, 1, 0]]
    with pytest.raises(CycleFound):
        longest_paths(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), [0, 0, 0], 1, 5)


def test_bounded_color_rejects_a_cycle_across_acyclic_classes():
    # 0 -> 1 lies in class A_1 = {1, 2} and 1 -> 0 in A_2 = {3, 4}
    g = labeled(2, [((0, 1), 1), ((1, 0), 4)], 5)
    with pytest.raises(CycleFound):
        bounded_color(g, 2, residue_partition(5, 2))


def test_bounded_color_converts_long_path_to_clique():
    pg = build_power_graph(build_zykov(3), 3)
    omega, _ = max_clique(pg)
    assert omega == 3
    with pytest.raises(CliqueTooLarge) as exc:
        bounded_color(pg, 2, residue_partition(3, 2))
    clique = exc.value.clique
    assert exc.value.claimed == 2
    assert clique == [1, 2, 4]
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert pg.graph.has_und_edge(a, b)
    # both classes hold a long path; the first class in class order is reported
    g = labeled(
        6,
        [((0, 1), 3), ((1, 2), 3), ((0, 2), 1), ((3, 4), 1), ((4, 5), 1), ((3, 5), 3)],
        5,
    )
    with pytest.raises(CliqueTooLarge) as exc:
        bounded_color(g, 2, residue_partition(5, 2))
    assert exc.value.clique == [3, 4, 5]
    # three layers of three, every edge from a higher layer to a lower one;
    # edges into 3 and 0 lie in class A_2 = {4, 5, 6}, the rest in A_1, so
    # at each step several class-1 neighbours tie, and the lowest vertex one
    # lower (3, then 0) is reached only through class 2
    top, mid, bottom = (6, 7, 8), (3, 4, 5), (0, 1, 2)
    layers = ((top, mid), (mid, bottom), (top, bottom))
    pairs = [(u, v) for upper, lower in layers for u in upper for v in lower]
    g = labeled(9, [((u, v), 4 if v in (0, 3) else 1) for u, v in pairs], 7)
    with pytest.raises(CliqueTooLarge) as exc:
        bounded_color(g, 2, residue_partition(7, 2))
    assert exc.value.__cause__.path == [6, 4, 1] and exc.value.clique == [1, 4, 6]


def test_bounded_color_beats_exact_chi_on_small_instances():
    pg = build_power_graph(build_zykov(4), 5)
    n, _ = max_clique(pg)
    col = bounded_color(pg, n, residue_partition(5, n))
    assert exact_chromatic_number(pg) <= col.palette
