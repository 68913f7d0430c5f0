import random
import tracemalloc

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
from helpers import class_colors


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


@pytest.mark.parametrize("seed", range(24))
def test_unlabeled_edge_names_the_first_bad_label_in_canonical_order(seed):
    """Labels 0, p, -1 and p + 5 planted at seeded edges of a power graph or
    an induced subgraph: both bounded_color and edge_partition name the edge
    and the label that a plain scan in canonical order finds first."""
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7))
    pg = build_power_graph(build_zykov(rng.choice((3, 4))), p)
    g = pg
    while (seed % 2 and g is pg) or g.graph.m == 0:
        g = induced_subgraph(pg, rng.sample(range(pg.graph.n), pg.graph.n // 2))
    labels = list(g.labels)
    for bad in rng.sample((0, p, -1, p + 5), rng.randint(1, 4)):
        labels[rng.randrange(len(labels))] = bad
    planted = LabeledGraph(g.graph, tuple(labels), p)
    j = next(j for j, r in enumerate(labels) if not 0 < r < p)
    expected = ((g.graph.tails[j], g.graph.heads[j]), labels[j])
    part = residue_partition(p, rng.randint(1, p - 1))
    for call in (lambda: bounded_color(planted, part.n, part), lambda: edge_partition(planted, part)):
        with pytest.raises(UnlabeledEdge) as exc:
            call()
        assert (exc.value.edge, exc.value.label) == expected
    # no labels at all: the first edge, with no label named
    for unlabeled in (g.graph, LabeledGraph(g.graph, None, p)):
        for call in (lambda: bounded_color(unlabeled, part.n, part), lambda: edge_partition(unlabeled, part)):
            with pytest.raises(UnlabeledEdge) as exc:
                call()
            assert (exc.value.edge, exc.value.label) == ((g.graph.tails[0], g.graph.heads[0]), None)
            assert "has no residue label" in str(exc.value)


def test_bounded_color_raises_in_a_fixed_order():
    """OrderTooLarge, then PrimeMismatch, then UnlabeledEdge, then CycleFound
    or a long path's CliqueTooLarge."""
    part = residue_partition(5, 2)
    cyclic = labeled(3, [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)], 5)
    long_path = labeled(3, [((0, 1), 1), ((1, 2), 1), ((0, 2), 2)], 5)
    with pytest.raises(CycleFound):
        bounded_color(cyclic, 2, part)
    with pytest.raises(CliqueTooLarge):
        bounded_color(long_path, 2, part)
    for g in (cyclic, long_path):
        bad = LabeledGraph(g.graph, g.labels[:-1] + (0,), 5)
        with pytest.raises(UnlabeledEdge):
            bounded_color(bad, 2, part)
        with pytest.raises(UnlabeledEdge):
            bounded_color(g.graph, 2, part)
        with pytest.raises(PrimeMismatch):
            bounded_color(LabeledGraph(g.graph, bad.labels, 7), 2, part)
        with pytest.raises(OrderTooLarge):
            bounded_color(LabeledGraph(g.graph, bad.labels, 7), 5, part)


def test_coloring_under_a_large_modulus_allocates_nothing_per_residue():
    """A subgraph of power(4, 999983) has labels of at most 3, so its class
    lookup stops there: bounded_color and edge_partition each peak far under
    1 MB, where one entry per residue 1..p-1 took about 63 MB."""
    p = 999983
    pg = build_power_graph(build_zykov(4), p)
    part = residue_partition(p, 3)  # outside the measured region
    rng = random.Random(0)
    sub = induced_subgraph(pg, rng.sample(range(pg.graph.n), 12))
    while max_clique(sub)[0] != 3:
        sub = induced_subgraph(pg, rng.sample(range(pg.graph.n), 12))
    for call in (lambda: bounded_color(sub, 3, part), lambda: edge_partition(sub, part)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
    # the decoded class colors differ per edge at the coordinate of the
    # edge's class
    colors = class_colors(col.assignment, n, len(part.classes))
    for (u, v), r in zip(pg.graph.edges, pg.labels):
        i = next(j for j, cls in enumerate(part.classes) if r in cls)
        assert colors[u][i] != colors[v][i]


def test_bounded_color_packs_the_class_colorings():
    pg = build_power_graph(build_zykov(4), 5)
    rng = random.Random(4)
    for _ in range(20):
        sub = induced_subgraph(pg, [v for v in range(pg.graph.n) if rng.random() < rng.random()])
        n = max(1, max_clique(sub)[0])
        part = residue_partition(5, n)
        col = bounded_color(sub, n, part)
        ep = edge_partition(sub, part)
        colors = class_colors(col.assignment, n, len(part.classes))
        for i in range(len(part.classes)):
            assignment = longest_path_coloring(ep.class_graph(i), n).assignment
            assert tuple(t[i] for t in colors) == assignment


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
    its own; the same edges in a fresh graph are walked twice. bounded_color
    on the subgraph walks tails and heads once too, and its labels once in
    the DP besides the min and max that check them: no pass builds a column
    of classes. A cyclic graph built by hand still raises CycleFound."""

    class Counting(tuple):
        walks = 0

        def __iter__(self):
            type(self).walks += 1
            return super().__iter__()

    class CountingLabels(Counting):
        walks = 0

    pg = build_power_graph(build_zykov(4), 3)
    part = residue_partition(3, 2)
    rng = random.Random(4)
    colored = 0
    for _ in range(10):
        sub = induced_subgraph(pg, rng.sample(range(pg.graph.n), rng.randint(2, pg.graph.n)))
        fresh = OrientedGraph._canonical(sub.graph.n, sub.graph.tails, sub.graph.heads)
        for g, walks in ((sub.graph, 1), (fresh, 2)):
            g.tails, g.heads = Counting(g.tails), Counting(g.heads)
            Counting.walks = 0
            h = [0] * g.n
            longest_paths(g, bytes(g.m), [h], [h], g.n + 1)
            assert Counting.walks == 2 * walks  # each walk reads both tuples
        counted = LabeledGraph(sub.graph, CountingLabels(sub.labels), sub.p)
        Counting.walks = CountingLabels.walks = 0
        try:
            bounded_color(counted, 2, part)
            colored += 1
        except CliqueTooLarge:  # raised after the DP has walked every edge
            pass
        assert (Counting.walks, CountingLabels.walks) == (2, 3)
    assert colored
    # a parent whose edges ascend passes on no fact, and Kahn's sort serves
    ascending = induced_subgraph(OrientedGraph(3, [(0, 1), (1, 2)]), [0, 1, 2]).graph
    h = [0] * 3
    longest_paths(ascending, bytes(2), [h], [h], 5)
    assert h == [2, 1, 0]
    with pytest.raises(CycleFound):
        longest_paths(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), bytes(3), [h], [h], 5)


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
