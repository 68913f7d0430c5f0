import pytest

from chibound import (
    CliqueTooLarge,
    CycleFound,
    LabeledGraph,
    MissingSize,
    OrderNotLess,
    OrientedGraph,
    PathTooLong,
    PrimeMismatch,
    UnlabeledEdge,
    bounded_color,
    build_power_graph,
    build_zykov,
    chi_bound,
    class_parameters,
    edge_partition,
    exact_chromatic_number,
    longest_path_coloring,
    max_clique,
    residue_partition,
    tabulate_f,
    verify_proper,
)


def labeled(n, labeled_edges, p):
    """Ad-hoc residue-labeled graph for the coloring pipeline."""
    return LabeledGraph(
        OrientedGraph(n, [e for e, _ in labeled_edges]),
        {e: r for e, r in labeled_edges},
        p,
    )


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


def test_longest_path_coloring_rejects_cycles():
    with pytest.raises(CycleFound):
        longest_path_coloring(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]), 5)


def test_edge_partition_splits_by_class():
    g = labeled(4, [((0, 1), 1), ((1, 2), 3), ((0, 2), 2), ((2, 3), 4)], 5)
    part = residue_partition(5, 2)  # A_1 = {1,2}, A_2 = {3,4}
    ep = edge_partition(g, part)
    assert ep.classes == (((0, 1), (0, 2)), ((1, 2), (2, 3)))
    assert ep.class_graph(1).edges == ((1, 2), (2, 3))


def test_edge_partition_empty_graph():
    ep = edge_partition(labeled(3, [], 5), residue_partition(5, 2))
    assert ep.classes == ((), ())


def test_edge_partition_single_class_takes_all():
    g = labeled(3, [((0, 1), 1), ((1, 2), 2)], 5)
    ep = edge_partition(g, residue_partition(5, 1))
    assert ep.classes == (((0, 1), (1, 2)),)


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
    with pytest.raises(OrderNotLess):
        bounded_color(g, 5, residue_partition(5, 4))
    with pytest.raises(ValueError):
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
    for e, r in pg.labels.items():
        i = part.class_of(r)
        u, v = e
        assert col.tuples[u][i] != col.tuples[v][i]


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


def test_bounded_color_beats_exact_chi_on_small_instances():
    pg = build_power_graph(build_zykov(4), 5)
    n, _ = max_clique(pg)
    col = bounded_color(pg, n, residue_partition(5, n))
    assert exact_chromatic_number(pg) <= col.palette


def test_chi_bound_trivial_order():
    res = chi_bound(1, class_parameters(tabulate_f("n^2", 2), 2), {})
    assert res.bound == 1 and res.prime_terms == ()


def test_chi_bound_substitutes_vertex_counts():
    params = class_parameters(tabulate_f("n^2", 2), 2)
    res = chi_bound(2, params, {2: 18})
    assert res.bound == 18  # max(2^4, 18)
    assert res.substituted
    assert res.prime_terms == ((2, 18, "vertex-count"),)


def test_chi_bound_prefers_exact_values():
    params = class_parameters(tabulate_f("n^2", 2), 2)
    res = chi_bound(2, params, {2: 18}, exact_chi={2: 4})
    assert res.bound == 16  # max(2^4, 4)
    assert not res.substituted
    assert res.to_json_dict()["prime_terms"] == [
        {"prime": 2, "value": 4, "kind": "exact"}
    ]


def test_chi_bound_missing_prime_data():
    params = class_parameters(tabulate_f("n^2", 3), 3)
    with pytest.raises(MissingSize):
        chi_bound(3, params, {2: 18})
