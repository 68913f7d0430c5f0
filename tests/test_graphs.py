import random
import time

import pytest
from hypothesis import given, strategies as st

import chibound.coloring as coloring
from chibound import (
    CycleFound,
    LabeledGraph,
    MultiplePaths,
    OrientedGraph,
    UnknownVertex,
    UnlabeledEdge,
    bounded_color,
    build_power_graph,
    build_zykov,
    distance_table,
    edge_partition,
    exact_chromatic_number,
    graph_json_dict,
    induced_subgraph,
    max_clique,
    read_edgelist,
    residue_partition,
    topological_order,
    verify_no_long_path,
    verify_proper,
    verify_triangle_free,
    verify_unique_paths,
    write_dimacs,
    write_edgelist,
)
from chibound.cli import main
from chibound.formats import _read_lines
from chibound.oracles import _kahn
from helpers import random_dag


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 0)])


def test_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, edges",
    [
        (3.9, [(1.7, 0.2), ("2", True)]),
        (3.0, []),
        ("3", []),
        (3, [(1.0, 0)]),
        (3, [(2, "1")]),
        (True, []),
        (3, [(True, 0)]),
        (3, [(2, 1), (2, False)]),
    ],
)
def test_vertex_count_and_edge_ends_must_be_integers(n, edges):
    # int() would truncate 1.7 to 1 and parse "2" with no error, and
    # operator.index() would read True as vertex 1
    with pytest.raises(TypeError):
        OrientedGraph(n, edges)


def test_edges_are_canonical_and_deduplicated():
    g = OrientedGraph(3, [(2, 1), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (2, 1))
    assert g.m == 2


@given(st.data())
def test_shuffled_repeated_edges_give_the_canonical_graph(data):
    n = data.draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=40)) if n > 1 else []
    noisy = data.draw(st.permutations(edges + edges[: data.draw(st.integers(0, len(edges)))]))
    g = OrientedGraph(n, iter(noisy))
    canon = sorted(set(edges))
    assert g.edges == tuple(canon) and g == OrientedGraph(n, canon)
    assert g.undirected_edges() == tuple(sorted({(min(e), max(e)) for e in canon}))
    for u in range(n):
        assert g.out_neighbors(u) == tuple(v for a, v in canon if a == u)
        for v in range(n):
            assert g.has_und_edge(u, v) == ((u, v) in canon or (v, u) in canon)
            assert g.has_edge(u, v) == ((u, v) in canon)


@pytest.mark.parametrize("seed", range(20))
def test_undirected_edges_match_the_sorted_set_of_pairs(seed):
    # both directions of a pair may be present; the undirected view keeps it once
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.15]
    g = OrientedGraph(n, edges)
    assert g.undirected_edges() == tuple(sorted({(min(e), max(e)) for e in edges}))


def test_neighbor_and_bitset_views_agree():
    g = OrientedGraph(4, [(0, 1), (0, 2), (3, 1)])
    assert g.out_neighbors(0) == (1, 2)
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert g.has_und_edge(1, 0)
    assert g.undirected_edges() == ((0, 1), (0, 2), (1, 3))


def test_topological_order_single_vertex():
    assert list(topological_order(OrientedGraph(1))) == [0]


def test_topological_order_path():
    assert topological_order(OrientedGraph(3, [(0, 1), (1, 2)])) == [0, 1, 2]


def test_topological_order_two_cycle():
    with pytest.raises(CycleFound) as exc:
        topological_order(OrientedGraph(2, [(0, 1), (1, 0)]))
    assert sorted(exc.value.cycle) == [0, 1]


def test_cycle_witness_is_a_real_cycle():
    g = OrientedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    with pytest.raises(CycleFound) as exc:
        topological_order(g)
    cyc = exc.value.cycle
    assert len(cyc) >= 2
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.has_edge(a, b)


def test_a_long_ring_behind_a_pendant_tail_is_the_cycle():
    """A ring of 200,000 vertices 100..199,999, each to the next, and a tail
    leaving it, 100 -> 99 -> ... -> 0, whose vertices Kahn's sort also leaves
    behind and which holds the least of them. Both cycle searches return
    exactly the ring, without recursion, each within a couple of seconds."""
    n, tail = 200_100, 100
    ring = list(range(tail, n))
    edges = list(zip(ring, ring[1:] + ring[:1])) + [(v + 1, v) for v in range(tail)]
    g = OrientedGraph(n, edges)

    def as_ring(cycle):  # the rotation that starts at the ring's least vertex
        i = cycle.index(tail)
        return cycle[i:] + cycle[:i]

    started = time.process_time()
    with pytest.raises(CycleFound) as exc:
        topological_order(g)
    assert as_ring(exc.value.cycle) == ring
    assert time.process_time() - started < 2
    started = time.process_time()
    r = verify_unique_paths(g)
    assert r.verdict == "fail" and as_ring(r.witness["cycle"]) == ring
    assert time.process_time() - started < 2


def test_distance_table_path():
    t = distance_table(OrientedGraph(3, [(0, 1), (1, 2)]))
    assert t.p is None and t.vertices is None
    assert list(zip(t.graph.tails, t.graph.heads, t.labels)) == [(0, 1, 1), (0, 2, 2), (1, 2, 1)]
    assert not t.graph.has_edge(2, 0)  # an unreachable pair is absent
    assert not any(t.graph.has_edge(u, u) for u in range(3))  # no diagonal edge


def test_distance_table_single_vertex():
    t = distance_table(OrientedGraph(1))
    assert t.graph == OrientedGraph(1) and t.labels == () and t.p is None
    assert not t.graph.has_edge(0, 0)


def test_distance_table_diamond_reports_duplicate():
    g = OrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(MultiplePaths) as exc:
        distance_table(g)
    assert (exc.value.u, exc.value.v) == (0, 3)


def test_distance_table_cycle_reports_cycle():
    with pytest.raises(CycleFound):
        distance_table(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_distances_telescope_on_unique_path_graphs():
    # with unique paths, any w between u and v lies on THE u->v path
    zg = build_zykov(4)
    t = distance_table(zg.graph)
    assert t.graph == OrientedGraph(t.graph.n, t.graph.edges)  # canonical, loop-free
    d = dict(zip(t.graph.edges, t.labels))
    rows: dict[int, dict[int, int]] = {}
    for (u, v), duv in d.items():
        rows.setdefault(u, {})[v] = duv
    for u, row in rows.items():
        for w, duw in row.items():
            for v, dwv in rows.get(w, {}).items():
                assert d[(u, v)] == duw + dwv


def test_induced_subgraph_full_subset_is_identity():
    g = OrientedGraph(4, [(0, 1), (2, 3)])
    sub = induced_subgraph(g, range(4))
    assert sub.graph.edges == g.edges
    assert sub.vertices == (0, 1, 2, 3)


def test_induced_subgraph_drops_edges_with_missing_endpoint():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    sub = induced_subgraph(g, [0, 2])
    assert sub.graph.n == 2 and sub.graph.m == 0


def test_induced_subgraph_empty_subset():
    sub = induced_subgraph(OrientedGraph(3, [(0, 1)]), [])
    assert sub.graph.n == 0


def test_induced_subgraph_unknown_vertex():
    # the least vertex out of range is reported
    g = OrientedGraph(5, [(0, 1), (3, 2)])
    for vs, bad in [([0, 5], 5), ([7, 0, 5], 5), ([-1, 2], -1), ([3, -4, 1, -2, 9], -4), ([-5, 5], -5)]:
        with pytest.raises(UnknownVertex) as exc:
            induced_subgraph(g, vs)
        assert (exc.value.vertex, exc.value.n_vertices) == (bad, 5)


@pytest.mark.parametrize("vs", [[0.9, 1.2, "4"], [0, 1.0], ["4"], [True, 2], [0, False]])
def test_induced_subgraph_vertices_must_be_integers(vs):
    # int() would keep vertices 0, 1 and 4 of [0.9, 1.2, "4"], and
    # operator.index() vertices 1 and 2 of [True, 2]
    with pytest.raises(TypeError):
        induced_subgraph(build_power_graph(build_zykov(3), 3), vs)


def _scrambled_labeled_graph(seed: int) -> LabeledGraph:
    """A seeded residue-labeled graph that does not descend: each pair is
    oriented at random and (0, 1) always ascends; odd seeds add anti-parallel
    pairs. Labels are random residues mod 11."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    density = rng.uniform(0.05, 0.6)
    pairs = {(0, 1)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                pairs.add((u, v) if rng.random() < 0.5 else (v, u))
                if seed % 2 and rng.random() < 0.2:
                    pairs.add((v, u) if (u, v) in pairs else (u, v))
    g = OrientedGraph(n, pairs)
    return LabeledGraph(g, tuple(rng.randint(1, 10) for _ in g.edges), 11)


def _subsets(rng: random.Random, n: int) -> list[list[int]]:
    """Empty, full, and random subsets of range(n) in shuffled order, some
    with repeats."""
    subsets = [[], list(range(n))[::-1]]
    for _ in range(8):
        vs = rng.sample(range(n), rng.randint(1, n))
        subsets.append(vs + vs[: rng.randint(0, 3)])
    return subsets


@pytest.mark.parametrize("seed", range(24))
def test_induced_subgraph_matches_a_filter_over_the_parent_edges(seed):
    lg = _scrambled_labeled_graph(seed)
    assert not all(u > v for u, v in lg.graph.edges)
    if seed % 2:
        assert any(lg.graph.has_edge(v, u) for u, v in lg.graph.edges)
    for vs in _subsets(random.Random(seed), lg.graph.n):
        chosen = sorted(set(vs))
        index = {v: i for i, v in enumerate(chosen)}
        kept = [(e, r) for e, r in zip(lg.graph.edges, lg.labels) if e[0] in index and e[1] in index]
        sub = induced_subgraph(lg, vs)
        assert sub.graph.n == len(chosen) and sub.vertices == tuple(chosen)
        assert sub.graph.edges == tuple((index[u], index[v]) for (u, v), _ in kept)
        assert sub.labels == tuple(r for _, r in kept) and sub.p == 11


def test_labeled_graph_needs_one_label_per_edge():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    assert LabeledGraph(g, (1, 2), 3).labels == (1, 2)
    for labels in ((1,), (1, 2, 1)):
        with pytest.raises(ValueError, match="labels for 2 edges"):
            LabeledGraph(g, labels, 3)


def test_induced_subgraph_inherits_residue_labels():
    pg = build_power_graph(build_zykov(3), 3)
    sub = induced_subgraph(pg, [1, 2, 4])
    assert sub.p == 3
    label_of = dict(zip(pg.graph.edges, pg.labels))
    for (u, v), r in zip(sub.graph.edges, sub.labels):
        assert label_of[(sub.vertices[u], sub.vertices[v])] == r
    assert len(sub.labels) == sub.graph.m


def test_induced_subgraph_composes():
    pg = build_power_graph(build_zykov(4), 5)
    outer = induced_subgraph(pg, [0, 2, 4, 6, 8, 10, 12])
    inner = induced_subgraph(outer, [0, 2, 4, 6])
    direct = induced_subgraph(pg, [outer.vertices[v] for v in [0, 2, 4, 6]])
    assert inner.graph.edges == direct.graph.edges
    assert [outer.vertices[v] for v in inner.vertices] == list(direct.vertices)


@given(st.integers(0, 10_000))
def test_topological_order_respects_edges(seed):
    g = random_dag(random.Random(seed), max_n=40)
    pos = {v: i for i, v in enumerate(topological_order(g))}
    for u, v in g.edges:
        assert pos[u] < pos[v]


@given(st.integers(0, 10_000))
def test_graph_equality_is_structural(seed):
    g = random_dag(random.Random(seed), max_n=12)
    h = OrientedGraph(g.n, list(g.edges))
    assert g == h and hash(g) == hash(h)


def assert_matches_validated(g):
    """A graph from a trusted builder equals the validating constructor's
    graph on the same edges, and its rows match rows rebuilt here."""
    ref = OrientedGraph(g.n, list(g.edges))
    assert g.n == ref.n and g.edges == ref.edges
    out = [[] for _ in range(g.n)]
    for u, v in ref.edges:
        out[u].append(v)
    edge_set = set(ref.edges)
    for u in range(g.n):
        assert g.out_neighbors(u) == ref.out_neighbors(u) == tuple(out[u])
        for v in range(g.n):
            assert g.has_edge(u, v) == ref.has_edge(u, v) == ((u, v) in edge_set)
    und = tuple(sorted({(min(e), max(e)) for e in edge_set}))
    assert g.undirected_edges() == ref.undirected_edges() == und


@pytest.mark.parametrize("k", range(1, 6))
def test_trusted_builders_match_the_validating_constructor(k):
    zg = build_zykov(k)
    assert_matches_validated(zg.graph)
    for p in (2, 3, 5, 7):
        assert_matches_validated(build_power_graph(zg, p).graph)


def test_trusted_induced_subgraphs_match_the_validating_constructor():
    pg = build_power_graph(build_zykov(5), 7)
    rng = random.Random(8)
    for _ in range(40):
        vs = rng.sample(range(pg.graph.n), rng.randint(0, 60))
        assert_matches_validated(induced_subgraph(pg, vs).graph)
    for seed in range(8):  # graphs that do not descend, some with anti-parallel pairs
        lg = _scrambled_labeled_graph(seed)
        for vs in _subsets(rng, lg.graph.n):
            assert_matches_validated(induced_subgraph(lg, vs).graph)


@pytest.mark.parametrize("n", (2, 4, 6))
def test_trusted_class_graphs_match_the_validating_constructor(n):
    ep = edge_partition(build_power_graph(build_zykov(5), 7), residue_partition(7, n))
    for i in range(len(ep.classes)):  # classes with no edges included
        assert_matches_validated(ep.class_graph(i))


def test_builders_and_the_bulk_reader_skip_validation(monkeypatch):
    calls = []
    init = OrientedGraph.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrientedGraph, "__init__", counting_init)
    pg = build_power_graph(build_zykov(4), 5)
    induced_subgraph(pg, range(0, pg.graph.n, 2))
    ep = edge_partition(pg, residue_partition(5, 4))
    for i in range(len(ep.classes)):
        ep.class_graph(i)
    assert calls == []
    back, labels, _ = read_edgelist(write_edgelist(pg.graph, pg.labels))
    assert calls == []  # the bulk reader checked the shape itself
    assert back == pg.graph and labels == pg.labels
    back, _, _ = read_edgelist("n 3 2\n1 2\n0 1\n")  # unsorted: the line parser
    assert len(calls) == 1 and back.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for n=2"):
        read_edgelist("n 2 1\n0 2\n")
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        read_edgelist("n 2 1\n1 1\n")


def test_every_built_graph_descends_so_index_order_is_topological(tmp_path, monkeypatch):
    """Every graph the package builds numbers its vertices so that each edge
    u -> v has u > v; the oracles' sort then reads descending index order off
    the edge list, and the coloring never needs a sort. A renumbering
    that sent these graphs back to the slow path fails here."""
    graphs = []
    for k in range(1, 6):
        zg = build_zykov(k)
        graphs.append(zg.graph)
        graphs += [build_power_graph(zg, p).graph for p in (2, 3, 5, 7)]
    pg = build_power_graph(zg, 7)
    rng = random.Random(13)
    for _ in range(40):
        vs = rng.sample(range(pg.graph.n), rng.randint(0, 60))
        graphs.append(induced_subgraph(pg, vs).graph)
    for n in (2, 4, 6):
        ep = edge_partition(pg, residue_partition(7, n))
        graphs += [ep.class_graph(i) for i in range(len(ep.classes))]
    out = tmp_path / "power.edges"
    assert main(["construct", "power", "--k", "5", "--p", "7", "--out", str(out)]) == 0
    back, _, _ = read_edgelist(out.read_text())
    assert back == pg.graph
    graphs.append(back)
    for g in graphs:
        assert all(u > v for u, v in g.edges)
        assert _kahn(g) == range(g.n - 1, -1, -1)

    def no_sort(g):
        raise AssertionError("topological_order on a descending graph")

    monkeypatch.setattr(coloring, "topological_order", no_sort)
    omega, _ = max_clique(pg)
    assert bounded_color(pg, omega, residue_partition(7, omega)).palette > 0


def test_row_offsets_are_found_on_first_use(monkeypatch):
    """A graph is built with its tails and heads alone. The coloring, its
    properness check, the class graphs and their long-path check on a
    descending graph read only the two tuples, so they never ask for row
    offsets; ``max_clique`` finds them once. An induced subgraph counts its
    own offsets while it walks its parent's rows."""
    calls, found = [], []
    row_starts = OrientedGraph._row_starts

    def counting(self):
        calls.append(self.n)
        if self._first is None:
            found.append(self.n)
        return row_starts(self)

    monkeypatch.setattr(OrientedGraph, "_row_starts", counting)
    pg = build_power_graph(build_zykov(4), 5)  # from _canonical
    back, labels, _ = read_edgelist(write_edgelist(pg.graph, pg.labels))  # the bulk reader
    calls.clear()  # distance_table walked the base's rows
    part = residue_partition(5, 4)
    for g in (pg, LabeledGraph(back, labels, 5)):
        assert verify_proper(bounded_color(g, 4, part)).passed
        ep = edge_partition(g, part)
        for i in range(len(ep.classes)):
            assert verify_no_long_path(ep.class_graph(i), 4).passed
    assert calls == []
    found.clear()
    assert max_clique(pg)[0] == 4
    assert found == [pg.graph.n]
    found.clear()
    sub = induced_subgraph(pg, range(0, pg.graph.n, 2)).graph
    assert sub._first is not None and found == []
    assert sub._first == row_starts(OrientedGraph(sub.n, zip(sub.tails, sub.heads)))


def test_flat_store_matches_the_sorted_unique_pairs():
    """On seeded graphs with anti-parallel pairs, isolated vertices, repeated
    input pairs and n = 0, the validating constructor and the trusted one
    give the same graph, and every reader of the two tuples agrees with the
    definition by sorted unique pairs."""
    rng = random.Random(20)
    isolated = 0
    for n in [0, 1] + [rng.randint(2, 25) for _ in range(48)]:
        span = rng.randint(1, n) if n else 0  # vertices from span up are isolated
        pairs = [(rng.randrange(span), rng.randrange(span)) for _ in range(rng.randint(0, 3 * span))]
        pairs = [(u, v) for u, v in pairs if u != v]
        pairs += [(v, u) for u, v in pairs[:3]] + pairs[:2]  # anti-parallel and repeated pairs
        rng.shuffle(pairs)
        canon = sorted(set(pairs))
        isolated += n - len({v for e in canon for v in e})
        g = OrientedGraph(n, pairs)
        flat = OrientedGraph._canonical(n, [u for u, _ in canon], [v for _, v in canon])
        assert g == flat and hash(g) == hash(flat)
        first = tuple(sum(u < a for u, _ in canon) for a in range(n + 1))
        und = tuple(sorted({(min(e), max(e)) for e in canon}))
        for h in (g, flat):
            assert h.edges == tuple(canon) and h.m == len(canon)
            assert h._row_starts() == first
            assert h.undirected_edges() == und
            for u in range(n):
                assert h.out_neighbors(u) == tuple(v for a, v in canon if a == u)
                for v in range(n):
                    assert h.has_edge(u, v) == ((u, v) in canon)
                    assert h.has_und_edge(u, v) == ((u, v) in canon or (v, u) in canon)
    assert isolated > 0


def test_no_package_code_reads_the_edge_pairs(tmp_path, monkeypatch):
    """``OrientedGraph.edges`` builds pairs for callers outside the package.
    With it raising, every layer on power(4, 5), both edge-list readers, the
    writers, three CLI commands and the unlabeled-edge errors still run."""

    def no_pairs(self):
        raise AssertionError("OrientedGraph.edges read inside the package")

    monkeypatch.setattr(OrientedGraph, "edges", property(no_pairs))
    zg = build_zykov(4)
    pg = build_power_graph(zg, 5, distance_table(zg))
    omega, _ = max_clique(pg)
    part = residue_partition(5, omega)
    ep = edge_partition(pg, part)
    for i in range(len(ep.classes)):
        assert verify_no_long_path(ep.class_graph(i), omega).passed
    assert verify_proper(bounded_color(pg, omega, part)).passed
    assert verify_unique_paths(zg).passed and verify_triangle_free(zg).passed
    assert not verify_unique_paths(pg).passed and not verify_triangle_free(pg).passed  # the witness paths
    sub = induced_subgraph(pg, range(0, pg.graph.n, 3))
    assert (exact_chromatic_number(pg), exact_chromatic_number(sub)) == (4, 2)
    for g, labels in ((pg.graph, pg.labels), (zg.graph, None)):
        text = write_edgelist(g, labels, metadata={"p": 5})
        assert read_edgelist(text)[0] == _read_lines(text, None)[0] == g
        assert len(graph_json_dict(g, labels, 5)["edges"]) == g.m
    assert write_dimacs(pg.graph).startswith(f"p edge {pg.graph.n} ")
    out = tmp_path / "power.edges"
    assert main(["construct", "power", "--k", "4", "--p", "5", "--out", str(out)]) == 0
    assert main(["color", str(out), "--out", str(tmp_path / "color.json")]) == 0
    assert main(["verify", "all", "--k", "4", "--p", "5", "--out", str(tmp_path / "verify.json")]) == 0
    with pytest.raises(UnlabeledEdge, match=r"^edge \(0, 1\) has no residue label$"):
        edge_partition(OrientedGraph(3, [(0, 1), (1, 2)]), residue_partition(5, 2))
    zero = LabeledGraph(OrientedGraph(3, [(0, 1), (1, 2)]), (1, 0), 5)
    with pytest.raises(UnlabeledEdge, match=r"^edge \(1, 2\) has residue label 0 outside 1..p-1$"):
        edge_partition(zero, residue_partition(5, 2))
