"""The tower construction: exact sizes, structure, provenance, and the
self-embedding of lower levels."""

import hashlib

import pytest

from chibound import (
    LabeledGraph,
    SizeBudgetExceeded,
    build_power_graph,
    build_zykov,
    distance_table,
    induced_subgraph,
    predict_size,
    zykov_closure,
)
from chibound.zykov import provenance_json_dict


def test_predict_size_base_cases():
    assert predict_size(1) == (1, 0)
    assert predict_size(2) == (2, 1)
    assert predict_size(3) == (5, 5)
    assert predict_size(4) == (18, 36)


def test_predict_size_level_five():
    # vertices: 1+2+5+18 + 1*2*5*18 = 206; edges: 0+1+5+36 + 4*180 = 762
    assert predict_size(5) == (206, 762)


def test_predict_size_rejects_nonpositive():
    with pytest.raises(ValueError):
        predict_size(0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_build_matches_prediction(k):
    zg = build_zykov(k)
    assert (zg.graph.n, zg.graph.m) == predict_size(k)
    assert type(zg) is LabeledGraph  # a plain base graph, as every builder returns
    assert (zg.labels, zg.p, zg.vertices) == (None, None, None)


def test_level_one_is_single_vertex():
    zg = build_zykov(1)
    assert zg.graph.n == 1 and zg.graph.m == 0


def test_level_two_is_single_edge():
    zg = build_zykov(2)
    assert zg.graph.edges == ((1, 0),)


def test_level_three_underlying_graph_is_a_five_cycle():
    g = build_zykov(3).graph
    assert g.n == 5
    und = g.undirected_edges()
    assert len(und) == 5
    deg = [0] * 5
    for u, v in und:
        deg[u] += 1
        deg[v] += 1
    assert deg == [2] * 5
    # connected 2-regular on 5 vertices == C5
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in range(5):
            if g.has_und_edge(x, y) and y not in seen:
                seen.add(y)
                stack.append(y)
    assert seen == set(range(5))


def _tags(k):
    """Each vertex's provenance tag, derived from k apart from the build."""
    return provenance_json_dict(k)["vertices"]


def test_level_four_apex_structure():
    g, tags = build_zykov(4).graph, _tags(4)
    apexes = [v for v, t in enumerate(tags) if t["level"] == 4]
    assert len(apexes) == 10
    assert not any(v in apexes for v in g.heads)  # nothing enters an apex
    for w in apexes:
        outs = g.out_neighbors(w)
        assert len(outs) == 3
        # one out-neighbor in each of the three copies
        assert sorted(tags[v]["copy"] for v in outs) == [1, 2, 3]


def test_apexes_are_numbered_after_copies():
    tags = _tags(4)
    assert len(tags) == build_zykov(4).graph.n
    n_copies = sum(1 for t in tags if t["copy"] is not None)
    assert n_copies == 8
    assert all(t["copy"] is None for t in tags[n_copies:])
    assert [t["transversal"] for t in tags[n_copies:]] == list(range(10))


def test_level_coloring_is_proper_with_k_colors():
    for k in range(1, 6):
        g = build_zykov(k).graph
        colors = [t["level"] - 1 for t in _tags(k)]
        assert len(colors) == g.n
        assert set(colors) == set(range(k))
        for u, v in g.edges:
            assert colors[u] != colors[v]
            assert colors[u] > colors[v]  # levels strictly decrease along edges


def test_lower_levels_embed_via_provenance():
    zg, tags = build_zykov(4), _tags(4)
    for j in (1, 2, 3):
        copy = [v for v, t in enumerate(tags) if t["copy"] == j]
        assert copy == list(range(copy[0], copy[0] + len(copy)))  # contiguous
        sub = induced_subgraph(zg.graph, copy)
        assert sub.graph.edges == build_zykov(j).graph.edges


def test_size_cap_blocks_oversized_builds():
    with pytest.raises(SizeBudgetExceeded) as exc:
        build_zykov(4, size_cap=10)
    assert (exc.value.predicted_vertices, exc.value.exact) == (18, True)
    with pytest.raises(SizeBudgetExceeded):
        build_zykov(7)  # ~1.4e9 vertices, beyond the default cap
    # level 16 (4,681 digits) is refused at level 7, the first above the cap
    with pytest.raises(SizeBudgetExceeded, match=r"^predicted size at least 1383566504 vertices exceeds cap 1000000$") as exc:
        build_zykov(16)
    assert (exc.value.predicted_vertices, exc.value.exact) == (predict_size(7)[0], False)
    # a lower bound too long to read is printed as a power of ten
    with pytest.raises(SizeBudgetExceeded, match=r"^predicted size at least 10\^36 vertices exceeds cap 10{30}$"):
        build_zykov(16, size_cap=10**30)


def test_level_six_still_matches_prediction():
    zg = build_zykov(6)
    assert (zg.graph.n, zg.graph.m) == predict_size(6) == (37312, 186204)


# sha256 of repr((tails, heads)) of build_zykov(k), recorded while the build
# still tagged every vertex with its provenance
PINNED_EDGES_SHA256 = {
    5: "7c1fb093fb4a90d64f35664153f272fdd5ac000a8cce965653845ef19a7971d0",
    6: "867e8c65a6c4b3e254a7add456bc9cdf915db8aa4a1cb532696e034838bba99a",
}


@pytest.mark.parametrize("k", sorted(PINNED_EDGES_SHA256))
def test_edges_are_pinned(k):
    g = build_zykov(k).graph
    assert hashlib.sha256(repr((g.tails, g.heads)).encode()).hexdigest() == PINNED_EDGES_SHA256[k]


def test_provenance_json_shape():
    doc = provenance_json_dict(3)
    assert doc["k"] == 3
    assert len(doc["vertices"]) == build_zykov(3).graph.n == 5
    assert doc["vertices"][0] == {"level": 1, "copy": 1, "transversal": None}
    # the single vertex of level 1 is the base vertex, created by no transversal
    assert provenance_json_dict(1) == {"k": 1, "vertices": [{"level": 1, "copy": None, "transversal": None}]}



@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_composed_closure_equals_the_generic_merge(k):
    # zykov_closure composes from the layout the closure that distance_table
    # merges, and the power graphs built on the two are the same
    zg = build_zykov(k)
    merged, composed = distance_table(zg), zykov_closure(k)
    assert (composed.graph, composed.labels, composed.p, composed.vertices) == (merged.graph, merged.labels, None, None)
    for p in (2, 3, 5, 7):
        a, b = build_power_graph(zg, p, merged), build_power_graph(zg, p, composed)
        assert (a.graph, a.labels, a.p) == (b.graph, b.labels, b.p)


def test_composed_closure_keeps_the_size_cap():
    with pytest.raises(SizeBudgetExceeded, match=r"^predicted size 18 vertices exceeds cap 10$"):
        zykov_closure(4, size_cap=10)
    with pytest.raises(SizeBudgetExceeded):
        zykov_closure(7)
