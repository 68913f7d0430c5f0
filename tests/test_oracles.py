"""The verifier suite itself: exact values on graphs small enough to check by
hand or by enumeration, witness integrity, and determinism of reports."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import assume, given, strategies as st

from chibound import (
    Budget,
    BudgetExceeded,
    CycleFound,
    LabeledGraph,
    OrientedGraph,
    PathTooLong,
    ResiduePartition,
    bounded_color,
    build_power_graph,
    build_zykov,
    exact_chromatic_number,
    induced_subgraph,
    longest_path_coloring,
    max_clique,
    residue_partition,
    verify_no_long_path,
    verify_partition_sums,
    verify_proper,
    verify_triangle_free,
    verify_unique_paths,
)
from chibound import coloring, oracles
from chibound.coloring import Coloring
from chibound.graphs import oriented_view
from chibound.oracles import budget_report
from helpers import heap_order, random_dag, random_oriented_graph

C5 = OrientedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K = lambda n: OrientedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
DIAMOND = OrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_chromatic_number_base_cases():
    assert exact_chromatic_number(OrientedGraph(0)) == 0
    assert exact_chromatic_number(OrientedGraph(3)) == 1
    assert exact_chromatic_number(K(2)) == 2
    assert exact_chromatic_number(K(4)) == 4


def test_chromatic_number_five_cycle():
    # brute-check the expected value by full enumeration first
    assert not any(
        all(a[u] != a[v] for u, v in C5.edges)
        for a in itertools.product(range(2), repeat=5)
    )
    assert any(
        all(a[u] != a[v] for u, v in C5.edges)
        for a in itertools.product(range(3), repeat=5)
    )
    assert exact_chromatic_number(C5) == 3


def test_chromatic_number_complete_bipartite():
    g = OrientedGraph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert exact_chromatic_number(g) == 2


def test_chromatic_number_budget_carries_bounds():
    with pytest.raises(BudgetExceeded) as exc:
        exact_chromatic_number(C5, Budget(max_nodes=1))
    assert exc.value.best_lower == 2
    assert exc.value.best_upper == 3


def test_chromatic_search_needs_no_recursion():
    n = 2001
    path = [(i, i + 1) for i in range(n - 1)]
    assert exact_chromatic_number(OrientedGraph(n, path + [(0, n - 1)])) == 3
    assert exact_chromatic_number(OrientedGraph(n, path)) == 2


def test_chromatic_budget_stops_cleanly_on_level_six():
    with pytest.raises(BudgetExceeded) as exc:
        exact_chromatic_number(build_zykov(6), Budget(max_nodes=3000))
    assert (exc.value.nodes, exc.value.best_lower, exc.value.best_upper) == (3001, 3, 6)


def _pinned_graphs():
    """zykov(1..4), 16 seeded dense induced subgraphs of zykov(5) and 10
    seeded random graphs whose degrees do not follow the vertex order."""
    graphs = [build_zykov(k) for k in range(1, 5)]
    z5 = build_zykov(5)
    for seed in range(16):
        rng = random.Random(seed)
        density = rng.uniform(0.5, 0.9)
        graphs.append(induced_subgraph(z5, [v for v in range(z5.graph.n) if rng.random() < density]))
    for seed in range(10):
        rng = random.Random(seed)
        n, density = rng.randint(25, 45), rng.uniform(0.1, 0.4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(OrientedGraph(n, edges))
    return graphs


# (n, m, chi, search nodes, greedy colors) per graph, and a digest of every
# greedy and k-colorable coloring, recorded from the recursive search
PINNED_SEARCHES = [
    (1, 0, 1, 0, 1), (2, 1, 2, 0, 2), (5, 5, 3, 5, 3), (18, 36, 4, 51, 4),
    (170, 579, 4, 198, 4), (121, 209, 3, 5, 3), (177, 474, 4, 178, 4), (117, 283, 3, 6, 3),
    (118, 318, 3, 5, 3), (145, 323, 3, 155, 4), (169, 466, 4, 177, 4), (136, 402, 4, 217, 4),
    (127, 240, 4, 94, 4), (151, 423, 4, 321, 4), (159, 486, 4, 469, 4), (137, 392, 4, 234, 4),
    (145, 448, 4, 378, 4), (132, 175, 3, 7, 3), (115, 123, 3, 5, 3), (177, 597, 4, 360, 4),
    (37, 209, 6, 121, 6), (29, 106, 5, 31, 5), (26, 40, 4, 0, 4), (32, 137, 5, 67, 6),
    (32, 83, 4, 12, 4), (44, 179, 5, 67, 5), (43, 312, 7, 470, 7), (35, 228, 6, 207, 7),
    (32, 116, 4, 63, 5), (39, 226, 6, 414, 7),
]
PINNED_COLORINGS_SHA256 = "5cec4ccf7a54e26e4096518d5301bd06b1a65ed46ad6db277a611a6ae413d12d"


def test_chromatic_search_visits_the_pinned_nodes(monkeypatch):
    k_colorable, dsatur_greedy = oracles._k_colorable, oracles._dsatur_greedy
    record = {}

    def recording_k_colorable(*args):
        tracker = args[-1]
        result = k_colorable(*args)
        record["nodes"] = tracker.nodes
        record["colorings"].append(result)
        return result

    def recording_dsatur_greedy(*args):
        record["greedy"] = dsatur_greedy(*args)
        return record["greedy"]

    monkeypatch.setattr(oracles, "_k_colorable", recording_k_colorable)
    monkeypatch.setattr(oracles, "_dsatur_greedy", recording_dsatur_greedy)
    rows, digest = [], hashlib.sha256()
    for g in _pinned_graphs():
        record.update(nodes=0, colorings=[], greedy=None)
        chi = exact_chromatic_number(g)
        graph = oriented_view(g)
        rows.append((graph.n, graph.m, chi, record["nodes"], record["greedy"][0]))
        digest.update(repr((record["greedy"], record["colorings"])).encode())
    assert rows == PINNED_SEARCHES
    assert digest.hexdigest() == PINNED_COLORINGS_SHA256


@pytest.mark.parametrize(
    "max_nodes, bracket",
    [(5, (3, 5)), (50, (3, 5)), (500, (4, 5)), (2000, (4, 5)), (20_000, (4, 5))],
)
def test_chromatic_budget_stops_on_level_five_are_pinned(max_nodes, bracket):
    with pytest.raises(BudgetExceeded) as exc:
        exact_chromatic_number(build_zykov(5), Budget(max_nodes=max_nodes))
    assert exc.value.nodes == max_nodes + 1
    assert (exc.value.best_lower, exc.value.best_upper) == bracket


def _chi_by_subsets(n: int, pairs) -> int:
    """χ by enumerating vertex subsets: fewest[s] is the fewest independent
    sets covering s, tried over each independent subset of s that holds the
    lowest vertex of s."""
    nbr = [0] * n
    for u, v in pairs:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    full = (1 << n) - 1
    indep = [True] * (full + 1)
    fewest = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        indep[s] = indep[s ^ low] and not nbr[low.bit_length() - 1] & s
        fewest[s], sub = n, s
        while sub:
            if sub & low and indep[sub]:
                fewest[s] = min(fewest[s], fewest[s ^ sub] + 1)
            sub = (sub - 1) & s
    return fewest[full]


def _differential_graphs():
    """200 seeded graphs of at most 9 vertices under shuffled labels, so
    degree order disagrees with index order and often has ties, some with
    anti-parallel pairs, which count once in a degree."""
    for seed in range(200):
        rng = random.Random(seed)
        n, density = rng.randint(1, 9), rng.random()
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        edges = pairs + [(v, u) for u, v in pairs if rng.random() < 0.1]
        yield n, pairs, OrientedGraph(n, edges)


@pytest.mark.parametrize("budget", [Budget(max_millis=0), Budget(max_nodes=255)])
def test_chromatic_deadline_stops_on_level_five_where_the_node_cap_does(budget):
    # the deadline is read every 256th node, so a spent time budget stops at
    # node 256, where a cap of 255 nodes stops
    with pytest.raises(BudgetExceeded) as exc:
        exact_chromatic_number(build_zykov(5), budget)
    assert (exc.value.nodes, exc.value.best_lower, exc.value.best_upper) == (256, 4, 5)


def test_k_colorable_leaves_the_node_count_on_its_tracker():
    order, rows = _ranked(build_zykov(5).graph)
    tracker = oracles._Tracker("k-colorable", Budget(max_nodes=300))
    assert oracles._k_colorable(rows, order, 3, tracker) is None
    searched = tracker.nodes
    with pytest.raises(BudgetExceeded) as exc:
        oracles._k_colorable(rows, order, 4, tracker)
    assert 0 < searched < exc.value.nodes == tracker.nodes == 301


def test_chromatic_search_builds_rows_once_in_degree_order(monkeypatch):
    # the degrees come from the edge store, counting an anti-parallel pair
    # once; they must rank the vertices as the popcounts of _ranked's rows do
    rows, calls = oracles._rows, []
    monkeypatch.setattr(oracles, "_rows", lambda graph, vs: calls.append(list(vs)) or rows(graph, vs))
    for n, pairs, g in _differential_graphs():
        order = _ranked(g)[0]
        calls.clear()
        exact_chromatic_number(g)
        assert calls == ([order] if n else [])


def _ranked(g: OrientedGraph) -> tuple[list[int], list[int]]:
    """(order, rows) as ``exact_chromatic_number`` builds them: the vertices
    by descending degree, ties by index, and their rows in that order."""
    und = oracles._rows(g, range(g.n))
    order = sorted(range(g.n), key=lambda v: -und[v].bit_count())
    return order, oracles._rows(g, order)


def _proper(colors, palette: int, n: int, pairs) -> bool:
    return len(colors) == n and all(0 <= c < palette for c in colors) and all(colors[u] != colors[v] for u, v in pairs)


# sha256 of repr() of each outcome of exact_chromatic_number under node caps
# 0, 1, 2, ... up to completion over _differential_graphs(): chi, or (nodes,
# best_lower, best_upper) for a stop; recorded from the search that built
# the rows twice, once in index order for the degrees and the greedy clique
PINNED_BUDGET_OUTCOMES_SHA256 = "a1a6d25520a2729da56d50db47288afcfbbc0435b174b998b14b1b43cc962f5f"


def test_chromatic_search_matches_enumeration_under_every_budget():
    # the greedy and every k-colorable coloring are proper within their
    # palettes, k-colorability holds from chi on, and each budget stop counts
    # one node past its cap and brackets chi
    stops, outcomes = 0, []
    for n, pairs, g in _differential_graphs():
        chi = _chi_by_subsets(n, pairs)
        order, rows = _ranked(g)
        used, colors = oracles._dsatur_greedy(rows, order)
        assert used >= chi and _proper(colors, used, n, pairs)
        for k in range(1, n + 1):
            colors = oracles._k_colorable(rows, order, k, oracles._Tracker("k-colorable", None))
            assert (colors is None) == (k < chi)
            assert colors is None or _proper(colors, k, n, pairs)
        for max_nodes in itertools.count():
            try:
                assert exact_chromatic_number(g, Budget(max_nodes=max_nodes)) == chi
                outcomes.append(chi)
                break
            except BudgetExceeded as exc:
                stops += 1
                assert exc.nodes == max_nodes + 1
                assert exc.best_lower <= chi <= exc.best_upper
                outcomes.append((exc.nodes, exc.best_lower, exc.best_upper))
    assert stops > 20
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == PINNED_BUDGET_OUTCOMES_SHA256


# seeds of graphs on which DSATUR's first descent fails at k = chi, so the
# search must undo colorings; each entry is (seed, n)
BACKTRACKING_SEEDS = [(268, 12), (318, 11), (409, 12), (609, 11), (988, 8), (1398, 8), (1637, 12), (2001, 10)]


def test_chromatic_search_backtracks_to_a_proper_coloring_at_chi():
    for seed, n in BACKTRACKING_SEEDS:
        rng = random.Random(seed)
        assert rng.randint(6, 12) == n
        density = rng.uniform(0.3, 0.8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = OrientedGraph(n, pairs)
        chi = _chi_by_subsets(n, pairs)
        assert exact_chromatic_number(g) == chi
        order, rows = _ranked(g)
        tracker = oracles._Tracker("k-colorable", None)
        colors = oracles._k_colorable(rows, order, chi, tracker)
        assert tracker.nodes > n + 1, seed  # more nodes than one descent
        assert colors is not None and _proper(colors, chi, n, pairs), seed
        assert oracles._k_colorable(rows, order, chi - 1, oracles._Tracker("k-colorable", None)) is None


def test_max_clique_triangle():
    assert max_clique(K(3)) == (3, (0, 1, 2))


def test_max_clique_five_cycle_is_triangle_free():
    assert max_clique(C5)[0] == 2


def test_max_clique_edgeless_and_empty():
    assert max_clique(OrientedGraph(0)) == (0, ())
    assert max_clique(OrientedGraph(4))[0] == 1


def test_max_clique_budget():
    with pytest.raises(BudgetExceeded) as exc:
        max_clique(K(6), Budget(max_nodes=2))
    assert exc.value.what == "max-clique"


def _clique_corpus():
    """power(k, p) for k <= 5, 40 seeded induced subgraphs of power(5, 7) and
    120 seeded random graphs of up to 35 vertices whose vertex order is
    shuffled, so degrees do not follow it."""
    graphs = [build_power_graph(build_zykov(k), p) for k in range(1, 6) for p in (2, 3, 5, 7)]
    p57 = graphs[-1]
    for seed in range(40):
        rng = random.Random(seed)
        density = rng.uniform(0.2, 0.9)
        graphs.append(induced_subgraph(p57, [v for v in range(p57.graph.n) if rng.random() < density]))
    for seed in range(120):
        rng = random.Random(seed)
        n, density = rng.randint(1, 35), rng.random()
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(OrientedGraph(n, edges))
    return graphs


# sha256 of repr([(n, m, omega, witness), ...]) over _clique_corpus(), recorded
# from the search without a coloring bound
PINNED_CLIQUES_SHA256 = "10f54f35c9cdec0cc3ea789961f48bf1f6a2a0a3635c4b7c1099bce983d1f3e9"


def test_max_clique_witnesses_are_pinned():
    rows = []
    for g in _clique_corpus():
        graph = oriented_view(g)
        rows.append((graph.n, graph.m, *max_clique(g)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_CLIQUES_SHA256


def test_max_clique_bound_finishes_within_a_small_budget():
    # the search without a coloring bound needs 1,540 nodes here
    assert max_clique(build_power_graph(build_zykov(5), 7), Budget(max_nodes=700)) == (
        5,
        (12, 13, 15, 20, 38),
    )


@pytest.mark.parametrize(
    "p, nodes, bracket, witness",
    [
        (3, 32, (2, 3), (1, 2, 116)),
        (5, 6, (4, 5), (12, 13, 15, 20, 38)),
        (7, 6, (4, 5), (12, 13, 15, 20, 38)),
    ],
)
def test_max_clique_nodes_and_budget_brackets_are_pinned(p, nodes, bracket, witness):
    # the search finishes within exactly `nodes` nodes; one fewer stops it
    # with the largest clique met and the target of the level it was in
    pg = build_power_graph(build_zykov(5), p)
    assert max_clique(pg, Budget(max_nodes=nodes)) == (len(witness), witness)
    with pytest.raises(BudgetExceeded) as exc:
        max_clique(pg, Budget(max_nodes=nodes - 1))
    assert exc.value.nodes == nodes
    assert (exc.value.best_lower, exc.value.best_upper) == bracket
    assert exc.value.witness == witness[: bracket[0]]


def _lowbit_walk(m: int) -> list[int]:
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


def test_bit_walk_matches_the_lowbit_walk():
    # 1 << 63 is peeled and 1 << 64 walked by its digits
    rng = random.Random(0)
    masks = [0, 1] + [1 << k for k in (1, 29, 30, 63, 64, 39_999)]
    for _ in range(12):
        width, density = rng.randint(1, 40_000), rng.choice((0.001, 0.05, 0.5, 1.0))
        masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    for m in masks:
        assert list(oracles._bits(m)) == _lowbit_walk(m)


def _classes_by_strikes(und, p_mask: int, room: int) -> int:
    """The greedy class count by strikes alone, at every width and room, or
    0 when it is above room."""
    classes = 0
    while p_mask:
        classes += 1
        if classes > room:
            return 0
        q = p_mask
        while q:
            bit = q & -q
            p_mask ^= bit
            q &= ~(und[bit.bit_length() - 1] | bit)
    return classes


@pytest.mark.parametrize(
    "n, density",
    [(60, 0.2), (60, 0.6), (3_000, 0.002), (3_000, 0.01), (40, 1.0), (3_000, 1.0)],
    ids=["narrow-sparse", "narrow-dense", "wide-sparse", "wide-less-sparse", "K40", "K3000"],
)
def test_greedy_classes_match_the_strike_loop_for_every_room(n, density):
    # the one-pass loop runs where room * 256 is below the mask's width: at
    # rooms 0..7 on the masks about 3,000 bits wide, at room 0 only on the
    # narrow ones
    rng = random.Random(n * 1_000 + int(density * 1_000))
    full = (1 << n) - 1
    und = [full ^ (1 << u) for u in range(n)] if density == 1.0 else [0] * n
    for _ in range(0 if density == 1.0 else round(density * n * (n - 1) / 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            und[u] |= 1 << v
            und[v] |= 1 << u
    masks = [full] + [
        sum(1 << v for v in range(n) if rng.random() < share) for share in (0.001, 0.05, 0.1, 0.3, 0.7, 0.9)
    ]
    for m in masks:
        for room in range(8):
            classes = oracles._fits_in_classes(und, m, room)
            assert classes == _classes_by_strikes(und, m, room), (m.bit_length(), room)


def test_max_clique_on_a_long_path_goes_straight_to_the_class_count():
    # max h is 3,000, and the root of that level splits into 2 greedy
    # classes, so the next level sought is 2, not 2,999
    n = 3_000
    g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)])
    assert max_clique(g, Budget(max_nodes=4)) == (2, (0, 1))


def test_max_clique_builds_the_split_masks_at_the_first_split_bound(monkeypatch):
    built = []

    class CountingSplit(oracles._Split):
        __slots__ = ()

        def __init__(self, h, d):
            built.append(len(h))
            super().__init__(h, d)

    monkeypatch.setattr(oracles, "_Split", CountingSplit)
    # the count and the greedy coloring cut every level of a long path
    n = 3_000
    assert max_clique(OrientedGraph(n, [(i, i + 1) for i in range(n - 1)])) == (2, (0, 1))
    assert built == []
    # here the split bound is taken, and its masks are built once
    pg = build_power_graph(build_zykov(4), 3)
    assert max_clique(pg) == (3, (1, 2, 13))
    assert built == [pg.graph.n]


@pytest.fixture(scope="module")
def k1100():
    return K(1100)


def test_max_clique_of_a_large_clique_needs_no_recursion(k1100):
    assert max_clique(k1100) == (1100, tuple(range(1100)))


def test_max_clique_budget_stop_on_a_large_clique_has_an_upper_bound(k1100):
    with pytest.raises(BudgetExceeded) as exc:
        max_clique(k1100, Budget(max_nodes=500))
    assert exc.value.nodes == 501
    assert (exc.value.best_lower, exc.value.best_upper) == (499, 1100)
    assert exc.value.witness == tuple(range(499))


def _omega_by_enumeration(g: OrientedGraph) -> int:
    for size in range(g.n, 0, -1):
        for vs in itertools.combinations(range(g.n), size):
            if all(g.has_und_edge(a, b) for a, b in itertools.combinations(vs, 2)):
                return size
    return 0


@given(st.integers(0, 5_000))
def test_max_clique_on_cyclic_orientations_matches_enumeration(seed):
    # no longest-path heights exist here, so the search runs without a target
    rng = random.Random(seed)
    n, density = rng.randint(3, 10), rng.uniform(0.3, 1.0)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs])
    assume(oracles._path_heights(g) is None)
    size, clique = max_clique(g)
    assert size == len(clique) == _omega_by_enumeration(g)
    for a, b in itertools.combinations(clique, 2):
        assert g.has_und_edge(a, b)


@given(st.integers(0, 5_000))
def test_max_clique_witness_is_a_clique_of_stated_size(seed):
    g = random_oriented_graph(random.Random(seed), max_n=10)
    size, clique = max_clique(g)
    assert len(clique) == size
    for a, b in itertools.combinations(clique, 2):
        assert g.has_und_edge(a, b)


def test_max_clique_searches_a_small_core_without_full_width_rows(monkeypatch):
    calls = []  # the size of each full-width row build
    rows = oracles._rows
    monkeypatch.setattr(
        oracles, "_rows", lambda graph, vs: (len(vs) == graph.n and calls.append(graph.n)) or rows(graph, vs)
    )
    # on power(5, 7) the 5-clique lies in keep_5, 25 of the 206 vertices
    assert max_clique(build_power_graph(build_zykov(5), 7)) == (5, (12, 13, 15, 20, 38))
    assert calls == []
    # on power(5, 3) keep_4 has 126 of them, so level 4 runs at full width
    assert max_clique(build_power_graph(build_zykov(5), 3)) == (3, (1, 2, 116))
    assert calls == [206]


def test_max_clique_takes_no_ceiling_from_a_core_root():
    # keep_10 is the 10-vertex path, whose root the coloring cuts with 2
    # classes; that bounds the path alone, and the 5-clique lies outside it
    path = [(i + 1, i) for i in range(9)]
    tournament = [(b, a) for a in range(10, 15) for b in range(a + 1, 15)]
    assert max_clique(OrientedGraph(55, path + tournament)) == (5, (10, 11, 12, 13, 14))


def _padded(rng: random.Random, g: OrientedGraph) -> OrientedGraph:
    """``g`` with isolated vertices or short paths added at random indices,
    so that the cores of its top levels are small."""
    extra = rng.randint(g.n + 1, 2 * g.n + 20)
    perm = list(range(g.n + extra))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    if rng.random() < 0.5:
        edges += [(perm[v], perm[v + 1]) for v in range(g.n, g.n + extra - 1) if (v - g.n) % 3 != 2]
    return OrientedGraph(g.n + extra, edges)


def test_max_clique_on_cores_matches_the_full_width_search(monkeypatch):
    graphs = []
    for seed in range(150):
        rng = random.Random(seed)
        g = random_dag(rng, max_n=60)
        graphs += [g, _padded(rng, g)]
    for p in (3, 5, 7):
        pg = build_power_graph(build_zykov(5), p)
        for seed in range(10):
            rng = random.Random(seed)
            sub = induced_subgraph(pg, [v for v in range(pg.graph.n) if rng.random() < 0.5]).graph
            graphs += [sub, _padded(rng, sub)]
    cores = []  # the size of each row build on a core
    rows = oracles._rows
    monkeypatch.setattr(
        oracles, "_rows", lambda graph, vs: (len(vs) < graph.n and cores.append(len(vs))) or rows(graph, vs)
    )
    found = [max_clique(g) for g in graphs]
    assert len(cores) > len(graphs)
    monkeypatch.setattr(oracles, "_CORE_SHARE", 0.0)
    for g, (size, clique) in zip(graphs, found):
        assert size == max_clique(g)[0] == len(clique)
        for a, b in itertools.combinations(clique, 2):
            assert g.has_und_edge(a, b)


def test_unique_paths_pass_cases():
    assert verify_unique_paths(OrientedGraph(2, [(0, 1)])).passed
    assert verify_unique_paths(build_zykov(4)).passed


def test_unique_paths_witness_on_a_long_path_needs_no_recursion():
    n = 3000
    r = verify_unique_paths(OrientedGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))
    assert r.verdict == "fail"
    assert r.witness == {"pair": [0, n - 1], "paths": [list(range(n)), [0, n - 1]]}


def test_unique_paths_diamond_fails_with_two_paths():
    r = verify_unique_paths(DIAMOND)
    assert r.verdict == "fail"
    assert r.witness["pair"] == [0, 3]
    p1, p2 = r.witness["paths"]
    assert p1 != p2
    for p in (p1, p2):
        assert p[0] == 0 and p[-1] == 3
        assert all(DIAMOND.has_edge(a, b) for a, b in zip(p, p[1:]))


def test_unique_paths_cycle_fails_with_cycle():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    r = verify_unique_paths(g)
    assert r.verdict == "fail"
    cyc = r.witness["cycle"]
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def _shuffled_dag(rng: random.Random, n: int, degree: float, twin: bool) -> list[tuple[int, int]]:
    """Edges of a seeded DAG on shuffled vertex numbers, about ``degree``
    out-edges per vertex; with ``twin``, one edge also runs backwards."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = min(1.0, degree / n)
    edges = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if twin and edges:
        a, b = rng.choice(edges)
        edges.append((b, a))
    return edges


def _expected_unique_paths(n: int, edges) -> dict | None:
    """The witness of ``verify_unique_paths`` by exact path counts: None on
    a pass, {"cycle": None} on a cyclic graph, else the least u, the least
    v it reaches by two or more paths, and the first two u->v paths with
    out-neighbours taken in ascending order."""
    out = [sorted({v for a, v in edges if a == u}) for u in range(n)]
    paths: dict[int, list[int]] = {}  # paths[x][v]: exact count of x->v paths

    def count(x: int, trail: set) -> list[int] | None:
        if x in trail:
            return None
        if x not in paths:
            row = [0] * n
            row[x] = 1
            for w in out[x]:
                sub = count(w, trail | {x})
                if sub is None:
                    return None
                row = [a + b for a, b in zip(row, sub)]
            paths[x] = row
        return paths[x]

    for u in range(n):
        if count(u, set()) is None:
            return {"cycle": None}
    for u in range(n):
        v = next((v for v in range(n) if paths[u][v] >= 2), None)
        if v is None:
            continue
        found: list[list[int]] = []

        def walk(path: list[int]) -> None:
            for y in out[path[-1]]:
                if len(found) == 2:
                    return
                if y == v:
                    found.append(path + [y])
                elif paths[y][v]:
                    walk(path + [y])

        walk([u])
        return {"pair": [u, v], "paths": found}
    return None


@pytest.mark.parametrize("chunk", range(6))
def test_unique_paths_witness_matches_exact_path_counts(chunk):
    # per chunk, 40 seeded DAGs of up to 80 vertices, about one in six with
    # an anti-parallel pair, and three acyclic ones of 200 to 700 vertices,
    # whose rows are wider than 256 bits; edges run up and down the numbering
    rng = random.Random(chunk)
    shapes = [(rng.randint(1, 80), rng.uniform(0.3, 2.5), rng.random() < 1 / 6) for _ in range(40)]
    shapes += [(rng.randint(200, 700), rng.uniform(0.6, 1.6), False) for _ in range(3)]
    verdicts = set()
    for n, degree, twin in shapes:
        edges = _shuffled_dag(rng, n, degree, twin)
        expected = _expected_unique_paths(n, edges)
        g = OrientedGraph(n, edges)
        r = verify_unique_paths(g)
        verdicts.add(r.verdict)
        if expected is None:
            assert r.verdict == "pass"
        elif "cycle" in expected:
            cyc = r.witness["cycle"]
            assert r.verdict == "fail" and len(set(cyc)) == len(cyc)
            assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        else:
            assert r.verdict == "fail" and r.witness == expected
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("seed", range(20))
def test_undirected_rows_match_the_set_of_pairs(seed):
    # seeds 0 and 1 give the empty and an edgeless graph; the rest have
    # anti-parallel pairs, (0, 1) and (1, 0) at least, each a single row bit
    rng = random.Random(seed)
    if seed < 2:
        n, edges = [0, 7][seed], set()
    else:
        n = rng.randint(2, 40)
        edges = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.15}
        edges |= {(0, 1), (1, 0)}
    g = OrientedGraph(n, edges)
    assert oracles._rows(g, range(n)) == [
        sum(1 << v for v in range(n) if (u, v) in edges or (v, u) in edges) for u in range(n)
    ]
    # a shuffled proper subset: bit j of row i stands for vertices[j]
    vertices = rng.sample(range(n), rng.randrange(n)) if n else []
    assert oracles._rows(g, vertices) == [
        sum(1 << j for j, v in enumerate(vertices) if (u, v) in edges or (v, u) in edges) for u in vertices
    ]


def test_triangle_free_pass_and_fail():
    assert verify_triangle_free(OrientedGraph(0)).passed
    assert verify_triangle_free(C5).passed
    r = verify_triangle_free(K(3))
    assert r.verdict == "fail" and r.witness["triangle"] == [0, 1, 2]


def test_triangle_found_across_orientations():
    g = OrientedGraph(3, [(0, 1), (2, 0), (2, 1)])
    assert verify_triangle_free(g).verdict == "fail"


@pytest.mark.parametrize("seed", range(45))
def test_triangle_witness_is_the_least_pair_then_the_least_apex_in_any_orientation(seed):
    # edges in both directions, some anti-parallel pairs, several triangles;
    # from seed 30 on, 100 to 400 vertices with about 1.5 neighbours each
    # besides the triangles, so lower rows are wider than 64 bits
    rng = random.Random(seed)
    n = rng.randint(3, 16) if seed < 30 else rng.randint(100, 400)
    density = 0.25 if seed < 30 else 1.5 / n
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    for _ in range(3):
        pairs |= set(itertools.combinations(sorted(rng.sample(range(n), 3)), 2))
    edges = []
    for u, v in pairs:
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
        if rng.random() < 0.2:
            edges.append(edges[-1][::-1])
    rng.shuffle(edges)
    adj = {(u, v) for u, v in pairs} | {(v, u) for u, v in pairs}
    expected = next(
        sorted((u, v, w))
        for u, v in sorted(pairs)
        for w in range(n)
        if (u, w) in adj and (v, w) in adj
    )
    r = verify_triangle_free(OrientedGraph(n, edges))
    assert r.verdict == "fail" and r.witness["triangle"] == expected


def test_triangle_free_on_level_five_graph():
    assert verify_triangle_free(build_zykov(5)).passed


def test_partition_cover_real_partitions_pass():
    for p, n in ((2, 1), (5, 2), (31, 6), (97, 12)):
        r = oracles.verify_partition_cover(residue_partition(p, n))
        assert r.passed and r.witness is None
        assert r.check == "partition-cover" and r.instance == f"partition(p={p}, n={n})"


@pytest.mark.parametrize(
    "classes, witness",
    [
        (((1, 2), (4,)), {"missing": [3], "duplicated": [], "stray": []}),
        (((1, 2), (2, 3, 4)), {"missing": [], "duplicated": [2], "stray": []}),
        (((1, 2), (3, 4, 5)), {"missing": [], "duplicated": [], "stray": [5]}),
    ],
    ids=["missing", "duplicated", "stray"],
)
def test_partition_cover_fail_names_the_broken_residue(classes, witness):
    r = oracles.verify_partition_cover(ResiduePartition(p=5, n=2, classes=classes), instance="hand-built")
    assert (r.verdict, r.instance, r.witness) == ("fail", "hand-built", witness)


def test_partition_sums_real_partitions_pass():
    assert verify_partition_sums(residue_partition(5, 2)).passed
    assert verify_partition_sums(residue_partition(31, 6)).passed


def test_partition_sums_synthetic_failure():
    bad = ResiduePartition(p=5, n=2, classes=((1, 4),))
    r = verify_partition_sums(bad)
    assert r.verdict == "fail"
    assert r.witness == {"class_index": 1, "multiset": [1, 4]}


def test_partition_sums_failure_with_repeats():
    bad = ResiduePartition(p=5, n=5, classes=((1,),))
    r = verify_partition_sums(bad)
    assert r.verdict == "fail"
    assert r.witness["multiset"] == [1, 1, 1, 1, 1]


_SMALL_PRIMES = [p for p in range(2, 62) if all(p % d for d in range(2, p))]


def _random_partition(rng: random.Random, primes, max_n: int, max_classes: int, max_size: int) -> ResiduePartition:
    """A hand-built partition of up to ``max_classes`` classes drawn from
    1..p-1, each empty, an interval, or a scattered set in random order."""
    p, n = rng.choice(primes), rng.randint(1, max_n)
    classes = []
    for _ in range(rng.randint(1, max_classes)):
        kind = rng.random()
        if kind < 0.15:
            classes.append(())
        elif kind < 0.55:
            a = rng.randint(1, p - 1)
            b = min(p - 1, a + rng.randint(0, max(0, min(max_size, (p - 1) // n) - 1)))
            classes.append(tuple(range(a, b + 1)))
        else:
            classes.append(tuple(rng.sample(range(1, p), rng.randint(1, min(p - 1, max_size)))))
    return ResiduePartition(p, n, tuple(classes))


# sha256 of (verdict, witness) of verify_partition_sums over 3,000 seeded
# hand-built partitions and every residue_partition(p, n) with p <= 31,
# recorded from the layered dict DP
PINNED_PARTITION_SUMS_SHA256 = "0406039c4cc91cdd65a46152ce3aa86c2937d1dd1ca796bd91386179cbd83870"


def test_partition_sums_verdicts_and_witnesses_are_pinned():
    parts = [_random_partition(random.Random(seed), _SMALL_PRIMES, 8, 4, 20) for seed in range(3000)]
    parts += [residue_partition(p, n) for p in _SMALL_PRIMES if p <= 31 for n in range(1, p)]
    digest = hashlib.sha256()
    for part in parts:
        r = verify_partition_sums(part)
        digest.update(repr((r.verdict, r.witness)).encode())
    assert digest.hexdigest() == PINNED_PARTITION_SUMS_SHA256


def test_partition_sums_end_in_bounded_time_at_a_million():
    part = residue_partition(1_000_003, 6)
    started = time.process_time()
    assert verify_partition_sums(part).passed
    assert time.process_time() - started < 5


@pytest.mark.parametrize("seed", range(40))
def test_partition_sums_agree_with_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(10):
        part = _random_partition(rng, [p for p in _SMALL_PRIMES if p <= 23], 5, 3, 6)
        # the first class with a zero sum, and the least count m <= n that gives one
        expected = next(
            (
                (i + 1, m)
                for i, cls in enumerate(part.classes)
                for m in range(1, part.n + 1)
                if any(sum(c) % part.p == 0 for c in itertools.combinations_with_replacement(cls, m))
            ),
            None,
        )
        r = verify_partition_sums(part)
        if expected is None:
            assert r.verdict == "pass" and r.witness is None
        else:
            assert r.verdict == "fail"
            assert (r.witness["class_index"], len(r.witness["multiset"])) == expected


def test_no_long_path_verdicts():
    path2 = OrientedGraph(3, [(0, 1), (1, 2)])
    path3 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert verify_no_long_path(path2, 3).passed
    r = verify_no_long_path(path3, 3)
    assert r.verdict == "fail"
    assert r.witness["path"] == [0, 1, 2, 3]


def test_no_long_path_rejects_cycles():
    with pytest.raises(CycleFound):
        verify_no_long_path(OrientedGraph(2, [(0, 1), (1, 0)]), 3)


def _layered_dags(seed: int) -> tuple[LabeledGraph, LabeledGraph]:
    """A residue-labeled DAG whose edges all descend, and a relabeling of it
    with at least one ascending edge. Edges join vertices of six levels,
    from a higher level down, so no path is longer than 5."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    while not edges:
        n = rng.randint(2, 30)
        level = sorted(rng.randrange(6) for _ in range(n))
        density = rng.uniform(0.05, 0.5)
        edges = [
            (u, v) for u in range(n) for v in range(u) if level[v] < level[u] and rng.random() < density
        ]
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[u], perm[v]) for u, v in edges]
    if all(a > b for a, b in moved):
        moved = [(n - 1 - a, n - 1 - b) for a, b in moved]
    labels = [rng.randint(1, 6) for _ in edges]

    def labeled(pairs):
        label_of = dict(zip(pairs, labels))
        g = OrientedGraph(n, pairs)
        return LabeledGraph(g, tuple(label_of[e] for e in g.edges), 7)

    return labeled(edges), labeled(moved)


def _heap_heights(graph: OrientedGraph, edge_class: dict, phi: int) -> list[list[int]]:
    """Per-class longest-path heights over the reference ``heap_order``."""
    h = [[0] * graph.n for _ in range(phi)]
    for u in reversed(heap_order(graph)):
        for v in graph.out_neighbors(u):
            c = h[edge_class[(u, v)]]
            c[u] = max(c[u], c[v] + 1)
    return h


@pytest.mark.parametrize("seed", range(40))
def test_any_topological_order_gives_the_heap_orders_results(seed, monkeypatch):
    """On a descending DAG the sorts take index order, on its relabeling
    Kahn's sort; heights, path heights, oracle verdicts and witnesses, and
    colorings all equal what the lexicographically smallest order, the
    reference ``heap_order``, gives."""
    descending, relabeled = _layered_dags(seed)
    assert all(u > v for u, v in descending.graph.edges)
    assert not all(u > v for u, v in relabeled.graph.edges)
    bound = random.Random(seed).randint(1, 5)
    part = residue_partition(7, 6)
    for lg in (descending, relabeled):
        g = lg.graph
        order = oracles._kahn(g)
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(g.n))
        assert all(pos[u] < pos[v] for u, v in g.edges)

        def run():  # _path_heights returns _heights too
            return (
                oracles._path_heights(g),
                verify_unique_paths(g).to_json_dict(),
                verify_no_long_path(g, bound).to_json_dict(),
            )

        got = run()
        with monkeypatch.context() as m:
            m.setattr(oracles, "_kahn", heap_order)
            assert got == run()

        # the coloring against the textbook DP over the heap order; every
        # path is shorter than 6, so n = 6 < p = 7 colors without a clique
        index = {a: i for i, cls in enumerate(part.classes) for a in cls}
        classes = {e: index[r] for e, r in zip(g.edges, lg.labels)}
        ref = _heap_heights(g, classes, len(part.classes))
        assert bounded_color(lg, 6, part).tuples == tuple(zip(*ref))
        # the path the coloring raises in the first class that reaches the
        # bound: the lowest top vertex, then the lowest class neighbour one
        # lower, where several often tie
        long = [c for c, h in enumerate(ref) if max(h) >= bound]
        if long:
            h = ref[long[0]]
            path = [h.index(max(h))]
            while h[u := path[-1]]:
                row = [v for v in g.out_neighbors(u) if classes[(u, v)] == long[0]]
                path.append(min(v for v in row if h[v] == h[u] - 1))
            with pytest.raises(PathTooLong) as exc:
                coloring._longest_paths(g, [classes[e] for e in g.edges], len(ref), bound)
            assert exc.value.path == path
        (h,) = _heap_heights(g, dict.fromkeys(g.edges, 0), 1)
        if max(h) < bound:
            assert longest_path_coloring(g, bound).assignment == tuple(h)
            continue
        path = [h.index(max(h))]  # lowest top vertex, then lowest successor one lower
        while h[path[-1]]:
            path.append(min(v for v in g.out_neighbors(path[-1]) if h[v] == h[path[-1]] - 1))
        with pytest.raises(PathTooLong) as exc:
            longest_path_coloring(g, bound)
        assert exc.value.path == path


@pytest.mark.parametrize("seed", range(30))
def test_edge_walk_dps_equal_the_kahn_order_row_walk(seed, monkeypatch):
    """On a descending DAG ``_kahn`` returns a range and the height DPs walk
    the edge list; a list order walks the out-rows in Kahn order. Heights,
    path heights and the long-path verdict and witness agree, and on a
    relabeling that does not descend they agree up to the relabeling."""
    lg, _ = _layered_dags(seed)
    g, n = lg.graph, lg.graph.n
    order = oracles._kahn(g)
    assert order == range(n - 1, -1, -1)
    assert oracles._heights(g, order) == oracles._heights(g, list(order))
    bound = random.Random(seed).randint(1, 5)

    def run(graph):
        return oracles._path_heights(graph), verify_no_long_path(graph, bound).to_json_dict()

    (h, d), report = got = run(g)
    kahn = oracles._kahn
    with monkeypatch.context() as m:
        m.setattr(oracles, "_kahn", lambda graph: list(kahn(graph)))
        assert run(g) == got
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    if all(perm[u] > perm[v] for u, v in g.edges):
        perm = [n - 1 - x for x in perm]
    moved = OrientedGraph(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert isinstance(oracles._kahn(moved), list)
    (hm, dm), moved_report = run(moved)
    assert [hm[perm[v]] for v in range(n)] == h and [dm[perm[v]] for v in range(n)] == d
    assert moved_report["verdict"] == report["verdict"]
    # a fail whose witness steps through ties: three layers of three, every
    # edge from a higher layer down, so each step has three candidates
    top, mid, bottom = (6, 7, 8), (3, 4, 5), (0, 1, 2)
    layers = ((top, mid), (mid, bottom), (top, bottom))
    tied = OrientedGraph(9, [(u, v) for upper, lower in layers for u in upper for v in lower])
    assert verify_no_long_path(tied, 2).witness == {"path": [6, 3, 0], "bound": 2}
    with monkeypatch.context() as m:
        m.setattr(oracles, "_kahn", lambda graph: list(kahn(graph)))
        assert verify_no_long_path(tied, 2).witness == {"path": [6, 3, 0], "bound": 2}


def test_proper_coloring_verdicts():
    g = OrientedGraph(2, [(0, 1)])
    assert verify_proper(longest_path_coloring(DIAMOND, 3)).passed
    bad = Coloring(assignment=(0, 0), palette=2, target=g)
    r = verify_proper(bad)
    assert r.verdict == "fail" and r.witness["edge"] == [0, 1]
    overflow = Coloring(assignment=(0, 9), palette=2, target=g)
    assert verify_proper(overflow).verdict == "fail"


@given(st.integers(0, 5_000))
def test_longest_path_colorings_always_verify(seed):
    g = random_dag(random.Random(seed), max_n=40)
    col = longest_path_coloring(g, g.n)
    assert verify_proper(col).passed


def test_reports_are_deterministic():
    g = DIAMOND
    a = verify_unique_paths(g).to_json_dict()
    b = verify_unique_paths(g).to_json_dict()
    assert a == b


def test_report_serialization_excludes_timing_by_default():
    r = verify_triangle_free(C5)
    assert "wall_time_ms" not in r.to_json_dict()
    assert r.wall_time_ms >= 0
    assert r.to_json_dict() == {
        "check": "triangle-free",
        "instance": "graph(n=5, m=5)",
        "verdict": "pass",
        "witness": None,
    }


def test_budget_report_shape():
    exc = BudgetExceeded("chromatic-number", 42, best_lower=3, best_upper=5)
    r = budget_report("chromatic-number", "x", exc, time.perf_counter())
    assert r.verdict == "budget-exceeded"
    assert r.witness == {"nodes": 42, "best_lower": 3, "best_upper": 5}
