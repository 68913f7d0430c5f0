import hashlib
import random
from collections import deque

import pytest

from chibound import (
    CycleFound,
    DomainTooSmall,
    MultiplePaths,
    NotPrime,
    OrientedGraph,
    UniquePathViolation,
    build_power_graph,
    build_zykov,
    distance_table,
    exact_chromatic_number,
    is_prime,
    max_clique,
)
from chibound.power import BUILTIN_F, growth_witness
from helpers import heap_order


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_single_edge_mod_two():
    pg = build_power_graph(OrientedGraph(2, [(0, 1)]), 2)
    assert pg.graph.edges == ((0, 1),)
    assert pg.labels == (1,)


def test_path_mod_two_drops_even_distance_pair():
    pg = build_power_graph(OrientedGraph(3, [(0, 1), (1, 2)]), 2)
    assert pg.graph.edges == ((0, 1), (1, 2))


def test_path_of_length_three_mod_three():
    base = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    pg = build_power_graph(base, 3)
    assert set(pg.graph.edges) == {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}
    label_of = dict(zip(pg.graph.edges, pg.labels))
    assert label_of[(0, 2)] == 2 and label_of[(0, 1)] == 1
    omega, clique = max_clique(pg)
    assert omega == 3 <= 3
    assert clique == (0, 1, 2)


def test_rejects_composite_modulus():
    base = OrientedGraph(2, [(0, 1)])
    for p in (1, 4, 6, 9):
        with pytest.raises(NotPrime):
            build_power_graph(base, p)


def test_unique_path_violations_propagate():
    with pytest.raises(MultiplePaths):
        build_power_graph(OrientedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), 2)
    with pytest.raises(CycleFound):
        build_power_graph(OrientedGraph(2, [(0, 1), (1, 0)]), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_base_is_a_label_one_subgraph(p):
    zg = build_zykov(4)
    pg = build_power_graph(zg, p)
    label_of = dict(zip(pg.graph.edges, pg.labels))
    for e in zg.graph.edges:
        assert label_of[e] == 1


def _relabeled_zykov4() -> OrientedGraph:
    """zykov(4) under a seeded renumbering: still unique-path, but some
    edges ascend."""
    base = build_zykov(4).graph
    perm = list(range(base.n))
    random.Random(4).shuffle(perm)
    g = OrientedGraph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    assert not all(u > v for u, v in g.edges)
    return g


def _bfs_distances(base: OrientedGraph) -> dict[tuple[int, int], int]:
    """{(u, v): length} over the pairs u != v with v reachable from u, by a
    breadth-first search from each vertex; on a unique-path graph the
    shortest path is the only one."""
    out = {}
    for u, v in base.edges:
        out.setdefault(u, []).append(v)
    dist = {}
    for s in range(base.n):
        seen, queue = {s: 0}, deque([s])
        while queue:
            u = queue.popleft()
            for v in out.get(u, ()):
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        dist.update(((s, v), d) for v, d in seen.items() if v != s)
    return dist


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_edges_are_exactly_nonzero_residue_pairs(p):
    for base in [build_zykov(k).graph for k in range(1, 6)] + [_relabeled_zykov4()]:
        pg = build_power_graph(base, p)
        expected = {e: d % p for e, d in sorted(_bfs_distances(base).items()) if d % p}
        assert dict(zip(pg.graph.edges, pg.labels)) == expected
        assert pg.graph.edges == tuple(expected)
        assert all(1 <= r <= p - 1 for r in pg.labels)


def test_large_modulus_gives_full_comparability_graph():
    # longest distance in the level-4 graph is 3, so p=5 keeps every pair
    zg = build_zykov(4)
    pg = build_power_graph(zg, 5)
    assert pg.graph.m == len(_bfs_distances(zg.graph))


def test_power_graph_shares_the_closure_when_every_distance_is_below_p():
    zg = build_zykov(4)  # distances 1..3
    closure = distance_table(zg)
    assert closure.p is None and max(closure.labels) == 3
    for p in (5, 7):
        pg = build_power_graph(zg, p, closure)
        assert pg.graph is closure.graph and pg.labels == closure.labels and pg.p == p
    for p in (2, 3):
        pg = build_power_graph(zg, p, closure)
        kept = {e: d % p for e, d in zip(closure.graph.edges, closure.labels) if d % p}
        assert pg.graph is not closure.graph and pg.graph.m == len(kept) < closure.graph.m
        assert dict(zip(pg.graph.edges, pg.labels)) == kept and pg.p == p


def _unique_path_corpus():
    """3,000 seeded graphs of at most 12 vertices: the even seeds descend,
    the odd ones orient each edge at random, so they also hold cycles."""
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        density = rng.uniform(0.05, 0.4)
        pairs = [(u, v) for u in range(n) for v in range(u) if rng.random() < density]
        if seed % 2:
            pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
        yield OrientedGraph(n, pairs)


def _corpus_outcomes(error_row):
    """build_power_graph(g, 3) over _unique_path_corpus(): the tails, heads
    and labels of each power graph, or ``error_row`` of what it raises."""
    rows = []
    for g in _unique_path_corpus():
        try:
            pg = build_power_graph(g, 3)
        except UniquePathViolation as exc:
            rows.append(error_row(exc))
        else:
            rows.append((pg.graph.tails, pg.graph.heads, pg.labels))
    return rows


# sha256 of repr(_corpus_outcomes(...)) with each error's type name alone:
# 1,971 power graphs, 747 MultiplePaths and 282 CycleFound. Neither the
# topological order nor the cycle search may move it; recorded while
# distance_table still walked the lexicographically smallest order
PINNED_UNIQUE_PATH_GRAPHS_SHA256 = "a708fd33b8df3a14a96199d8c84298904980a3e90f7fba078fd805d11b06a649"
# the same with each error's message, so the witnesses too: the MultiplePaths
# pair is the first one distance_table's merge meets in descending index
# order or Kahn's FIFO order, the cycle the walk back over left-behind
# vertices from the least of them
PINNED_UNIQUE_PATH_OUTCOMES_SHA256 = "719ee375df28896324caa9ad578b5927dfa6dc139d1f9cfcc228848be31e0633"


def test_unique_path_graphs_and_error_types_are_pinned():
    rows = _corpus_outcomes(lambda exc: type(exc).__name__)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_UNIQUE_PATH_GRAPHS_SHA256


def test_unique_path_errors_are_pinned():
    rows = _corpus_outcomes(lambda exc: (type(exc).__name__, str(exc)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_UNIQUE_PATH_OUTCOMES_SHA256


def _path_count(g: OrientedGraph, u: int, v: int) -> int:
    """The directed u -> v paths of a DAG, counted exactly."""
    count = [0] * g.n
    count[v] = 1
    for x in reversed(heap_order(g)):
        if x != v:
            count[x] = sum(count[y] for y in g.out_neighbors(x))
    return count[u]


def test_unique_path_witnesses_are_real():
    """Every cycle is a directed cycle of distinct vertices, and every
    MultiplePaths pair is joined by two or more paths."""
    kinds = set()
    for g in _unique_path_corpus():
        try:
            build_power_graph(g, 3)
        except CycleFound as exc:
            cyc = exc.cycle
            assert len(cyc) >= 2 and len(set(cyc)) == len(cyc)
            assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            kinds.add("cycle")
        except MultiplePaths as exc:
            assert _path_count(g, exc.u, exc.v) >= 2
            kinds.add("pair")
    assert kinds == {"cycle", "pair"}


def test_chromatic_number_at_least_base():
    zg = build_zykov(4)
    pg = build_power_graph(zg, 2)
    assert exact_chromatic_number(pg) >= 4


def test_growth_witness_matches_brute_force():
    # both built-ins, a constant and seeded tables with negative values,
    # against primes found by trial division over every smaller divisor
    rng = random.Random(30)
    tables = [{m: rng.randint(-5, 50) for m in range(2, 201)} for _ in range(5)]
    targets = [BUILTIN_F["n^2"], BUILTIN_F["2^n"], lambda m: 1] + [t.__getitem__ for t in tables]
    primes = [m for m in range(2, 402) if all(m % d for d in range(2, m))]
    for n in range(2, 201):
        p = max(m for m in primes if m <= n)
        q = min(m for m in primes if m > n)
        for f in targets:
            assert growth_witness(f, n) == (p, q, max(f(m) for m in range(p, n + 1)))


def test_growth_witness_reads_f_on_the_prime_interval_only():
    read = []
    assert growth_witness(lambda m: read.append(m) or 2 * m, 10) == (7, 11, 20)
    assert read == [7, 8, 9, 10]


def test_growth_witness_of_the_square_target():
    # p is the largest prime <= n, q the next one, k = max n^2 over p..n
    got = [growth_witness(BUILTIN_F["n^2"], n) for n in (2, 3, 4, 5, 6, 10, 13, 14)]
    assert got == [(2, 3, 4), (3, 5, 9), (3, 5, 16), (5, 7, 25), (5, 7, 36), (7, 11, 100), (13, 17, 169), (13, 17, 196)]
    for n in (1, 0, -4):
        with pytest.raises(DomainTooSmall, match=f"need n_max >= 2, got {n}"):
            growth_witness(BUILTIN_F["n^2"], n)


def test_builtin_growth_targets():
    assert [BUILTIN_F["2^n"](m) for m in (2, 3, 4)] == [4, 8, 16]
    assert [BUILTIN_F["n^2"](m) for m in (2, 3)] == [4, 9]
    assert sorted(BUILTIN_F) == ["2^n", "n^2"]
