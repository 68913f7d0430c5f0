"""Acceptance gate: one test per shipped guarantee, each exercising the
public pipeline end to end against independent in-test arithmetic. The
terminal summary prints one PASS/FAIL line per criterion (see conftest).

Criteria, in order: (1) base-graph structure and chromatic numbers,
(2) clique bound of the power graphs, (3) the small-order witness pair
(omega stays at 2 while the chromatic number reaches the growth target),
(4) residue partitions and the fraction-count identities, (5) the
longest-path coloring on seeded DAGs, (6) hereditary clique/coloring checks
down to exhaustive small subsets, (7) oracle cross-validation against naive
enumeration, (8) byte-identical reruns of the command-line driver.
"""

import hashlib
import itertools
import math
import random

import pytest

from chibound import (
    Budget,
    BudgetExceeded,
    CliqueTooLarge,
    OrientedGraph,
    PathTooLong,
    bounded_color,
    build_power_graph,
    build_zykov,
    edge_partition,
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
from chibound.cli import main
from chibound.power import BUILTIN_F, growth_witness
from helpers import farey_sequence, phi_count, random_dag, random_oriented_graph

EXPECTED_SIZES = {1: (1, 0), 2: (2, 1), 3: (5, 5), 4: (18, 36), 5: (206, 762)}


def test_criterion_1_base_graphs_structure_and_chromatic_number():
    for k in range(1, 6):
        zg = build_zykov(k)
        assert (zg.graph.n, zg.graph.m) == EXPECTED_SIZES[k]
        assert verify_triangle_free(zg).passed
        assert verify_unique_paths(zg).passed  # acyclic with unique paths
        if k <= 4:
            assert exact_chromatic_number(zg) == k
    # optional budgeted attempt on the 206-vertex instance: an exact 5 and a
    # budget-exceeded verdict with the proven bracket are both acceptable
    try:
        assert exact_chromatic_number(build_zykov(5), Budget(max_nodes=200_000)) == 5
    except BudgetExceeded as exc:
        assert exc.best_lower >= 4
        assert exc.best_upper == 5


def test_criterion_2_power_graph_clique_bound():
    for k, p in [(3, 2), (3, 3), (4, 2), (4, 3), (4, 5)]:
        pg = build_power_graph(build_zykov(k), p)
        omega, clique = max_clique(pg)
        assert omega <= p
        assert len(clique) == omega
        for a, b in itertools.combinations(clique, 2):
            assert pg.graph.has_und_edge(a, b)
        if p == 2:
            assert verify_triangle_free(pg).passed


def test_criterion_3_growth_witness_at_order_two():
    p, q, k = growth_witness(BUILTIN_F["2^n"], 2)
    assert (p, q, k) == (2, 3, 4)
    pg = build_power_graph(build_zykov(k), p)
    assert max_clique(pg)[0] == 2
    assert exact_chromatic_number(pg) >= 4


def test_criterion_4_partitions_and_fraction_count_identities():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for p in primes:
        for n in range(1, min(6, p - 1) + 1):
            part = residue_partition(p, n)
            covered = sorted(a for cls in part.classes for a in cls)
            assert covered == list(range(1, p))  # each residue exactly once
            assert verify_partition_sums(part).passed

    # route one: per-denominator coprime counts by gcd, summed cumulatively
    # (the package's own counting method, applied to every order at once)
    limit = 1000
    gcd_row = [0] * (limit + 1)
    for m in range(1, limit + 1):
        gcd_row[m] = sum(1 for s in range(1, m + 1) if math.gcd(s, m) == 1)
    # route two: totient sieve
    tot = list(range(limit + 1))
    for i in range(2, limit + 1):
        if tot[i] == i:  # i is prime
            for j in range(i, limit + 1, i):
                tot[j] -= tot[j] // i
    running_gcd = running_tot = 0
    for n in range(1, limit + 1):
        running_gcd += gcd_row[n]
        running_tot += tot[n]
        assert running_gcd == running_tot  # Phi(n) == sum of totients
        assert running_gcd <= n * (n + 1) // 2
    # the installed API agrees with both routes
    spot = sum(tot[1 : 1001])
    assert phi_count(1000) == spot == running_gcd
    for n in (1, 2, 6, 40, 97):
        assert phi_count(n) == sum(tot[1 : n + 1])
        assert farey_sequence(n).phi == phi_count(n)


def _longest_path_length(g: OrientedGraph) -> int:
    """Independent longest-path DP (own order, accessors only)."""
    indeg = [0] * g.n
    for _, v in g.edges:
        indeg[v] += 1
    queue = [v for v in range(g.n) if indeg[v] == 0]
    order = []
    while queue:
        u = queue.pop()
        order.append(u)
        for w in g.out_neighbors(u):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    assert len(order) == g.n
    height = [0] * g.n
    for u in reversed(order):
        for w in g.out_neighbors(u):
            height[u] = max(height[u], height[w] + 1)
    return max(height, default=0)


def test_criterion_5_longest_path_coloring_on_seeded_dags():
    for seed in range(1000):
        g = random_dag(random.Random(seed), max_n=200)
        longest = _longest_path_length(g)
        col = longest_path_coloring(g, longest + 1)
        assert col.palette == longest + 1
        assert len(set(col.assignment)) <= longest + 1
        assert verify_proper(col).passed
        with pytest.raises(PathTooLong) as exc:  # k at the longest path: too small
            longest_path_coloring(g, longest)
        path = exc.value.path
        assert len(path) - 1 >= longest
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


def _hereditary_check(pg, vs, p, parts, conversion_guaranteed=False):
    """Measure omega on the induced subgraph; when below p, every class graph
    must be path-short and the product coloring proper within the palette
    bound. Understating the clique order by one either still colors properly
    or surfaces a long path converted into a verified omega-clique; at p=3
    the classes are narrow enough that the conversion always fires."""
    sub = induced_subgraph(pg, vs)
    omega, _ = max_clique(sub)
    assert omega <= p
    if 0 < omega < p:
        n = omega
        part = parts[n]
        ep = edge_partition(sub, part)
        for i in range(len(ep.classes)):
            assert verify_no_long_path(ep.class_graph(i), n).passed
        col = bounded_color(sub, n, part)
        assert verify_proper(col).passed
        assert col.palette <= n ** len(part.classes) <= n ** (n * n)
    if omega >= 2:
        try:
            col = bounded_color(sub, omega - 1, parts[omega - 1])
        except CliqueTooLarge as exc:
            assert len(exc.clique) == omega
            for a, b in itertools.combinations(exc.clique, 2):
                assert sub.graph.has_und_edge(a, b)
        else:
            assert not conversion_guaranteed
            assert verify_proper(col).passed
    return omega


def test_criterion_6_hereditary_class_checks():
    # the full (k=4, p=5) instance
    pg = build_power_graph(build_zykov(4), 5)
    parts5 = {n: residue_partition(5, n) for n in range(1, 5)}
    omega = _hereditary_check(pg, range(pg.graph.n), 5, parts5)
    assert omega == 4
    # 200 seeded induced subgraphs of it
    rng = random.Random(2026)
    for _ in range(200):
        vs = [v for v in range(pg.graph.n) if rng.random() < 0.5]
        _hereditary_check(pg, vs, 5, parts5)
    # every induced subgraph on <= 12 vertices of the (k=4, p=3) instance,
    # and the complete subset lattice of the (k=3, p=3) instance
    parts3 = {n: residue_partition(3, n) for n in (1, 2)}
    pg3 = build_power_graph(build_zykov(4), 3)
    for size in range(1, 13):
        for vs in itertools.combinations(range(pg3.graph.n), size):
            _hereditary_check(pg3, vs, 3, parts3, conversion_guaranteed=True)
    small = build_power_graph(build_zykov(3), 3)
    for size in range(1, small.graph.n + 1):
        for vs in itertools.combinations(range(small.graph.n), size):
            _hereditary_check(small, vs, 3, parts3, conversion_guaranteed=True)


def _chi_naive(g: OrientedGraph) -> int:
    """Exact chromatic number with no heuristics: full assignment enumeration
    up to 6 vertices, plain first-index backtracking above."""
    if g.n == 0:
        return 0
    und_edges = g.undirected_edges()
    if g.n <= 6:
        for k in range(1, g.n + 1):
            for a in itertools.product(range(k), repeat=g.n):
                if all(a[u] != a[v] for u, v in und_edges):
                    return k
    colors = [0] * g.n

    def bt(v: int, k: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(not g.has_und_edge(v, w) or colors[w] != c for w in range(v)):
                colors[v] = c
                if bt(v + 1, k):
                    return True
        return False

    for k in range(1, g.n + 1):
        if bt(0, k):
            return k
    raise AssertionError("n colors always suffice")


def _omega_naive(g: OrientedGraph) -> int:
    for r in range(g.n, 0, -1):
        for vs in itertools.combinations(range(g.n), r):
            if all(g.has_und_edge(a, b) for a, b in itertools.combinations(vs, 2)):
                return r
    return 0


def test_criterion_7_oracles_agree_with_naive_enumeration():
    for seed in range(500):
        g = random_oriented_graph(random.Random(seed), max_n=9)
        assert exact_chromatic_number(g) == _chi_naive(g), f"seed {seed}"
        assert max_clique(g)[0] == _omega_naive(g), f"seed {seed}"


# Each criterion-8 command with the sha256 of its --out file. An intended
# change to report bytes updates the digest here and is declared in CHANGES.md.
CRITERION_8_RUNS = [
    (["construct", "zykov", "--k", "4"],
     "5026b4232159204aeb9f59794a4a8691b9b8cd34301244a1bb2f06ec105ae2f6"),
    (["construct", "power", "--k", "4", "--p", "5", "--format", "json"],
     "c23eb13a185e7ca734c1c2fb8bd70212b4f94ad6825cab3bd6136ad1361bd78f"),
    (["verify", "all", "--k", "3", "--p", "5"],
     "6a459df00c4e724f139c28db20f9da8ca9a7c99d80024765d044a6d7db3eac34"),
    (["verify", "lemma24", "--p", "31", "--n", "6"],
     "35040770145798f0e644515f53996e03b690215db943e91aa75e623141461901"),
    (["color", "--k", "4", "--p", "5"],
     "fc4dd357f66df97ba0eae0063d5022008a2ff24c9368e84d30b89c78ee86ed23"),
    (["sample-hereditary", "--k", "4", "--p", "3", "--count", "50", "--seed", "11"],
     "c6e6c5917089c1d81e52d9e6307b35283ea554d103d55f10e25331c069f6fc01"),
]


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    commands = [argv for argv, _ in CRITERION_8_RUNS]
    for idx, argv in enumerate(commands):
        digests = set()
        for attempt in range(2):
            out = tmp_path / f"{idx}-{attempt}.out"
            code = main(argv + ["--out", str(out)])
            assert code == 0, argv
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1, argv


def test_criterion_8_outputs_match_pinned_digests(tmp_path):
    for idx, (argv, digest) in enumerate(CRITERION_8_RUNS):
        out = tmp_path / f"{idx}.out"
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
