"""The verifier suite itself: exact values on graphs small enough to check by
hand or by enumeration, witness integrity, and determinism of reports."""

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from chibound import (
    Budget,
    BudgetExceeded,
    CycleFound,
    OrientedGraph,
    ResiduePartition,
    build_zykov,
    exact_chromatic_number,
    longest_path_coloring,
    max_clique,
    residue_partition,
    verify_no_long_path,
    verify_partition_sums,
    verify_proper,
    verify_triangle_free,
    verify_unique_paths,
)
from chibound.coloring import Coloring
from chibound.oracles import budget_report
from helpers import random_dag, random_oriented_graph

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


@given(st.integers(0, 5_000))
def test_max_clique_witness_is_a_clique_of_stated_size(seed):
    g = random_oriented_graph(random.Random(seed), max_n=10)
    size, clique = max_clique(g)
    assert len(clique) == size
    for a, b in itertools.combinations(clique, 2):
        assert g.has_und_edge(a, b)


def test_unique_paths_pass_cases():
    assert verify_unique_paths(OrientedGraph(2, [(0, 1)])).passed
    assert verify_unique_paths(build_zykov(4)).passed


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


def test_triangle_free_pass_and_fail():
    assert verify_triangle_free(OrientedGraph(0)).passed
    assert verify_triangle_free(C5).passed
    r = verify_triangle_free(K(3))
    assert r.verdict == "fail" and r.witness["triangle"] == [0, 1, 2]


def test_triangle_found_across_orientations():
    g = OrientedGraph(3, [(0, 1), (2, 0), (2, 1)])
    assert verify_triangle_free(g).verdict == "fail"


def test_triangle_free_on_level_five_graph():
    assert verify_triangle_free(build_zykov(5)).passed


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
    assert "wall_time_ms" in r.to_json_dict(include_timing=True)
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
