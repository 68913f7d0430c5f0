"""Each command's verdicts, decided from oracle and coloring results on
built instances: Lemma 2.1 (χ(zykov(k)) = k), Lemma 2.2 (ω ≤ p), Lemma 2.4
(each residue class is zero-sum free) and Claim 2.6 (no long path inside a
class, then the product coloring). One public function per command returns
its reports, every fail with its witness, and raises what it refuses.
An order n outside 1..p-1 is refused by ``residue_partition`` alone;
``verify all`` and ``sample_hereditary`` skip the coloring at n ≥ p instead.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import replace

from .coloring import bounded_color, edge_partition, path_clique
from .errors import BudgetExceeded, CliqueTooLarge
from .farey import residue_partition
from .graphs import LabeledGraph, induced_subgraph
from .oracles import (
    Budget,
    VerificationReport,
    budget_report,
    exact_chromatic_number,
    max_clique,
    timed_report,
    verify_no_long_path,
    verify_partition_cover,
    verify_partition_sums,
    verify_proper,
    verify_triangle_free,
    verify_unique_paths,
)


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _in_parent(g: LabeledGraph, clique) -> list[int]:
    """A clique of g in the vertex ids of g's parent when g is an induced subgraph."""
    return list(clique) if g.vertices is None else [g.vertices[v] for v in clique]


def _chromatic_report(g, expected: int, instance: str, budget: Budget) -> VerificationReport:
    started = time.perf_counter()
    try:
        chi = exact_chromatic_number(g, budget)
    except BudgetExceeded as exc:
        return budget_report("chromatic-number", instance, exc, started)
    witness = None if chi == expected else {"measured": chi, "expected": expected}
    return timed_report("chromatic-number", instance, _verdict(chi == expected), witness, started)


def _verify_clique_bound(pg: LabeledGraph, instance: str, budget: Budget):
    """The clique-bound report of a power graph, its clique in the parent's ids
    for a subgraph, and the clique order or the BudgetExceeded that stopped it."""
    started = time.perf_counter()
    try:
        omega, clique = max_clique(pg, budget)
    except BudgetExceeded as exc:
        return budget_report("clique-bound", instance, exc, started), exc
    witness = {"omega": omega, "clique": _in_parent(pg, clique), "p": pg.p}
    return timed_report("clique-bound", instance, _verdict(omega <= pg.p), witness, started), omega


def _color_reports(g: LabeledGraph, n: int, part, instance: str):
    """The reports of the product coloring of g at clique order n, and the
    coloring; or, when g refutes n, one clique-order fail report whose clique
    is in the parent's vertex ids, and no coloring."""
    started = time.perf_counter()
    try:
        coloring = bounded_color(g, n, part)
    except CliqueTooLarge as exc:
        witness = {"claimed": n, "clique": _in_parent(g, exc.clique)}
        return [timed_report("clique-order", instance, "fail", witness, started)], None
    started = time.perf_counter()
    witness = {
        "palette": coloring.palette,
        "order_bound": n ** len(part.classes),
        "square_bound": n ** (n * n),
    }
    ok = witness["palette"] <= witness["order_bound"] <= witness["square_bound"]
    palette_report = timed_report("palette-bound", instance, _verdict(ok), witness, started)
    return [verify_proper(coloring, instance=instance), palette_report], coloring


def _verify_class_paths(pg: LabeledGraph, k: int, n: int) -> list[VerificationReport]:
    """Per-class long-path checks plus the product coloring on the full power
    graph; a long path is converted to a clique and re-checked before report."""
    part = residue_partition(pg.p, n)
    ep = edge_partition(pg, part)
    inst = f"power(k={k}, p={pg.p}, n={n})"
    reports = []
    any_long = False
    for i in range(len(ep.classes)):
        r = verify_no_long_path(ep.class_graph(i), n, instance=f"{inst} class A_{i + 1:03d}")
        if r.verdict == "fail":
            any_long = True
            clique = path_clique(pg.graph, r.witness["path"], n)
            r = replace(r, witness={**r.witness, "clique": clique})
        reports.append(r)
    if any_long:
        return reports
    return reports + _color_reports(pg, n, part, inst)[0]


def verify(target: str, zg, pg, k: int, p: int, n: int | None, budget: Budget):
    """The reports of a verify target on zg = zykov(k) and pg = its power
    graph mod p (each None where the target reads none), and the clique order
    n they used: as given, or ω of pg for claim26 and all. At n ≥ p,
    residue_partition refuses claim26; all skips the class paths instead. The
    partition order is min(n, p - 1) for all, and n or min(6, p - 1) for lemma24.
    When the search for ω stops on its budget, claim26 raises the stop; all
    skips the checks that need n and returns its reports with n None."""
    reports: list[VerificationReport] = []
    if target in ("lemma21", "all"):
        inst = f"zykov(k={k})"
        reports += [
            verify_triangle_free(zg, instance=inst),
            verify_unique_paths(zg, instance=inst),
            _chromatic_report(zg, k, inst, budget),
        ]
    if target in ("lemma22", "all") or (target == "claim26" and n is None):
        inst = f"power(k={k}, p={p})"
        clique_report, omega = _verify_clique_bound(pg, inst, budget)
    if target in ("lemma22", "all"):
        reports.append(clique_report)
        if p == 2:
            reports.append(verify_triangle_free(pg, instance=inst))
    if target in ("claim26", "all"):
        if n is None:
            if isinstance(omega, BudgetExceeded):
                if target == "claim26":
                    raise omega
                for checks in ("class-path", "partition"):
                    print(f"note: the clique search stopped on its budget; skipping {checks} checks", file=sys.stderr)
                return reports, None
            n = omega
        if target == "all" and n >= p:
            print(f"note: clique order n={n} is not below p={p}; skipping class-path checks", file=sys.stderr)
        else:
            reports += _verify_class_paths(pg, k, n)
    if target in ("lemma24", "all"):
        order = min(n, p - 1) if target == "all" else (min(6, p - 1) if n is None else n)
        part = residue_partition(p, order)
        reports += [verify_partition_cover(part), verify_partition_sums(part)]
    return reports, n


def color(g: LabeledGraph, n: int | None, instance: str, budget: Budget):
    """(n, reports, coloring) of the product coloring of g at clique order n:
    n as given, or max(1, ω) of g; residue_partition refuses an n outside
    1..p-1. The coloring is None when g refutes n with a larger clique."""
    if n is None:
        n = max(1, max_clique(g, budget)[0])
    reports, coloring = _color_reports(g, n, residue_partition(g.p, n), f"{instance} n={n}")
    return n, reports, coloring


def sample_hereditary(g: LabeledGraph, instance: str, budget: Budget, count: int, density: float, seed: int):
    """The reports of ``count`` induced subgraphs of g, each vertex kept with
    probability ``density`` by a PRNG seeded with ``seed``: each one's clique
    bound, then its product coloring at order max(1, ω) when that is below p."""
    rng = random.Random(seed)
    reports: list[VerificationReport] = []
    for i in range(count):
        vs = [v for v in range(g.graph.n) if rng.random() < density]
        sub = induced_subgraph(g, vs)
        sample_inst = f"{instance} sample {i:04d} (|V|={len(vs)})"
        report, omega = _verify_clique_bound(sub, sample_inst, budget)
        reports.append(report)
        if isinstance(omega, BudgetExceeded):
            continue
        n_i = max(1, omega)
        if n_i >= g.p:
            print(f"note: sample {i:04d} has omega={omega} >= p; coloring bound not applicable", file=sys.stderr)
            continue
        reports += _color_reports(sub, n_i, residue_partition(g.p, n_i), sample_inst)[0]
    return reports
