"""The four benchmark workloads.

A workload builds its inputs from the seed in ``setup``, lists the ops of one
pass in ``ops``, runs one op in ``run`` through the tracer (every call into a
``chibound`` layer goes through ``tr.call`` so a traced run can time it), and
judges one op's outcome in ``check``, outside the timed region. ``check``
returns "ok" or "undecided" (a search stopped at its node budget) and raises
``Failed`` for a wrong or missing output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import reference as ref

P = 7  # the modulus of every power graph here; above every base distance for k <= 6


class Failed(Exception):
    """An op's output is wrong."""


def _require(cond: bool, message: str):
    if not cond:
        raise Failed(message)


def _check_clique(reach_of, omega: int, clique, p: int):
    _require(omega <= p, f"omega {omega} exceeds p={p}")
    _require(len(clique) == omega == len(set(clique)), f"clique {clique} has not {omega} vertices")
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            _require(ref.comparable(reach_of, a, b), f"clique pair ({a}, {b}) is not an edge")


def _check_coloring(palette: int, assignment, n: int, vertices: int, edges):
    bound = n ** ref.phi(n)
    _require(palette <= bound, f"palette {palette} exceeds n^Phi(n) = {bound}")
    _require(len(assignment) == vertices, "coloring does not cover every vertex")
    bad = ref.improper_edge(assignment, edges)
    _require(bad is None, f"edge {bad} is monochromatic")


def _samples(seed: int, n: int, count: int, lo: float, hi: float) -> list[list[int]]:
    """`count` seeded vertex subsets of range(n), in shuffled order. Their
    densities are stratified over [lo, hi], one per equal slice, so that every
    seed gives the same spread of sizes and the work of a pass varies little
    from seed to seed."""
    rng = random.Random(seed)
    samples = []
    for i in range(count):
        density = lo + (hi - lo) * (i + rng.random()) / count
        samples.append([v for v in range(n) if rng.random() < density])
    rng.shuffle(samples)
    return samples


class _LazyReach:
    """Descendant sets of a base graph, computed on first use per vertex."""

    def __init__(self, n: int, edges):
        self._out = ref.successors(n, edges)
        self._memo: dict[int, set[int]] = {}

    def __getitem__(self, u: int) -> set[int]:
        if u not in self._memo:
            self._memo[u] = ref.descendants(self._out, u)
        return self._memo[u]


class Tower:
    """build_zykov(k) through the product coloring and every oracle, as one op."""

    name = "tower-k6"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.k = 5 if smoke else 6

    def describe(self) -> dict:
        r = ref.RECORDED[self.k]
        return {"k": self.k, "p": P, "vertices": r["base_n"], "power_edges": r["power_m"], "ops_per_pass": 1}

    def setup(self, lib, tr):
        self.lib = lib

    def ops(self):
        return [self.k]

    def run(self, tr, k):
        L = self.lib
        zg = tr.call("zykov.build_zykov", L.build_zykov, k)
        dist = tr.call("graphs.distance_table", L.distance_table, zg.graph)
        pg = tr.call("power.build_power_graph", L.build_power_graph, zg, P, dist)
        tr.count("power.build_power_graph.edges", pg.graph.m)
        omega, clique = tr.call("oracles.max_clique", L.max_clique, pg)
        part = tr.call("farey.residue_partition", L.residue_partition, P, omega)
        ep = tr.call("coloring.edge_partition", L.edge_partition, pg, part)
        coloring = tr.call("coloring.bounded_color", L.bounded_color, pg, omega, part)
        verdicts = [
            tr.call("oracles.verify_proper", L.verify_proper, coloring).verdict,
            tr.call("oracles.verify_unique_paths", L.verify_unique_paths, zg).verdict,
            tr.call("oracles.verify_triangle_free", L.verify_triangle_free, zg).verdict,
        ]
        for i in range(len(ep.classes)):
            class_graph = tr.call("coloring.class_graph", ep.class_graph, i)
            verdicts.append(tr.call("oracles.verify_no_long_path", L.verify_no_long_path, class_graph, omega).verdict)
        return zg, pg, omega, clique, coloring, verdicts, len(ep.classes)

    def check(self, k, outcome):
        zg, pg, omega, clique, coloring, verdicts, classes = outcome
        r = ref.RECORDED[k]
        _require((zg.graph.n, zg.graph.m) == (r["base_n"], r["base_m"]), f"base size {zg.graph.n}, {zg.graph.m}")
        _require(pg.graph.m == r["power_m"], f"power graph has {pg.graph.m} edges")
        _require(omega == r["omega"], f"omega {omega}, recorded {r['omega']}")
        _check_clique(_LazyReach(zg.graph.n, zg.graph.edges), omega, clique, P)
        _require(classes == ref.phi(omega), f"{classes} residue classes, Phi({omega}) = {ref.phi(omega)}")
        _require(all(v == "pass" for v in verdicts), f"oracle verdicts {verdicts}")
        _check_coloring(coloring.palette, coloring.assignment, omega, zg.graph.n, pg.graph.edges)
        return "ok"


class Hereditary:
    """Seeded induced subgraphs of power(k=5, p=7), each through
    induced_subgraph -> max_clique -> residue_partition -> bounded_color ->
    verify_proper."""

    name = "hereditary-k5"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.k = 4 if smoke else 5
        self.samples_per_pass = 20 if smoke else 200

    def describe(self) -> dict:
        r = ref.RECORDED[self.k]
        return {
            "k": self.k,
            "p": P,
            "vertices": r["base_n"],
            "power_edges": r["power_m"],
            "ops_per_pass": self.samples_per_pass,
            "density": [0.02, 0.98],
        }

    def setup(self, lib, tr):
        self.lib = lib
        zg = tr.call("zykov.build_zykov", lib.build_zykov, self.k)
        dist = tr.call("graphs.distance_table", lib.distance_table, zg.graph)
        self.pg = tr.call("power.build_power_graph", lib.build_power_graph, zg, P, dist)
        tr.count("power.build_power_graph.edges", self.pg.graph.m)
        self.base = zg.graph
        self.samples = _samples(self.seed, zg.graph.n, self.samples_per_pass, 0.02, 0.98)
        self._reach = None
        self._expected: dict[int, tuple[int, list]] = {}

    def ops(self):
        return range(len(self.samples))

    def run(self, tr, i):
        L = self.lib
        sub = tr.call("graphs.induced_subgraph", L.induced_subgraph, self.pg, self.samples[i])
        omega, clique = tr.call("oracles.max_clique", L.max_clique, sub)
        n = max(1, omega)
        part = tr.call("farey.residue_partition", L.residue_partition, P, n)
        coloring = tr.call("coloring.bounded_color", L.bounded_color, sub, n, part)
        verdict = tr.call("oracles.verify_proper", L.verify_proper, coloring).verdict
        return sub.vertices, omega, clique, n, coloring, verdict

    def _reference(self, i):
        """(omega, edges in sample indices) of sample i, from the base graph alone."""
        if self._reach is None:
            base, r = self.base, ref.RECORDED[self.k]
            _require((base.n, base.m) == (r["base_n"], r["base_m"]), f"base size {base.n}, {base.m}")
            self._reach = ref.closure(base.n, base.edges)
            pairs = {(u, v) for u in range(base.n) for v in self._reach[u]}
            # The power graph must be the reachability order (every distance
            # is below p), so cliques are chains and omega is a chain length.
            _require(pairs == set(self.pg.graph.edges), "power graph is not the reachability order")
        if i not in self._expected:
            vs = self.samples[i]
            index = {v: j for j, v in enumerate(vs)}
            edges = [(index[u], index[v]) for u in vs for v in self._reach[u] if v in index]
            self._expected[i] = (ref.longest_chain(self._reach, vs), edges)
        return self._expected[i]

    def check(self, i, outcome):
        vertices, omega, clique, n, coloring, verdict = outcome
        vs = self.samples[i]
        _require(list(vertices) == vs, "induced subgraph has other vertices than the sample")
        omega_ref, edges = self._reference(i)
        _require(omega == omega_ref, f"omega {omega}, reference {omega_ref}")
        _check_clique(self._reach, omega, [vs[c] for c in clique], P)
        _require(verdict == "pass", f"verify_proper says {verdict}")
        _check_coloring(coloring.palette, coloring.assignment, n, len(vs), edges)
        return "ok"


class Chi:
    """exact_chromatic_number on seeded dense induced subgraphs of zykov(5),
    and a few times a pass on zykov(5) itself, under a node budget it cannot
    decide within."""

    name = "chi-k5"
    SUBGRAPH_BUDGET = 200_000

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.k = 5
        self.subgraphs_per_pass = 6 if smoke else 60
        # zykov(5) runs this often per pass: 8 of 68 ops, well above 5%, so
        # that op_p99_ms (p95, see run.TAIL_QUANTILE) falls among its budget
        # stops, near their median rather than at the edge of the group.
        self.full_runs = 1 if smoke else 8
        self.full_budget = 500 if smoke else 2000

    def describe(self) -> dict:
        return {
            "k": self.k,
            "vertices": ref.RECORDED[self.k]["base_n"],
            "ops_per_pass": len(self.ops()),
            "density": [0.5, 0.9],
            "subgraph_node_budget": self.SUBGRAPH_BUDGET,
            "full_graph_node_budget": self.full_budget,
        }

    def setup(self, lib, tr):
        self.lib = lib
        self.zg = tr.call("zykov.build_zykov", lib.build_zykov, self.k)
        self.samples = _samples(self.seed, self.zg.graph.n, self.subgraphs_per_pass, 0.5, 0.9)
        self.subgraphs = [tr.call("graphs.induced_subgraph", lib.induced_subgraph, self.zg, vs) for vs in self.samples]
        self._expected: dict[int, int] = {}

    def ops(self):
        step = len(self.subgraphs) // self.full_runs
        ops = []
        for i in range(len(self.subgraphs)):
            ops.append(i)
            if (i + 1) % step == 0:
                ops.append("full")
        return ops

    def run(self, tr, op):
        L = self.lib
        graph, nodes = (self.zg, self.full_budget) if op == "full" else (self.subgraphs[op], self.SUBGRAPH_BUDGET)
        try:
            return tr.call("oracles.exact_chromatic_number", L.exact_chromatic_number, graph, L.Budget(max_nodes=nodes))
        except L.BudgetExceeded as exc:
            tr.count("oracles.exact_chromatic_number.budget_stop_nodes", exc.nodes)
            return exc

    def _reference(self, i) -> int:
        if i not in self._expected:
            vs = self.samples[i]
            index = {v: j for j, v in enumerate(vs)}
            edges = [(index[u], index[v]) for u, v in self.zg.graph.edges if u in index and v in index]
            self._expected[i] = ref.chromatic_number(len(vs), edges)
        return self._expected[i]

    def check(self, op, outcome):
        expected = ref.TOWER_CHI[self.k] if op == "full" else self._reference(op)
        if isinstance(outcome, self.lib.BudgetExceeded):
            lo, hi = outcome.best_lower, outcome.best_upper
            _require(lo is not None and hi is not None and lo <= expected <= hi, f"bracket [{lo}, {hi}] excludes chi = {expected}")
            return "undecided"
        _require(outcome == expected, f"chi {outcome}, expected {expected}")
        return "ok"


class Cli:
    """In-process chibound.cli.main: construct, color a file, verify claim26."""

    name = "cli-k6"
    OUTPUT = {"construct": "power.edges", "color": "coloring.json", "verify": "verify.json"}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.k = 5 if smoke else 6
        self.n = self.k  # omega of power(k, 7)
        self.path = {op: os.path.join(workdir, name) for op, name in self.OUTPUT.items()}

    def describe(self) -> dict:
        r = ref.RECORDED[self.k]
        return {"k": self.k, "p": P, "n": self.n, "vertices": r["base_n"], "power_edges": r["power_m"], "ops_per_pass": 3}

    def setup(self, lib, tr):
        self.lib = lib

    def ops(self):
        return list(self.OUTPUT)

    def run(self, tr, op):
        k, n, p, edges = str(self.k), str(self.n), str(P), self.path["construct"]
        argv = {
            "construct": ["construct", "power", "--k", k, "--p", p, "--out", edges],
            "color": ["color", edges, "--n", n, "--out", self.path["color"]],
            "verify": ["verify", "claim26", "--k", k, "--p", p, "--n", n, "--out", self.path["verify"]],
        }[op]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path[op])  # so a report can only come from this op
        with contextlib.redirect_stderr(io.StringIO()):
            code = tr.call(f"cli.{op}", self.lib.cli.main, argv)
        if os.path.exists(self.path[op]):
            tr.count("formats.bytes_written", os.path.getsize(self.path[op]))
        if op == "color":
            tr.count("formats.bytes_read", os.path.getsize(edges))
        return code

    def _reports(self, op: str) -> dict:
        with open(self.path[op]) as fh:
            return json.load(fh)

    def check(self, op, code):
        _require(code in (0, 1, 2), f"exit code {code}")
        if code == 2 and op != "construct":
            verdicts = {r["verdict"] for r in self._reports(op)["reports"]}
            _require("budget-exceeded" in verdicts, "exit 2 without a budget-exceeded report")
            return "undecided"
        _require(code == 0, f"exit code {code}")
        r = ref.RECORDED[self.k]
        if op == "construct":
            header, p = _edgelist_header(self.path[op])
            _require(header == (r["base_n"], r["power_m"]) and p == P, f"edge list header {header}, p {p}")
            return "ok"
        doc = self._reports(op)
        _require(all(x["verdict"] == "pass" for x in doc["reports"]), f"a {op} report did not pass")
        if op == "color":
            palette, assignment = doc["coloring"]["palette"], doc["coloring"]["assignment"]
            _check_coloring(palette, assignment, self.n, r["base_n"], _edgelist_edges(self.path["construct"]))
        else:
            checks = [x["check"] for x in doc["reports"]]
            _require(checks.count("no-long-path") == ref.phi(self.n), f"{checks.count('no-long-path')} class-path reports")
            _require({"proper-coloring", "palette-bound"} <= set(checks), "claim26 lacks the coloring reports")
        return "ok"


def _edgelist_header(path: str):
    p = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("# p:"):
                p = int(line.split(":", 1)[1])
            elif line.startswith("n "):
                _, n, m = line.split()
                return (int(n), int(m)), p
    return None, p


def _edgelist_edges(path: str):
    with open(path) as fh:
        for line in fh:
            if line.startswith("n "):
                break
        return [tuple(map(int, line.split()[:2])) for line in fh if line.strip()]


WORKLOADS = {w.name: w for w in (Tower, Hereditary, Chi, Cli)}
