"""Independent exact verifiers: chromatic number, maximum clique, path
uniqueness, triangle-freeness, partition cover, zero-sum freeness,
long-path absence, and coloring properness.

Everything in this module is written against a graph's raw edge store
only: the parallel ``tails`` and ``heads`` tuples, whose run of heads with
tail u is u's out-row, and the row offsets into them. In-degrees and every
bitset row (undirected rows for the searches, lower-neighbour rows for
triangles, reach rows for unique paths) are built from them here; ``_rows``
builds the undirected rows of any induced subgraph, the whole graph
included, from its vertices' out-rows alone. On a graph whose edges all
descend the longest-path DPs walk the two tuples and need no offsets. A
row is as wide as its highest bit, so rows cost up to n²/8 bytes on a
sparse graph whose edges join far-apart indices. None of it reuses the
pipeline's distance or coloring code, so a pipeline bug and an oracle bug
would have to coincide to slip through. Every fail verdict
carries a witness that is re-checked by a few lines of direct arithmetic
before it is reported. Searches are single-threaded with fixed tie-breaking
by vertex index, so verdicts and witnesses are byte-stable across runs.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import gt

from .errors import BudgetExceeded, CycleFound
from .graphs import OrientedGraph, oriented_view


@dataclass(frozen=True)
class Budget:
    """Caps for exact searches; exceeding one is a distinct outcome, never a
    silent approximation. Node caps are deterministic; time caps are not and
    exist for interactive use."""

    max_nodes: int | None = None
    max_millis: float | None = None


class _Tracker:
    """A search's budget and its node count so far. Each search loop counts
    the nodes it enters in a local, raises BudgetExceeded once the count
    passes ``max_nodes`` or, read every 256th node, the clock passes
    ``deadline``, and writes the count back to ``nodes`` on return and on
    raise."""

    __slots__ = ("what", "max_nodes", "deadline", "nodes")

    def __init__(self, what: str, budget: Budget | None):
        self.what = what
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_millis is not None:
            self.deadline = time.monotonic() + budget.max_millis / 1000.0
        self.nodes = 0


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """One checked property on one instance.

    ``verdict`` is "pass", "fail", or "budget-exceeded"; a fail always carries
    a re-checkable ``witness``. Wall time stays on the report for the stderr
    lines, out of its JSON form, so report files are byte-identical across runs.
    """

    check: str
    instance: str
    verdict: str
    witness: dict | None
    wall_time_ms: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _describe(g: OrientedGraph) -> str:
    return f"graph(n={g.n}, m={g.m})"


def timed_report(check: str, instance: str, verdict: str, witness, started: float) -> VerificationReport:
    """A report whose wall time runs from ``started`` (a perf_counter reading) to now."""
    return VerificationReport(
        check=check,
        instance=instance,
        verdict=verdict,
        witness=witness,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )


def budget_report(check: str, instance: str, exc: BudgetExceeded, started: float) -> VerificationReport:
    """Wrap an exceeded search budget, begun at ``started``, as a report
    instead of a crash."""
    witness = {"nodes": exc.nodes}
    if exc.best_lower is not None:
        witness["best_lower"] = exc.best_lower
    if exc.best_upper is not None:
        witness["best_upper"] = exc.best_upper
    return timed_report(check, instance, "budget-exceeded", witness, started)


def _rows(graph: OrientedGraph, vertices) -> list[int]:
    """Undirected bitset rows of the subgraph induced on ``vertices``, a
    sequence of distinct vertices: bit j of row i is set iff vertices[i] and
    vertices[j] are joined by an edge either way. Built from the out-rows of
    those vertices alone."""
    at = [-1] * graph.n
    for i, v in enumerate(vertices):
        at[v] = i
    rows, first, heads = [0] * len(vertices), graph._row_starts(), graph.heads
    for i, u in enumerate(vertices):
        bit, row = 1 << i, 0
        for v in heads[first[u] : first[u + 1]]:
            j = at[v]
            if j >= 0:
                row |= 1 << j
                rows[j] |= bit
        rows[i] |= row
    return rows


def _bits(mask: int):
    """The set bits of ``mask``, lowest first. Peeling the lowest bit with
    ``m & -m`` copies the whole mask at each step, which is quadratic in
    its width, so a mask wider than 64 bits is read from its binary digits
    instead, in time linear in the width: the runs of zeros between its
    ones give the gaps between set bits. Up to 64 bits peeling is cheaper:
    on half-dense masks the two walks cross between 32 and 64 bits, and
    without the peel ``max_clique`` on the small induced subgraphs of
    power(4, 3) took 12% longer. Either result is walked once."""
    if mask.bit_length() <= 64:
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return bits
    zeros = bin(mask)[:1:-1].split("1")  # zeros[i] ends at the i-th set bit
    zeros.pop()  # the empty run above the top bit
    walk = accumulate(map((1).__add__, map(len, zeros)), initial=-1)
    next(walk)  # the -1 the sums start from
    return walk


# ---------------------------------------------------------------- chromatic


def _greedy_clique(rows: list[int], order: list[int]) -> list[int]:
    """Maximal clique on ``_rows(graph, order)`` by repeatedly taking the
    candidate with most candidate neighbors, lowest original index
    ``order[v]`` on ties; a cheap lower bound, never exact. Returns
    positions in ``order``."""
    clique = []
    cand = (1 << len(rows)) - 1
    while cand:
        best_v, best_key = -1, None
        for v in _bits(cand):
            key = ((rows[v] & cand).bit_count(), -order[v])
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        clique.append(best_v)
        cand &= rows[best_v]
    return clique


def _k_colorable(rows: list[int], order: list[int], k: int, tracker: _Tracker) -> list[int] | None:
    """Backtracking k-colorability by DSATUR (Brélaz 1979) with the new-color
    symmetry break (a vertex may open at most one fresh color), on
    ``_rows(graph, order)``; returns the assignment by vertex, or None. At
    k = n a fresh color is always free, so the search never backtracks: its
    one descent is greedy DSATUR, n + 1 nodes.

    ``levels[s]`` holds the uncolored vertices with s distinct neighbour
    colors, none above ``used``, the colors in use, and ``adj[c]`` those next
    to color c. Each node colors the lowest vertex of the top level with its
    lowest free color and pushes a frame (the vertex, not its mask, which is
    as wide as its index; its level; its color; ``used`` before it; the bits
    the color added to ``adj``), popped when the search backtracks past it.
    Coloring moves the added bits up one level and undoing it moves them back
    down, each pass scanning against the move. A node is counted each time the
    loop enters it, the final all-colored node included, against the
    tracker's budget (see ``_Tracker``).
    """
    n = len(rows)
    levels = [0] * (k + 1)
    levels[0] = (1 << n) - 1
    adj = [0] * k
    stack: list[tuple[int, int, int, int, int]] = []
    used = 0
    nodes, deadline = tracker.nodes, tracker.deadline
    cap = sys.maxsize if tracker.max_nodes is None else tracker.max_nodes
    try:
        while True:
            nodes += 1
            if nodes > cap or (deadline is not None and not nodes & 255 and time.monotonic() > deadline):
                raise BudgetExceeded(tracker.what, nodes)
            if len(stack) == n:
                colors = [0] * n
                for v, _, c, _, _ in stack:
                    colors[order[v]] = c
                return colors
            s = used
            while not levels[s]:
                s -= 1
            lv = levels[s]
            low = lv & -lv
            levels[s] = lv ^ low
            v, c = low.bit_length() - 1, 0
            while True:  # find v a color from c on, backtracking while none is free
                limit = used + 1 if used < k else k
                while c < limit and adj[c] >> v & 1:
                    c += 1
                if c < limit:
                    break
                levels[s] |= 1 << v
                if not stack:
                    return None
                v, s, c, used, new = stack.pop()
                adj[c] ^= new
                for t in range(1, (c + 2 if c >= used else used + 1)):
                    moved = levels[t] & new
                    if moved:
                        levels[t] ^= moved
                        levels[t - 1] |= moved
                c += 1
            row = rows[v]
            new = row ^ (row & adj[c])  # rows[v] minus adj[c], with no negative int
            adj[c] |= new
            for t in range(used, -1, -1):
                moved = levels[t] & new
                if moved:
                    levels[t] ^= moved
                    levels[t + 1] |= moved
            stack.append((v, s, c, used, new))
            if c >= used:
                used = c + 1
    finally:
        tracker.nodes = nodes


def exact_chromatic_number(g, budget: Budget | None = None) -> int:
    """Exact chromatic number of the undirected view.

    Iterative deepening on k from a greedy clique lower bound, each step a
    DSATUR backtracking search (``_k_colorable``) on bitset saturation levels.
    The same search at k = n, on a tracker of its own outside the budget, is
    the greedy coloring that bounds the deepening from above. The degrees come
    from the edge store of the undirected view (``_descending``), each edge
    counted at both ends. The clique and the searches run on the one set of
    rows built over the vertices by descending degree, ties by index, so the
    lowest bit of a vertex set is its vertex of greatest degree, then lowest
    index. BudgetExceeded carries the bracketing bounds proven so far.
    """
    graph = oriented_view(g)
    if not graph._descends():
        graph = _descending(graph)
    n = graph.n
    if n == 0:
        return 0
    degree = Counter(graph.tails)
    degree.update(graph.heads)
    order = sorted(range(n), key=degree.__getitem__, reverse=True)  # stable: ties by index
    rows = _rows(graph, order)
    tracker = _Tracker("chromatic-number", budget)
    lb = max(1, len(_greedy_clique(rows, order)))
    ub = max(_k_colorable(rows, order, n, _Tracker("chromatic-number", None))) + 1
    for k in range(lb, ub):
        try:
            if _k_colorable(rows, order, k, tracker) is not None:
                return k
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                "chromatic-number", exc.nodes, best_lower=k, best_upper=ub
            ) from None
    return ub


def _descending(graph: OrientedGraph) -> OrientedGraph:
    """The undirected view of graph, each edge oriented from high index to low."""
    return OrientedGraph(graph.n, [(max(e), min(e)) for e in zip(graph.tails, graph.heads)])


def _fits_in_classes(und, p_mask: int, room: int) -> int:
    """The number of independent sets that greedy coloring splits the
    vertices of ``p_mask`` into, each taking the lowest remaining vertex
    that has no neighbour in it yet, if that is at most ``room``; else 0.
    A clique has one vertex in each set.

    Two loops build the same sets. One builds each set in a pass over the
    vertices left, one short test each, so it makes up to ``room`` passes.
    The other strikes each vertex it takes, and its neighbours, from a
    bitset of the candidates, at a few steps as long as the mask is wide
    per vertex taken; so it finds a set of few vertices without a pass over
    the rest, as on a large clique. The passes are taken where ``room`` is
    small next to the width: on the 37,312-bit masks of power(6, p), with
    room at most 5, they are four to six times faster, and on masks a few
    hundred bits wide the two loops take about as long."""
    if room * 256 < p_mask.bit_length():
        left = _bits(p_mask)
        for classes in range(room):
            taken, rest = 0, []
            for v in left:
                if und[v] & taken:
                    rest.append(v)
                else:
                    taken |= 1 << v
            if not rest:
                return classes + 1
            left = rest
        return 0
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


def _heights(graph: OrientedGraph, order: range | list[int]) -> list[int]:
    """h[v] counts the vertices of the longest directed path leaving v, by a
    DP over the edges, tails in reverse ``_kahn`` ``order``: on its range,
    the descending order, the edges as they stand, tails ascending."""
    if isinstance(order, range):
        pairs = zip(graph.tails, graph.heads)
    else:
        first, heads = graph._row_starts(), graph.heads
        pairs = ((u, v) for u in reversed(order) for v in heads[first[u] : first[u + 1]])
    h = [1] * graph.n
    for u, v in pairs:
        if h[v] >= h[u]:
            h[u] = h[v] + 1
    return h


def _path_heights(graph: OrientedGraph) -> tuple[list[int], list[int]] | None:
    """(h, d): h is ``_heights``, d[v] counts the vertices of the longest
    path entering v, by its DP run forwards; None on a cyclic orientation.
    h falls and d rises along every edge, so both properly color the
    undirected view."""
    order = _kahn(graph)
    if len(order) < graph.n:
        return None
    if isinstance(order, range):
        pairs = zip(reversed(graph.tails), reversed(graph.heads))
    else:
        first, heads = graph._row_starts(), graph.heads
        pairs = ((u, v) for u in order for v in heads[first[u] : first[u + 1]])
    d = [1] * graph.n
    for u, v in pairs:
        if d[v] <= d[u]:
            d[v] = d[u] + 1
    return _heights(graph, order), d


class _Split:
    """The split bound on the candidates after branching on w, from the
    class bitsets of the colorings h and d. Every candidate is adjacent to
    w, so it lies below w (an out-neighbour: h < h(w)) or above it (an
    in-neighbour: h > h(w) and d < d(w)). A clique among the candidates has
    distinct h below and distinct d above, so it has at most as many
    vertices as the h-classes below h(w) that meet the candidates plus the
    d-classes below d(w) that meet those above. That takes at most t bitset
    ANDs, t = max h."""

    __slots__ = ("h", "d", "hmasks", "dmasks")

    def __init__(self, h: list[int], d: list[int]):
        self.h, self.d = h, d
        # bitsets of the classes, at the index of their color; the longest
        # path has max(h) = max(d) vertices
        hmasks = [0] * (max(h) + 1)
        dmasks = hmasks[:]
        for v in range(len(h)):
            bit = 1 << v
            hmasks[h[v]] |= bit
            dmasks[d[v]] |= bit
        self.hmasks, self.dmasks = hmasks, dmasks

    def bound(self, p_mask: int, w: int) -> int:
        count = 0
        below = 0
        for mask in self.hmasks[1 : self.h[w]]:
            meet = mask & p_mask
            if meet:
                count += 1
                below |= meet
        above = p_mask ^ below
        for mask in self.dmasks[1 : self.d[w]]:
            if mask & above:
                count += 1
        return count


# A level whose core holds more than this share of the vertices runs on the
# whole graph. At 0.5, power(6, 3) and power(6, 5) search only level 6 on its
# core (9.7% of the vertices) and level 5 (58.6%) on the whole graph. A share
# above 0.586 made power(6, 5) 2.5 times faster but power(6, 3), whose
# level-5 core is built only to be cut at its root, about a tenth slower
# (min of 3, 2-vCPU VM).
_CORE_SHARE = 0.5


def max_clique(g, budget: Budget | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique of the undirected view, with one witness clique.

    Bron-Kerbosch with greatest-cover pivoting on bitset rows, run on an
    explicit stack; candidates are consumed in ascending vertex order.

    The longest-path heights h of an acyclic orientation color the undirected
    view, so ω is at most t = max h; Mirsky's theorem makes that tight when
    the graph is the comparability graph of its reachability order. The
    search descends over targets from t. Each level looks for a clique of t
    vertices and cuts a branch when its candidates cannot complete one: by
    their count, then by the split bound (see ``_Split``), then by a greedy
    coloring of them (Tomita and Seki's MCQ bound). A level that ends
    without a t-clique proves ω < t, and the witness is the first t-clique
    the last level meets in pivot order.

    A clique of an acyclic orientation is a transitive tournament, so it
    lies on one directed path, and each of its t vertices v has
    h(v) + d(v) - 1 >= t (d as in ``_path_heights``). A level whose core,
    the vertices that pass that test, is at most ``_CORE_SHARE`` of the
    graph searches only the core, with rows built for it alone; h and d
    still color it, so the split bound holds there. Its root coloring
    bounds the clique number of the core only, so after it the next level
    sought is t - 1. Any other level searches the whole graph, as the list
    ``range(n)``. A level on the whole graph whose root the greedy coloring
    cuts, with c classes, proves ω <= c, so the next level sought is c; the
    levels between would each be cut at the root the same way.
    A cyclic orientation takes h and d of ``_descending(graph)``, which has
    the same undirected view. A budget stop reports the bracket [largest
    clique met, t].
    """
    graph = oriented_view(g)
    n = graph.n
    if n == 0:
        return 0, ()
    tracker = _Tracker("max-clique", budget)
    h, d = _path_heights(graph) or _path_heights(_descending(graph))
    best: list[int] = []  # in the graph's own vertex indices
    # the vertex set searched: `keep` lists its vertices (range(n) for the
    # whole graph), `und` holds its rows and `hd` its h and d for the split bound
    keep, und, hd = [], None, None
    split = None  # built at the first split bound taken on the vertex set
    # the root's frame once a level has branched from it; every lower level
    # on the same vertex set then branches from it too, since its room only shrinks
    root = None
    # the class count of the greedy coloring that last cut a root of the whole
    # graph; n until then, so t - 1 is the level sought after a core level
    ceiling = n

    def level(t: int) -> bool:
        """Search for a clique of t vertices; True at the first one, which is
        then ``best``. A frame (candidates, excluded, candidates left to
        branch on) is kept for each open node, and ``r`` is the clique of the
        open path."""
        nonlocal root, ceiling, split
        r: list[int] = []
        frames: list[tuple[int, int, int]] = []
        p, x = (1 << len(und)) - 1, 0
        nodes, deadline = tracker.nodes, tracker.deadline
        cap = sys.maxsize if tracker.max_nodes is None else tracker.max_nodes
        try:
            while True:
                nodes += 1
                if nodes > cap or (deadline is not None and not nodes & 255 and time.monotonic() > deadline):
                    raise BudgetExceeded(tracker.what, nodes)
                if len(r) == t or len(r) > len(best):
                    best[:] = map(keep.__getitem__, r)
                    if len(r) == t:
                        return True
                room = t - 1 - len(r)
                if not r and root is not None:
                    frames.append(root)
                elif not (
                    p.bit_count() <= room
                    # at room 0 the count has failed, so p is not empty and
                    # neither bound below can cut it
                    or room > 0
                    and (
                        (r and (split or (split := _Split(*hd))).bound(p, r[-1]) <= room)
                        or (classes := _fits_in_classes(und, p, room))
                    )
                ):
                    pivot, cover = -1, -1
                    for u in _bits(p | x):
                        c = (und[u] & p).bit_count()
                        if c > cover:
                            cover, pivot = c, u
                    frames.append((p, x, p & ~und[pivot]))
                    if not r:
                        root = frames[0]
                elif not r and len(keep) == n:
                    # t <= n and r is empty, so neither the count nor the split
                    # bound cut the root: the coloring did, with `classes` sets.
                    # On a core that bounds only the core's clique number.
                    ceiling = classes
                while frames:
                    p, x, cand = frames[-1]
                    del r[len(frames) - 1 :]
                    if cand:
                        bit = cand & -cand
                        frames[-1] = (p ^ bit, x | bit, cand ^ bit)
                        v = bit.bit_length() - 1
                        r.append(v)
                        p, x = p & und[v], x & und[v]
                        break
                    frames.pop()
                else:
                    return False
        finally:
            tracker.nodes = nodes

    t = max(h)
    try:
        while True:
            if len(keep) < n:
                core = [v for v in range(n) if h[v] + d[v] > t]
                if len(core) > _CORE_SHARE * n:
                    core = range(n)
                if len(core) > len(keep):  # cores only grow as t falls
                    keep, und = core, _rows(graph, core)
                    hd = [h[v] for v in core], [d[v] for v in core]
                    root = split = None
            if level(t):
                break
            t = min(t - 1, ceiling)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            "max-clique", exc.nodes, best_lower=len(best), best_upper=t, witness=tuple(sorted(best))
        ) from None
    clique = tuple(sorted(best))
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            if not graph.has_und_edge(b, a):  # b -> a first: a built graph descends
                raise AssertionError("clique witness failed adjacency re-check")
    return len(clique), clique


# --------------------------------------------------------------- structure


def _kahn(graph: OrientedGraph) -> range | list[int]:
    """Own topological sort; a short list means a cycle. Every caller's
    result is the same for any topological order, so descending index order,
    as a range, serves when every edge descends (u > v), as in built graphs."""
    if all(map(gt, graph.tails, graph.heads)):
        return range(graph.n - 1, -1, -1)
    indeg = [0] * graph.n
    for v in graph.heads:
        indeg[v] += 1
    order, first, heads = [v for v in range(graph.n) if indeg[v] == 0], graph._row_starts(), graph.heads
    for u in order:  # the list grows while it is walked
        for v in heads[first[u] : first[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order


def _cycle_witness(graph: OrientedGraph, order: list[int]) -> list[int]:
    """A directed cycle among the vertices that a short Kahn ``order`` left
    out, re-checked edge by edge. Each of them has an in-neighbour left out
    too, so stepping back from the least one along such in-neighbours comes
    round to a vertex seen before; the steps since, reversed, close a cycle."""
    out = set(range(graph.n)).difference(order)
    back = {v: u for u, v in zip(graph.tails, graph.heads) if u in out and v in out}
    pos = [-1] * graph.n
    walk, v = [], min(out)
    while pos[v] < 0:
        pos[v] = len(walk)
        walk.append(v)
        v = back[v]
    cycle = walk[pos[v] :][::-1]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not graph.has_edge(a, b):
            raise AssertionError("cycle witness failed edge re-check")
    return cycle


def _two_paths(graph: OrientedGraph, reach: list[int], u: int, v: int) -> list[list[int]]:
    """First two directed u->v paths in lexicographic order; bit v of
    ``reach[x]`` is set iff x reaches v, so the walk enters x only if x is v
    or that bit is set."""
    # depth-first on an explicit stack of out-neighbour iterators, one per
    # vertex of the path but its end, so paths come in lexicographic order
    found: list[list[int]] = []
    path = [u]
    stack = [iter(graph.out_neighbors(u))]
    while stack and len(found) < 2:
        y = next((y for y in stack[-1] if y == v or reach[y] >> v & 1), None)
        if y is None:
            stack.pop()
            path.pop()
        elif y == v:
            found.append(path + [y])
        else:
            path.append(y)
            stack.append(iter(graph.out_neighbors(y)))
    return found


def verify_unique_paths(g, instance: str | None = None) -> VerificationReport:
    """Pass iff the graph is acyclic and no ordered pair is joined by two or
    more directed paths. Failure is a verdict with a cycle or a concrete pair
    of distinct paths, never an exception.

    In reverse topological order each vertex u gets its reach bitset (the
    vertices it reaches, itself excluded) and a flag, set iff u reaches some
    vertex by two paths. Every path from u leaves by one out-neighbour w and
    goes on inside ``reach[w] | 1 << w``, so u is flagged iff some w is, or
    two of those sets meet: the popcount of their OR falls below the sum of
    their popcounts. The witness pair is the least flagged u and the least v
    that u reaches by two paths, found by counting the paths from u alone,
    saturating at 2."""
    started = time.perf_counter()
    graph = oriented_view(g)
    instance = instance or _describe(graph)
    order = _kahn(graph)
    if len(order) < graph.n:
        return timed_report("unique-paths", instance, "fail", {"cycle": _cycle_witness(graph, order)}, started)
    reach = [0] * graph.n
    size = [0] * graph.n  # popcount of reach
    flagged, first, heads = [False] * graph.n, graph._row_starts(), graph.heads
    for u in reversed(order):
        row = total = 0
        for w in heads[first[u] : first[u + 1]]:
            if flagged[w]:
                flagged[u] = True
            row |= reach[w] | 1 << w
            total += size[w] + 1
        reach[u], size[u] = row, row.bit_count()
        if size[u] < total:
            flagged[u] = True
    if True not in flagged:
        return timed_report("unique-paths", instance, "pass", None, started)
    u = flagged.index(True)
    count = [0] * graph.n
    count[u] = 1
    for x in order[order.index(u) :]:
        if count[x]:
            for y in heads[first[x] : first[x + 1]]:
                count[y] = min(2, count[y] + count[x])
    v = count.index(2)
    paths = _two_paths(graph, reach, u, v)
    if len(paths) != 2 or paths[0] == paths[1]:
        raise AssertionError("duplicate-path witness failed re-check")
    for p in paths:
        if p[0] != u or p[-1] != v or not all(
            graph.has_edge(a, b) for a, b in zip(p, p[1:])
        ):
            raise AssertionError("duplicate-path witness failed edge re-check")
    return timed_report(
        "unique-paths",
        instance,
        "fail",
        {"pair": [u, v], "paths": paths},
        started,
    )


def verify_triangle_free(g, instance: str | None = None) -> VerificationReport:
    """Pass iff the undirected view has no triangle. Bit y of ``lower[x]``
    is set iff y < x and the two are adjacent, so each triangle c < b < a
    shows at its edge {a, b} as bit c of ``lower[a] & lower[b]``. The
    witness is the least pair with a common neighbour, which is the least
    (c, b) over those edges, and that pair's least common neighbour, read
    from one more pass over the edges."""
    started = time.perf_counter()
    graph = oriented_view(g)
    instance = instance or _describe(graph)
    lower = [0] * graph.n
    for u, v in zip(graph.tails, graph.heads):
        if u > v:
            lower[u] |= 1 << v
        else:
            lower[v] |= 1 << u
    hits = [(common, min(a, b)) for a, b in zip(graph.tails, graph.heads) if (common := lower[a] & lower[b])]
    if not hits:
        return timed_report("triangle-free", instance, "pass", None, started)
    c, b = min(((common & -common).bit_length() - 1, low) for common, low in hits)
    rows = {c: 0, b: 0}  # undirected rows of the pair only
    for x, y in zip(graph.tails, graph.heads):
        if x in rows:
            rows[x] |= 1 << y
        if y in rows:
            rows[y] |= 1 << x
    common = rows[c] & rows[b]
    tri = sorted((c, b, (common & -common).bit_length() - 1))
    for i, x in enumerate(tri):
        for y in tri[i + 1 :]:
            if not graph.has_und_edge(x, y):
                raise AssertionError("triangle witness failed re-check")
    return timed_report("triangle-free", instance, "fail", {"triangle": tri}, started)


def verify_partition_cover(part, instance: str | None = None) -> VerificationReport:
    """Pass iff the classes of the partition hold each residue 1..p-1 exactly
    once; a fail lists the residues missing, repeated, and outside 1..p-1.
    Counts stop at 2, in p bytes; the few residues outside go to a Counter."""
    started = time.perf_counter()
    p, seen, strays = part.p, bytearray(part.p), Counter()
    for cls in part.classes:
        for a in cls:
            if not 0 < a < p:
                strays[a] += 1
            elif seen[a] < 2:
                seen[a] += 1
    witness = {
        "missing": [a for a in range(1, p) if not seen[a]],
        "duplicated": sorted([a for a, c in enumerate(seen) if c > 1] + [a for a, c in strays.items() if c > 1]),
        "stray": sorted(strays),
    }
    ok = not any(witness.values())
    instance = instance or f"partition(p={part.p}, n={part.n})"
    return timed_report("partition-cover", instance, "pass" if ok else "fail", None if ok else witness, started)


def _widen(x: int, width: int) -> int:
    """x | x << 1 | ... | x << (width - 1), by doubling."""
    w = 1
    while 2 * w <= width:
        x |= x << w
        w *= 2
    return x | x << (width - w)


def _sum_layers(runs: list[list[int]], p: int, n: int):
    """Layers 1, 2, ... up to n of ``verify_partition_sums``, each the union,
    over the runs, of the layer below widened across the run and rotated by
    its least member; stops after the first layer with bit 0 set."""
    full, layer = (1 << p) - 1, 1
    for _ in range(n):
        wide = 0
        for a, b in runs:
            wide |= _widen(layer, b - a + 1) << a
        layer = (wide & full) | wide >> p
        yield layer
        if layer & 1:
            return


def verify_partition_sums(part, instance: str | None = None) -> VerificationReport:
    """Pass iff no class of the partition has m <= n members (repeats allowed)
    summing to 0 mod p. Layer m is a p-bit set, bit r set iff m members sum
    to r mod p (``_sum_layers``), built from the runs of consecutive members;
    only the top layer is kept. A zero in layer m is walked back into an
    explicit multiset witness over the layers built again: from s = 0, each
    layer below gives its least r with (s - r) mod p a member."""
    started = time.perf_counter()
    p, n = part.p, part.n
    instance = instance or f"partition(p={p}, n={n})"
    for i, cls in enumerate(part.classes):
        # the runs of consecutive residues as the class walks them, then merged
        # in order, so a hand-built class may be out of order or repeat members;
        # a residue taken only when needed and a difference of 1 make no new int
        walked: list[list[int]] = []
        for a in cls:
            if not 0 <= a < p:
                a %= p
            if walked and a - walked[-1][1] == 1:
                walked[-1][1] = a
            else:
                walked.append([a, a])
        runs: list[list[int]] = []
        for a, b in sorted(walked):
            if runs and a <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], b)
            else:
                runs.append([a, b])
        if not any(layer & 1 for layer in _sum_layers(runs, p, n)):
            continue
        full, witness, s = (1 << p) - 1, [], 0
        for below in reversed([1, *_sum_layers(runs, p, n)][:-1]):
            mask = 0
            for a, b in runs:
                mask |= ((1 << (b - a + 1)) - 1) << ((s - b) % p)
            below &= (mask & full) | mask >> p
            r = (below & -below).bit_length() - 1
            # the first member of residue s - r: a hand-built class may hold 0 or p + 1
            witness.append(next(a for a in cls if (a - s + r) % p == 0))
            s = r
        witness.sort()
        if not (0 < len(witness) <= n and all(a in cls for a in witness) and sum(witness) % p == 0):
            raise AssertionError("zero-sum witness failed re-check")
        return timed_report("partition-sums", instance, "fail", {"class_index": i + 1, "multiset": witness}, started)
    return timed_report("partition-sums", instance, "pass", None, started)


def verify_no_long_path(g, n: int, instance: str | None = None) -> VerificationReport:
    """Pass iff the longest directed path has length < n. Cyclic input is an
    error (path length is unbounded there), not a verdict."""
    started = time.perf_counter()
    graph = oriented_view(g)
    instance = instance or _describe(graph)
    order = _kahn(graph)
    if len(order) < graph.n:
        raise CycleFound(_cycle_witness(graph, order))
    h = _heights(graph, order)
    if graph.n > 0 and max(h) > n:
        # from the lowest vertex of greatest h, step to the lowest out-neighbour one lower
        path = [h.index(max(h))]
        while h[path[-1]] > 1:
            u = path[-1]
            path.append(next(v for v in graph.out_neighbors(u) if h[v] == h[u] - 1))
        ok = len(path) - 1 >= n and all(
            graph.has_edge(a, b) for a, b in zip(path, path[1:])
        )
        if not ok:
            raise AssertionError("long-path witness failed re-check")
        return timed_report(
            "no-long-path",
            instance,
            "fail",
            {"path": path, "bound": n},
            started,
        )
    return timed_report("no-long-path", instance, "pass", None, started)


def verify_proper(coloring, instance: str | None = None) -> VerificationReport:
    """Pass iff no edge of the coloring's target graph is monochromatic and
    every color fits the stated palette."""
    started = time.perf_counter()
    graph = coloring.target
    instance = instance or _describe(graph)
    assignment = coloring.assignment
    for v in range(graph.n):
        c = assignment[v]
        if not (0 <= c < coloring.palette):
            return timed_report(
                "proper-coloring",
                instance,
                "fail",
                {"vertex": v, "color": c, "palette": coloring.palette},
                started,
            )
    for u, v in zip(graph.tails, graph.heads):
        if assignment[u] == assignment[v]:
            return timed_report(
                "proper-coloring",
                instance,
                "fail",
                {"edge": [u, v], "color": assignment[u]},
                started,
            )
    return timed_report("proper-coloring", instance, "pass", None, started)
