"""Reference values the benchmark computes on its own, to check the program's
outputs without trusting any of its code.

Nothing here imports ``chibound``: graphs arrive as a vertex count and a list
of directed edges, so a bug in the program and a bug here would have to
coincide to go unnoticed.
"""

from __future__ import annotations

import math
import random

# Values recorded at the commit that defined the benchmark, for the fixed
# instances: vertices and edges of the base graph, edges and clique number of
# its power graph for p = 7. Clique number k follows from the construction
# (a k-level tower has k-vertex chains and no longer ones).
RECORDED = {
    4: {"base_n": 18, "base_m": 36, "power_m": 54, "omega": 4},
    5: {"base_n": 206, "base_m": 762, "power_m": 1627, "omega": 5},
    6: {"base_n": 37312, "base_m": 186204, "power_m": 654224, "omega": 6},
}

# chi(tower level k) = k, the defining property of the construction.
TOWER_CHI = {4: 4, 5: 5}


def phi(n: int) -> int:
    """Number of reduced fractions s/m in (0, 1] with m <= n."""
    return sum(1 for m in range(1, n + 1) for s in range(1, m + 1) if math.gcd(s, m) == 1)


def successors(n: int, edges) -> list[list[int]]:
    out = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    return out


def descendants(out, u: int) -> set[int]:
    """Every vertex reachable from u by a directed path of length >= 1."""
    seen: set[int] = set()
    stack = list(out[u])
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(out[v])
    return seen


def closure(n: int, edges) -> list[frozenset[int]]:
    """reach[u] = descendants of u; raises on a directed cycle."""
    out = successors(n, edges)
    reach = []
    for u in range(n):
        below = descendants(out, u)
        if u in below:
            raise ValueError(f"directed cycle through vertex {u}")
        reach.append(frozenset(below))
    return reach


def comparable(reach, a: int, b: int) -> bool:
    return b in reach[a] or a in reach[b]


def longest_chain(reach, vertices) -> int:
    """Vertex count of the longest chain of the reachability order within
    ``vertices``: the clique number of the induced subgraph whenever the
    graph's edges are exactly the comparable pairs."""
    chosen = set(vertices)
    memo: dict[int, int] = {}

    def height(u: int) -> int:
        if u not in memo:
            memo[u] = 1 + max((height(v) for v in reach[u] & chosen), default=0)
        return memo[u]

    return max((height(u) for u in chosen), default=0)


def improper_edge(assignment, edges):
    """The first edge whose ends share a color, or None."""
    for u, v in edges:
        if assignment[u] == assignment[v]:
            return (u, v)
    return None


def random_graph(seed: int, n: int, density: float) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a seeded random graph, edges oriented high to low."""
    rng = random.Random(seed)
    return n, [(u, v) for u in range(n) for v in range(u) if rng.random() < density]


def chromatic_number(n: int, edges) -> int:
    """Exact chromatic number of the undirected view, by saturation-ordered
    backtracking that tries k = 1, 2, ... until a k-coloring exists."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    k = 1 if n else 0
    while n and not _colorable(adj, n, k):
        k += 1
    return k


def _colorable(adj, n: int, k: int) -> bool:
    colors = [-1] * n

    def forbidden(v: int) -> int:
        mask = 0
        for w in adj[v]:
            if colors[w] >= 0:
                mask |= 1 << colors[w]
        return mask

    def search(done: int, used: int) -> bool:
        if done == n:
            return True
        v, v_mask, v_key = -1, 0, None
        for u in range(n):
            if colors[u] < 0:
                mask = forbidden(u)
                key = (mask.bit_count(), len(adj[u]))
                if v_key is None or key > v_key:
                    v, v_mask, v_key = u, mask, key
        for c in range(min(used + 1, k)):
            if not (v_mask >> c) & 1:
                colors[v] = c
                if search(done + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return search(0, 0)
