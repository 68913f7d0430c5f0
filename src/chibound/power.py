"""Modular distance power graphs and prime-indexed growth targets.

Given a base graph in which every reachable pair is joined by a unique
directed path, the power graph for a prime p keeps the same vertices and
joins every comparable pair whose path length is nonzero mod p, oriented
low-to-high in the reachability order and labeled with the residue: it is
the base's reachability closure less the pairs whose length p divides, with
each length taken mod p. The CLI builds every power graph on the closure
``zykov.zykov_closure`` composes; ``graphs.distance_table`` merges any other
base's. Residues are stored per edge at build time because induced subgraphs
cannot recompute them from their own edges alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping

from .errors import DomainTooSmall, NotPrime
from .graphs import LabeledGraph, OrientedGraph, distance_table


def is_prime(n: int) -> bool:
    """Deterministic trial division; desk-scale primes only."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit (Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def primes_through_first_exceeding(n_max: int) -> list[int]:
    """Primes 2, 3, ... up to and including the first prime > n_max."""
    limit = max(4, 2 * n_max + 2)  # Bertrand: a prime exists in (n, 2n)
    primes = sieve_primes(limit)
    out = []
    for q in primes:
        out.append(q)
        if q > n_max:
            return out
    raise AssertionError("sieve limit too small")


def build_power_graph(base, p: int, distances: LabeledGraph | None = None) -> LabeledGraph:
    """Build the power graph of a verified unique-path base for prime p.

    Edges are exactly the pairs (u, v) with u below v in the base reachability
    order and path length d(u, v) not divisible by p; the label is d mod p.
    The base is a subgraph: its edges all carry label 1. ``distances`` is the
    base's closure (``zykov_closure(k)`` for zykov(k)); only when it is not
    given is ``base`` read, and ``distance_table(base)`` merges it. When every
    distance is below p, the power graph is the closure itself and shares its
    graph and labels; otherwise the pairs with d % p == 0 are filtered out.

    Propagates CycleFound/MultiplePaths from ``distance_table`` when the base
    breaks the unique-path contract.
    """
    if not is_prime(p):
        raise NotPrime(p)
    closure = distance_table(base) if distances is None else distances
    g, d = closure.graph, closure.labels
    if max(d, default=0) < p:
        return LabeledGraph(g, d, p)
    residues = [x % p for x in d]  # true exactly where the pair is kept
    kept = OrientedGraph._canonical(g.n, compress(g.tails, residues), compress(g.heads, residues))
    return LabeledGraph(kept, tuple(compress(residues, residues)), p)


@dataclass(frozen=True, eq=False)
class ClassParameters:
    """A growth target tabulated on {2..n_max} and its prime-indexed envelope.

    ``g[q] = max f(n) over q <= n < next prime``, with the last interval
    clipped to the tabulated domain. ``primes`` runs through the first prime
    beyond the domain so every interval below it is explicit.
    """

    f_table: dict[int, int]
    n_max: int
    primes: tuple[int, ...]
    g: dict[int, int]

    def witness_for(self, n: int) -> int:
        """Largest prime <= n; the prime whose power graph covers target n."""
        if n < 2:
            raise DomainTooSmall(f"no prime at or below {n}")
        best = None
        for q in self.primes:
            if q <= n:
                best = q
        if best is None:
            raise DomainTooSmall(f"no prime at or below {n}")
        return best

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "f_table": {str(n): v for n, v in sorted(self.f_table.items())},
            "primes": list(self.primes),
            "g": {str(q): v for q, v in sorted(self.g.items())},
        }


def class_parameters(f: Mapping[int, int], n_max: int) -> ClassParameters:
    """Tabulate the prime-indexed envelope of f over {2..n_max}."""
    if n_max < 2:
        raise DomainTooSmall(f"need n_max >= 2, got {n_max}")
    table = {}
    for n in range(2, n_max + 1):
        if n not in f:
            raise DomainTooSmall(f"f is not defined at {n}")
        table[n] = int(f[n])
    primes = primes_through_first_exceeding(n_max)
    g = {}
    for q, q_next in zip(primes, primes[1:]):
        if q > n_max:
            break
        hi = min(q_next - 1, n_max)
        g[q] = max(table[n] for n in range(q, hi + 1))
    return ClassParameters(f_table=table, n_max=n_max, primes=tuple(primes), g=g)


BUILTIN_F: dict[str, Callable[[int], int]] = {
    "n^2": lambda n: n * n,
    "2^n": lambda n: 2**n,
}


def tabulate_f(name: str, n_max: int) -> dict[int, int]:
    """Materialize a built-in growth function ('n^2' or '2^n') as a table."""
    try:
        fn = BUILTIN_F[name]
    except KeyError:
        raise ValueError(f"unknown built-in function {name!r}; use one of {sorted(BUILTIN_F)}")
    return {n: fn(n) for n in range(2, n_max + 1)}
