"""Exception types shared across the toolkit.

Errors that correspond to a combinatorial fact carry the witness as
structured data (a cycle, a clique, a pair of vertices) so callers can
re-check or serialize it instead of parsing messages.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for structural graph errors."""


class UnknownVertex(GraphError):
    def __init__(self, vertex, n_vertices):
        super().__init__(f"vertex {vertex} not in range(0, {n_vertices})")
        self.vertex = vertex
        self.n_vertices = n_vertices


class UniquePathViolation(GraphError):
    """The input breaks the unique-directed-path contract."""


class CycleFound(UniquePathViolation):
    def __init__(self, cycle):
        super().__init__(f"directed cycle through vertices {list(cycle)}")
        self.cycle = list(cycle)


class MultiplePaths(UniquePathViolation):
    def __init__(self, u, v):
        super().__init__(f"more than one directed path from {u} to {v}")
        self.u = u
        self.v = v


def _count_text(x: int, exact: bool) -> str:
    """``x`` in decimal, prefixed "at least" when it is a lower bound, or the
    power of ten below it once it is too long to read (str() refuses
    integers of more than 4,300 digits)."""
    if x < 10**18:
        return str(x) if exact else f"at least {x}"
    digits = int(x.bit_length() * 0.30102999566398120) + 1  # exact or one too many
    if 10 ** (digits - 1) > x:
        digits -= 1
    return f"at least 10^{digits - 1}"


class SizeBudgetExceeded(GraphError):
    """A predicted count of ``unit`` above the cap: the vertices of a graph,
    or the residues of a modulus. ``predicted_vertices`` is the size asked
    for when ``exact``, else a lower bound on it."""

    def __init__(self, predicted_vertices, cap, exact=True, unit="vertices"):
        super().__init__(
            f"predicted size {_count_text(predicted_vertices, exact)} {unit} exceeds cap {cap}"
        )
        self.predicted_vertices = predicted_vertices
        self.cap = cap
        self.exact = exact


class NotPrime(ValueError):
    def __init__(self, p):
        super().__init__(f"{p} is not a prime")
        self.p = p


class DomainTooSmall(ValueError):
    """A growth domain below 2, or a growth table missing a value of f."""


class OrderTooLarge(ValueError):
    """An order n outside 1..p-1, which has no residue partition: the one
    order refusal, of residue_partition, bounded_color and ``verify --n``."""

    def __init__(self, n, p):
        super().__init__(f"order n={n} must satisfy 1 <= n <= p-1 for p={p}")
        self.n = n
        self.p = p


class PrimeMismatch(ValueError):
    def __init__(self, expected, got):
        super().__init__(f"graph has modulus {got}, partition is for {expected}")
        self.expected = expected
        self.got = got


class UnlabeledEdge(ValueError):
    def __init__(self, edge, label=None):
        if label is None:
            msg = f"edge {edge} has no residue label"
        else:
            msg = f"edge {edge} has residue label {label} outside 1..p-1"
        super().__init__(msg)
        self.edge = edge
        self.label = label


class InconsistentLabels(ValueError):
    """A long path inside one residue class did not close into a clique, so
    the residue labels break the power-graph contract."""

    def __init__(self, path, pair):
        super().__init__(
            f"residue labels break the power-graph contract: class path {list(path)} "
            f"has non-adjacent vertices {pair[0]} and {pair[1]}"
        )
        self.path = list(path)
        self.pair = tuple(pair)


class PathTooLong(GraphError):
    def __init__(self, path, bound):
        super().__init__(
            f"directed path of length {len(path) - 1} violates bound {bound}"
        )
        self.path = list(path)
        self.bound = bound


class CliqueTooLarge(GraphError):
    """The claimed clique order was refuted by an explicit larger clique."""

    def __init__(self, clique, claimed):
        super().__init__(
            f"found a clique of size {len(clique)}, refuting claimed order {claimed}"
        )
        self.clique = sorted(clique)
        self.claimed = claimed


class BudgetExceeded(GraphError):
    """A search ran out of its node or time budget; never a silent approximation."""

    def __init__(self, what, nodes, best_lower=None, best_upper=None, witness=None):
        parts = [f"{what}: budget exceeded after {nodes} nodes"]
        if best_lower is not None or best_upper is not None:
            parts.append(f"best bounds [{best_lower}, {best_upper}]")
        super().__init__("; ".join(parts))
        self.what = what
        self.nodes = nodes
        self.best_lower = best_lower
        self.best_upper = best_upper
        self.witness = witness
