"""The modular residue partition that a Farey sequence induces.

``residue_partition`` walks the terms of the order-n sequence with the
next-term recurrence in integer arithmetic, so interval membership at the
boundaries never goes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotPrime, OrderTooLarge
from .power import is_prime


@dataclass(frozen=True, eq=False)
class ResiduePartition:
    """Classes A_1..A_phi partitioning {1..p-1} by open Farey intervals.

    ``classes[i]`` holds the integers strictly between p*f_i and p*f_{i+1};
    classes may be empty. No m <= n members of one class (repeats allowed)
    sum to 0 modulo p; the oracles module checks that exhaustively.
    """

    p: int
    n: int
    classes: tuple[tuple[int, ...], ...]
    class_index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        # residue -> 0-based class index, built once with the partition
        index = {a: i for i, cls in enumerate(self.classes) for a in cls}
        object.__setattr__(self, "class_index", index)

    def class_of(self, residue: int) -> int:
        """0-based class index of a residue in {1..p-1}."""
        idx = self.class_index.get(residue)
        if idx is None:
            raise ValueError(f"residue {residue} not in 1..{self.p - 1}")
        return idx


def residue_partition(p: int, n: int) -> ResiduePartition:
    """Partition {1..p-1} into the open-interval classes of the order-n sequence.

    Requires p prime and 1 <= n <= p-1: primality keeps every boundary p*s/m
    (m <= n < p) non-integral, which is what makes the classes a partition.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if n < 1 or n >= p:
        raise OrderTooLarge(n, p)
    # consecutive terms a/b < c/d of the order-n sequence, by the next-term
    # recurrence; the class between them is floor(p*a/b)+1 .. ceil(p*c/d)-1
    classes = []
    a, b, c, d = 0, 1, 1, n
    while True:
        classes.append(tuple(range(p * a // b + 1, -(-p * c // d))))
        if c == d:
            return ResiduePartition(p, n, tuple(classes))
        q = (n + b) // d
        a, b, c, d = c, d, q * c - a, q * d - b
