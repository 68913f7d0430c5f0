"""The modular residue partition that a Farey sequence induces.

``residue_partition`` walks the terms of the order-n sequence with the
next-term recurrence in integer arithmetic, so interval membership at the
boundaries never goes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrime, OrderTooLarge
from .power import is_prime


@dataclass(frozen=True, eq=False)
class ResiduePartition:
    """Classes A_1..A_phi partitioning {1..p-1} by open Farey intervals.

    ``classes[i]`` is the range of integers strictly between p*f_i and
    p*f_{i+1}, so a partition is Φ(n) ranges at any p; classes may be empty.
    No m <= n members of one class (repeats allowed) sum to 0 modulo p; the
    oracles module checks that exhaustively.
    """

    p: int
    n: int
    classes: tuple[range, ...]


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
        classes.append(range(p * a // b + 1, -(-p * c // d)))
        if c == d:
            return ResiduePartition(p, n, tuple(classes))
        q = (n + b) // d
        a, b, c, d = c, d, q * c - a, q * d - b
