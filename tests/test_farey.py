"""Exact fraction sequences and the count Φ (the references in helpers), and
the open-interval residue partition. Everything here must hold with integer
arithmetic only; a single float comparison at a boundary would void the
partition property."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chibound import (
    NotPrime,
    OrderTooLarge,
    is_prime,
    residue_partition,
)
from helpers import farey_sequence, phi_count


def test_sequence_order_one():
    assert farey_sequence(1).entries == (Fraction(0), Fraction(1))


def test_sequence_order_two():
    assert farey_sequence(2).entries == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_sequence_order_three():
    assert farey_sequence(3).entries == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1),
    )


def test_sequence_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        farey_sequence(0)


@given(st.integers(1, 60))
def test_sequence_is_exactly_the_reduced_fractions(n):
    entries = farey_sequence(n).entries
    assert entries[0] == 0 and entries[-1] == 1
    assert all(a < b for a, b in zip(entries, entries[1:]))
    expected = {
        Fraction(s, m)
        for m in range(1, n + 1)
        for s in range(0, m + 1)
        if math.gcd(s, m) == 1
    }
    assert set(entries) == expected
    assert all(f.denominator <= n for f in entries)


@given(st.integers(1, 60))
def test_adjacent_entries_are_unimodular(n):
    # classic adjacency invariant: bc - ad = 1 for consecutive a/b < c/d
    for f, g in zip(farey_sequence(n).entries, farey_sequence(n).entries[1:]):
        assert f.denominator * g.numerator - f.numerator * g.denominator == 1


def test_phi_small_values():
    assert phi_count(1) == 1
    assert phi_count(3) == 4
    assert phi_count(4) == 6


@given(st.integers(1, 40))
def test_phi_matches_sequence_length(n):
    assert phi_count(n) == farey_sequence(n).phi == len(farey_sequence(n).entries) - 1


def _contents(part):
    return tuple(map(tuple, part.classes))


def test_partition_examples():
    assert _contents(residue_partition(5, 2)) == ((1, 2), (3, 4))
    assert _contents(residue_partition(7, 3)) == ((1, 2), (3,), (4,), (5, 6))
    assert _contents(residue_partition(3, 1)) == ((1, 2),)


def test_partition_allows_empty_classes():
    assert _contents(residue_partition(5, 4)) == ((1,), (), (2,), (3,), (), (4,))


@pytest.mark.parametrize("p", [p for p in range(200) if is_prime(p)])
def test_classes_are_consecutive_unit_step_ranges(p):
    # each class is stored as its interval, so a partition costs Φ(n) ranges
    # at any p; the intervals run 1..p-1 in order, an empty one included
    for n in range(1, p):
        classes = residue_partition(p, n).classes
        assert all(type(cls) is range and cls.step == 1 for cls in classes)
        assert [cls.start for cls in classes] == [1] + [cls.stop for cls in classes[:-1]]
        assert classes[-1].stop == p


def test_partition_memory_does_not_grow_with_the_modulus():
    # Φ(n) ranges per order, whatever the modulus; a class that listed its
    # residues would hold all p - 1 of them at n = 1
    tracemalloc.start()
    try:
        for n in range(1, 7):
            residue_partition(999983, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_partition_validation():
    with pytest.raises(NotPrime):
        residue_partition(6, 2)
    with pytest.raises(OrderTooLarge):
        residue_partition(5, 5)
    with pytest.raises(OrderTooLarge):
        residue_partition(5, 0)


@pytest.mark.parametrize("p", [p for p in range(32) if is_prime(p)])
def test_partition_covers_residues_exactly_once(p):
    for n in range(1, min(7, p)):
        part = residue_partition(p, n)
        seen = [a for cls in part.classes for a in cls]
        assert sorted(seen) == list(range(1, p))
        assert len(seen) == len(set(seen))
        assert len(part.classes) == phi_count(n)


@pytest.mark.parametrize("p", [p for p in range(32) if is_prime(p)])
def test_classes_fit_between_consecutive_fraction_multiples(p):
    for n in range(1, min(7, p)):
        entries = farey_sequence(n).entries
        part = residue_partition(p, n)
        for (lo, hi), cls in zip(zip(entries, entries[1:]), part.classes):
            for a in cls:
                assert p * lo < a < p * hi  # exact Fraction comparisons


@pytest.mark.parametrize("p", [p for p in range(32) if is_prime(p)])
def test_scaled_classes_avoid_multiples_of_p(p):
    # for every class and every m <= n, m*A_i sits strictly inside one window
    # (p*(s-1), p*s); that is the mechanism behind zero-sum freeness
    for n in range(1, min(7, p)):
        part = residue_partition(p, n)
        for cls in part.classes:
            if not cls:
                continue
            for m in range(1, n + 1):
                quotients = {(m * a) // p for a in cls}
                assert len(quotients) == 1
                assert all((m * a) % p != 0 for a in cls)


@pytest.mark.parametrize("p", [p for p in range(32) if is_prime(p)])
def test_integer_partition_matches_the_fraction_sequence_at_every_order(p):
    # every order the partition accepts, against classes computed here
    # from the Fraction terms of farey_sequence
    for n in range(1, p):
        entries = farey_sequence(n).entries
        expected = tuple(
            tuple(range(math.floor(p * f) + 1, math.ceil(p * g))) for f, g in zip(entries, entries[1:])
        )
        assert _contents(residue_partition(p, n)) == expected
