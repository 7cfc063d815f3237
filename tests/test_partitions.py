"""Partition enumeration and hook dimensions against brute-force oracles."""

import math
from itertools import permutations as iperm

import pytest

from stablerep.partitions import (
    check_partition,
    conjugate_partition,
    hook_dimension,
    is_partition,
    partitions_of,
    standard_tableaux,
)

# p(0)..p(10), a frozen reference sequence
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(n)) == count


def test_partitions_are_valid_and_ordered():
    for n in range(9):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert is_partition(lam)
            assert sum(lam) == n
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_check_partition_rejects_bad_input():
    for bad in [(1, 2), (2, 0), (-1,), (2, 1.5)]:
        with pytest.raises((ValueError, TypeError)):
            check_partition(bad)
    assert check_partition([3, 1]) == (3, 1)


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition(()) == ()
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate_partition(conjugate_partition(lam)) == lam


def brute_standard_tableaux(lam):
    """Fill the diagram with 1..n in every order, keep the monotone ones."""
    n = sum(lam)
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    count = 0
    for perm in iperm(range(1, n + 1)):
        filling = dict(zip(cells, perm))
        ok = all(
            filling[(r, c)] < filling[(r, c + 1)]
            for r, c in cells
            if (r, c + 1) in filling
        ) and all(
            filling[(r, c)] < filling[(r + 1, c)]
            for r, c in cells
            if (r + 1, c) in filling
        )
        count += ok
    return count


def test_hook_dimension_against_brute_count():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert hook_dimension(lam) == brute_standard_tableaux(lam)


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_hook_dimension_known_values():
    assert hook_dimension((1,)) == 1
    assert hook_dimension((2, 1)) == 2
    assert hook_dimension((3, 2)) == 5
    assert hook_dimension((4, 4)) == 14
    assert hook_dimension((5, 4, 3, 2, 1)) == 292864


def test_standard_tableaux_enumeration():
    for n in range(1, 7):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            assert len(tabs) == hook_dimension(lam)
            assert len(set(tabs)) == len(tabs)
            for tab in tabs:
                assert tuple(len(row) for row in tab) == lam
                flat = [x for row in tab for x in row]
                assert sorted(flat) == list(range(1, n + 1))
                for row in tab:
                    assert all(a < b for a, b in zip(row, row[1:]))
                for r in range(len(tab) - 1):
                    for c in range(len(tab[r + 1])):
                        assert tab[r][c] < tab[r + 1][c]


def test_standard_tableaux_sorted_by_row_word():
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        tabs = standard_tableaux(lam)
        words = [tuple(x for row in tab for x in row) for tab in tabs]
        assert words == sorted(words)
    # The basis order: row words (the row holding 1, 2, ..., n) strictly increase.
    for n in range(9):
        for lam in partitions_of(n):
            words = []
            for tab in standard_tableaux(lam):
                row_of = {v: r for r, row in enumerate(tab) for v in row}
                words.append(tuple(row_of[v] for v in range(1, n + 1)))
            assert all(a < b for a, b in zip(words, words[1:])), lam
