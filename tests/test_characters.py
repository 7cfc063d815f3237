"""Character recursion against an explicit matrix model and frozen tables."""

import math
from fractions import Fraction

import numpy as np

from stablerep.characters import (
    character_table,
    character_value,
    class_representative,
    class_size,
    mn_character,
    normalized_character,
)
from stablerep.partitions import conjugate_partition, hook_dimension, partitions_of
from stablerep.permutations import Permutation, symmetric_group

# The standard two-dimensional representation of S_3 written by hand:
# images of (1 2) and (2 3) acting on the zero-sum plane.
R12 = np.array([[-1.0, 1.0], [0.0, 1.0]])
R23 = np.array([[1.0, 0.0], [1.0, -1.0]])


def standard_rep_s3(g):
    mats = {
        (): np.eye(2),
        ((1, 2),): R12,
        ((2, 3),): R23,
        ((1, 3),): R12 @ R23 @ R12,
        ((1, 2, 3),): R12 @ R23,
        ((1, 3, 2),): R23 @ R12,
    }
    return mats[tuple(tuple(c) for c in g.cycles())]


def test_standard_rep_oracle_for_s3():
    for g in symmetric_group(3):
        tr = np.trace(standard_rep_s3(g))
        assert mn_character((2, 1), g.cycle_partition(3)) == round(tr)


# Frozen character tables; classes run in partitions_of order, so the
# n-cycle class comes first and the identity class last.
TABLE_S4 = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [-1, 0, -1, 1, 3],
    (2, 2): [0, -1, 2, 0, 2],
    (2, 1, 1): [1, 0, -1, -1, 3],
    (1, 1, 1, 1): [-1, 1, 1, -1, 1],
}
TABLE_S5 = {
    (5,): [1, 1, 1, 1, 1, 1, 1],
    (4, 1): [-1, 0, -1, 1, 0, 2, 4],
    (3, 2): [0, -1, 1, -1, 1, 1, 5],
    (3, 1, 1): [1, 0, 0, 0, -2, 0, 6],
    (2, 2, 1): [0, 1, -1, -1, 1, -1, 5],
    (2, 1, 1, 1): [-1, 0, 1, 1, 0, -2, 4],
    (1, 1, 1, 1, 1): [1, -1, -1, 1, 1, -1, 1],
}


def test_frozen_tables():
    for n, table in [(4, TABLE_S4), (5, TABLE_S5)]:
        classes = partitions_of(n)
        for lam, row in table.items():
            for mu, expected in zip(classes, row):
                assert mn_character(lam, mu) == expected, (lam, mu)


def test_degree_is_hook_dimension():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == hook_dimension(lam)


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
            parity = (-1) ** (n - len(mu))
            assert mn_character((1,) * n, mu) == parity


def test_conjugate_twist_by_sign():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                parity = (-1) ** (n - len(mu))
                assert mn_character(conjugate_partition(lam), mu) == parity * mn_character(lam, mu)


def test_row_orthogonality_exact():
    for n in range(1, 7):
        classes = partitions_of(n)
        fact = math.factorial(n)
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                acc = sum(
                    Fraction(class_size(mu)) * mn_character(lam, mu) * mn_character(nu, mu)
                    for mu in classes
                )
                assert acc == (fact if lam == nu else 0)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(class_size(mu) for mu in partitions_of(n)) == math.factorial(n)


def test_class_representative_has_right_type():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert class_representative(mu).cycle_partition(n) == mu


def test_character_value_matches_cycle_partition():
    for g in symmetric_group(4):
        for lam in partitions_of(4):
            assert character_value(lam, g) == mn_character(lam, g.cycle_partition(4))


def test_normalized_character_is_exact():
    assert normalized_character((2, 1), (2, 1)) == 0
    assert normalized_character((3, 1), (2, 1, 1)) == Fraction(1, 3)
    assert normalized_character((2, 2), (1, 1, 1, 1)) == 1


def test_character_table_shape():
    table = character_table(4)
    assert set(table) == set(partitions_of(4))
    for lam, row in table.items():
        assert set(row) == set(partitions_of(4))
        assert row[(1, 1, 1, 1)] == hook_dimension(lam)


def test_fixed_points_are_padded():
    # A 2-cycle inside S_5 on cycle type (2,) with explicit padding.
    g = Permutation.from_cycles([[2, 4]])
    assert character_value((4, 1), g) == mn_character((4, 1), (2, 1, 1, 1))
