"""Group arithmetic against pointwise oracles and brute enumeration."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stablerep.permutations import (
    IDENTITY,
    Permutation,
    adjacent_word,
    cycle,
    element_row,
    group_words,
    split_product,
    symmetric_group,
    transposition,
    word_ranks,
)

from test_index_layer import enumeration_rows


def random_perm(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Permutation.from_one_line(word)


perms7 = st.permutations(list(range(1, 8))).map(Permutation.from_one_line)


@given(perms7, perms7)
def test_composition_is_pointwise(p, q):
    # (p q)(i) = p(q(i)): the right factor acts first.
    for i in range(1, 9):
        assert (p * q)(i) == p(q(i))


@given(perms7, perms7, perms7)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms7)
def test_identity_and_inverse(p):
    assert p * IDENTITY == p
    assert IDENTITY * p == p
    assert p * p.inverse() == IDENTITY
    assert p.inverse() * p == IDENTITY


@given(perms7, perms7)
def test_conjugation_oracle(t, s):
    # s.conjugate_by(t) = t s t^-1 relabels points through t.
    c = s.conjugate_by(t)
    for i in range(1, 9):
        assert c(t(i)) == t(s(i))


@given(perms7, perms7)
def test_sign_is_multiplicative(p, q):
    assert (p * q).sign == p.sign * q.sign


def test_sign_of_cycles():
    assert IDENTITY.sign == 1
    assert transposition(1, 2).sign == -1
    assert cycle(1, 2, 3).sign == 1
    assert cycle(1, 2, 3, 4).sign == -1


def test_cycle_canonical_form():
    p = Permutation.from_cycles([[6, 4, 5], [2, 1]])
    assert p.cycles() == [[1, 2], [4, 5, 6]]
    assert str(p) == "(1 2)(4 5 6)"
    assert str(IDENTITY) == "e"


def test_from_cycles_validation():
    with pytest.raises(ValueError):
        Permutation.from_cycles([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Permutation.from_cycles([[1, 1, 2]])


def test_cycle_type_and_partition():
    p = Permutation.from_cycles([[1, 2], [3, 4, 5]])
    assert p.cycle_type() == (3, 2)
    assert p.cycle_partition(7) == (3, 2, 1, 1)
    assert IDENTITY.cycle_type() == ()
    assert IDENTITY.cycle_partition(3) == (1, 1, 1)


def test_support_and_level():
    p = Permutation.from_cycles([[2, 5]])
    assert p.support == frozenset({2, 5})
    assert p.level == 5
    assert IDENTITY.level == 0


def test_shift_translates_support():
    p = cycle(1, 2, 3)
    q = p.shift(4)
    assert q.cycles() == [[5, 6, 7]]
    for i in range(1, 5):
        assert q(i + 4) == p(i) + 4
    assert p.shift(0) == p


def test_mapping_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation({1: 2, 2: 2})
    with pytest.raises(ValueError):
        Permutation({1: 2})  # 2 is unmapped, not a bijection of its support


def test_symmetric_group_enumeration():
    for n in range(5):
        group = symmetric_group(n)
        assert len(group) == math.factorial(n)
        assert len(set(group)) == len(group)
    # lexicographic in the one-line words of w0 g w0, w0 the longest element,
    # so the identity comes first
    assert symmetric_group(3)[0] == IDENTITY
    for n in range(6):
        w0 = Permutation.from_one_line(range(n, 0, -1))
        words = [g.conjugate_by(w0).one_line(n) for g in symmetric_group(n)]
        assert words == sorted(words), n


def test_element_row_inverts_enumeration():
    for n in range(6):
        for i, g in enumerate(symmetric_group(n)):
            assert element_row(g, n) == i


def test_group_words_are_ranked_by_position():
    for n in range(9):
        words = group_words(n)
        assert words.shape == (math.factorial(n), n) and words.dtype == np.int8
        assert np.array_equal(word_ranks(words), np.arange(len(words)))
        # Row r is w0 u w0 for the r-th word u in lexicographic order.
        assert [tuple(w) for w in words.tolist()] == [
            tuple(n + 1 - v for v in reversed(u))
            for u in itertools.permutations(range(1, n + 1))
        ]


def test_coset_order_lists_nested_cosets():
    # Read backwards, row p is c_{j_n} ... c_{j_1} with c_j = (j j+1 ... k)
    # in S_k and the digits j_k - 1 of p in mixed radix, j_n most significant.
    for n in range(7):
        index = enumeration_rows(n)
        want = []
        for digits in itertools.product(*(range(1, k + 1) for k in range(n, 0, -1))):
            p = IDENTITY
            for k, j in zip(range(n, 0, -1), digits):
                p = p * cycle(*range(j, k + 1))
            want.append(index[p])
        assert want == list(range(math.factorial(n)))[::-1], n


def test_preserves_matches_brute_force():
    for s in symmetric_group(5):
        expected = all(s(i) <= 3 for i in range(1, 4))
        assert s.preserves(3) == expected


def test_split_product_against_brute_force():
    # s factors as s1 s2 with s1 on {1..n} and s2 on {n+1..} iff s
    # preserves the first block.
    for s in symmetric_group(5):
        parts = split_product(s, 3)
        if not s.preserves(3):
            assert parts is None
            continue
        s1, s2 = parts
        assert s1 * s2 == s
        assert s2 * s1 == s
        assert all(p <= 3 for p in s1.support)
        assert all(p > 3 for p in s2.support)


def test_split_product_edge_levels():
    s = cycle(1, 2, 3)
    s1, s2 = split_product(s, 3)
    assert (s1, s2) == (s, IDENTITY)
    s1, s2 = split_product(s.shift(3), 3)
    assert (s1, s2) == (IDENTITY, s.shift(3))


def test_split_types_matches_split_product():
    for s in symmetric_group(6):
        for n in range(7):
            parts = split_product(s, n)
            want = None if parts is None else (parts[0].cycle_type(), parts[1].cycle_type())
            assert s.split_types(n) == want, (s, n)
    assert cycle(4, 5).split_types(3) == ((), (2,))
    with pytest.raises(ValueError):
        IDENTITY.split_types(-1)


def test_adjacent_word_reconstructs():
    for p in symmetric_group(5):
        word = adjacent_word(p)
        prod = IDENTITY
        for i in word:
            prod = prod * transposition(i, i + 1)
        assert prod == p


def test_one_line_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        p = random_perm(rng, 6)
        assert Permutation.from_one_line(p.one_line(6)) == p
        assert p.inverse().inverse() == p


def test_ordering_is_total_on_level():
    group = sorted(symmetric_group(3))
    assert len(group) == 6
    for a, b in zip(group, group[1:]):
        assert a < b
