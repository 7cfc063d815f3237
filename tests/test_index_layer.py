"""The index layer against Permutation arithmetic: gathers, tabulation, blocks.

Every gather and tabulation check here is exact: it must reproduce the
per-element Permutation computation bit for bit.  Fourier blocks are
summed in another order than the per-element oracle and agree with it to
1e-12 times sum_g |f(g)|.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from stablerep.canonical import CanonicalState, _row_codes, central_depth
from stablerep.fourier import StateFunction, fourier, gram_matrix
from stablerep.partitions import partitions_of
from stablerep.permutations import (
    Permutation,
    conjugate_words,
    conjugation_map,
    cut_generators,
    cycle,
    cycle_lengths,
    cycle_words,
    element_row,
    group_words,
    inverse_map,
    product_table,
    symmetric_group,
    transposition,
    word_ranks,
)
from stablerep.stability import ad_orbit_state, as_table, centrality_defect
from stablerep.thoma import ThomaParams
from stablerep.yor import irrep_matrix

from test_acceptance import BATTERY

F = Fraction


def enumeration_rows(n):
    """Row of each element in symmetric_group(n), read off the enumeration."""
    return {g: i for i, g in enumerate(symmetric_group(n))}


def elementwise(fn, level):
    return np.array([complex(fn(g)) for g in symmetric_group(level)])


def random_perm(rng, n):
    return Permutation.from_one_line(rng.sample(range(1, n + 1), n))


@pytest.mark.parametrize("n", range(7))
def test_inverse_map_is_inversion(n):
    index = enumeration_rows(n)
    want = [index[g.inverse()] for g in symmetric_group(n)]
    assert inverse_map(n).tolist() == want


def _summed_ranks(words):
    # sum_a e_a a!, each left inversion count e_a a row sum of a broadcast comparison.
    ranks = np.zeros(len(words), dtype=np.int64)
    for a in range(words.shape[1]):
        ranks += (words[:, :a] > words[:, a:a + 1]).sum(axis=1) * math.factorial(a)
    return ranks


@pytest.mark.parametrize("n", range(9))
def test_word_ranks_and_inverse_map_equal_the_summed_formulas(n):
    words = group_words(n)
    for w in (words, words[:, ::-1], words.astype(np.int64)[::-7]):
        assert np.array_equal(word_ranks(w), _summed_ranks(w))
    assert np.array_equal(inverse_map(n), _summed_ranks(np.argsort(words, axis=1) + 1))


def test_cycle_words_match_permutations():
    rng = random.Random(5)
    for n in range(7):
        perms = [random_perm(rng, n) for _ in range(20)]
        rows = [[list(c) for c in g.cycles()] + [[p] for p in range(1, n + 3) if g(p) == p]
                for g in perms]
        for row in rows:
            rng.shuffle(row)
        cycles = [c for row in rows for c in row]
        words, valid = cycle_words([p for c in cycles for p in c], [len(c) for c in cycles],
                                   [len(row) for row in rows], n)
        assert valid.all()
        assert words.tolist() == [list(g.one_line(n)) for g in perms]


@pytest.mark.parametrize("rows, ok", [
    ([[]], True),
    ([[[]]], True),
    ([[[2 ** 65]], [[2 ** 65 + 1]]], True),
    ([[[2 ** 65], [2 ** 65]]], False),
    ([[[0]]], False),
    ([[[-2 ** 65]]], False),
    ([[[1, 4]]], False),
    ([[[1, 10 ** 21]]], False),
    ([[[1, 2], [2, 3]]], False),
    ([[[1, 2, 1]]], False),
    ([[[3], [1, 3]]], False),
], ids=["identity", "empty-cycle", "fixed-above-int64", "repeated-fixed", "zero",
        "negative-above-int64", "above-level", "far-above-level", "not-disjoint",
        "repeated-in-cycle", "fixed-point-moved"])
def test_cycle_words_validity(rows, ok):
    cycles = [c for row in rows for c in row]
    words, valid = cycle_words([p for c in cycles for p in c], [len(c) for c in cycles],
                               [len(row) for row in rows], 3)
    assert valid.tolist() == [ok] * len(rows)
    assert words.tolist() == [[1, 2, 3]] * len(rows)


@pytest.mark.parametrize("n", range(6))
def test_product_table_is_multiplication(n):
    index = enumeration_rows(n)
    group = symmetric_group(n)
    want = [[index[g * h] for h in group] for g in group]
    assert product_table(n).tolist() == want


def test_gram_matrix_equals_the_permutation_loop():
    rng = random.Random(5)
    f = StateFunction(5, {g: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                          for g in symmetric_group(5)})
    for n in range(5):
        group = symmetric_group(n)
        want = np.array([[f(g.inverse() * h) for h in group] for g in group])
        assert np.array_equal(gram_matrix(f, n), want)
        assert np.array_equal(gram_matrix(f.restrict(n)), want)


@pytest.mark.parametrize("n", range(7))
def test_conjugation_map_is_conjugation(n):
    index = enumeration_rows(n)
    rng = random.Random(n)
    conjugators = symmetric_group(n) if n <= 4 else [random_perm(rng, n) for _ in range(4)]
    for t in conjugators:
        want = [index[g.conjugate_by(t)] for g in symmetric_group(n)]
        assert conjugation_map(n, t).tolist() == want
    with pytest.raises(ValueError):
        conjugation_map(n, transposition(n + 1, n + 2))


def test_conjugate_words_reach_past_the_words():
    t = cycle(3, 5, 6)
    for g, word in zip(symmetric_group(4), conjugate_words(group_words(4), t)):
        assert tuple(word) == g.conjugate_by(t).one_line(6)


@pytest.mark.parametrize("level", range(7))
def test_restriction_map_is_the_subgroup(level):
    # S_n is the prefix of S_level: its elements have the first n! rows.
    index = enumeration_rows(level)
    for n in range(level + 1):
        want = [index[g] for g in symmetric_group(n)]
        assert want == list(range(math.factorial(n)))


# Prefix laws: S_k is the first k! rows of every S_n, so every table and
# index map of S_n begins with that of S_k.


@pytest.mark.parametrize("n", range(8))
def test_group_words_and_symmetric_group_begin_with_the_subgroup(n):
    words = group_words(n)
    for k in range(n + 1):
        head = words[: math.factorial(k)]
        assert np.array_equal(head[:, :k], group_words(k))
        assert (head[:, k:] == np.arange(k + 1, n + 1)).all()
        assert symmetric_group(n)[: math.factorial(k)] == symmetric_group(k)


def test_ranks_ignore_appended_fixed_points():
    rng = random.Random(11)
    for k in range(7):
        words = group_words(k)
        for n in range(k, 9):
            tail = np.broadcast_to(np.arange(k + 1, n + 1), (len(words), n - k))
            assert np.array_equal(word_ranks(np.hstack([words, tail])), np.arange(len(words)))
        g = random_perm(rng, k)
        assert len({element_row(g, n) for n in range(g.level, 10)}) == 1


@pytest.mark.parametrize("n", range(8))
def test_inverse_and_conjugation_maps_begin_with_the_subgroup(n):
    rng = random.Random(n)
    for k in range(n + 1):
        size = math.factorial(k)
        assert np.array_equal(inverse_map(n)[:size], inverse_map(k))
        for t in [random_perm(rng, k) for _ in range(3)]:
            assert np.array_equal(conjugation_map(n, t)[:size], conjugation_map(k, t))


@pytest.mark.parametrize("n", range(7))
def test_product_table_begins_with_the_subgroup(n):
    for k in range(n + 1):
        size = math.factorial(k)
        assert np.array_equal(product_table(n)[:size, :size], product_table(k))


@pytest.mark.parametrize("state", BATTERY, ids=range(len(BATTERY)))
def test_battery_tables_begin_with_the_lower_tables(state):
    tables = {n: as_table(state, n).vector for n in range(8)}
    for n in range(8):
        for k in range(n + 1):
            # Bit for bit: the same values, each computed the same way.
            assert tables[n][: math.factorial(k)].tobytes() == tables[k].tobytes(), (n, k)


@pytest.mark.parametrize("n", range(7))
def test_cycle_lengths_match_cycles(n):
    lengths = cycle_lengths(group_words(n))
    for g, row in zip(symmetric_group(n), lengths.tolist()):
        want = [1] * n
        for c in g.cycles():
            for p in c:
                want[p - 1] = len(c)
        assert row == want


def test_cut_generators():
    for level in range(7):
        for n in range(level + 1):
            want = [transposition(i, i + 1) for i in range(1, level) if i != n]
            assert list(cut_generators(n, level)) == want


@pytest.mark.parametrize("state", BATTERY, ids=range(len(BATTERY)))
def test_battery_tables_equal_elementwise_evaluation(state):
    for level in range(7):
        want = elementwise(state, level)
        assert np.array_equal(as_table(state, level).vector, want)
        assert np.array_equal(StateFunction.from_callable(level, state).vector, want)


@pytest.mark.parametrize("state", BATTERY[::3], ids=range(0, len(BATTERY), 3))
def test_pullback_tables_equal_elementwise_conjugation(state):
    # Probes above the truncation, as the stability profile uses them.
    for t in (transposition(2, 3), cycle(4, 5, 6), transposition(6, 7)):
        moved = as_table(ad_orbit_state(state, t), 5)
        want = elementwise(lambda s: state(s.conjugate_by(t)), 5)
        assert np.array_equal(moved.vector, want)


def test_cut_four_table_at_level_eight_equals_elementwise_evaluation():
    state = CanonicalState(4, (2, 1, 1), ThomaParams((F(1, 2), F(1, 5)), (F(1, 4),)))
    assert np.array_equal(as_table(state, 8).vector, elementwise(state, 8))


def test_words_too_wide_for_one_base_code_tabulate_like_single_calls():
    # Base L + 1 codes of L >= 16 columns overflow int64 and are renumbered.
    rng = random.Random(6)
    state = CanonicalState(3, (2, 1), ThomaParams((F(1, 2), F(1, 5)), (F(1, 4),)))
    for width in (15, 16, 20):
        # Most random words straddle the cut; split ones give nonzero values.
        perms = [random_perm(rng, width) for _ in range(10)]
        perms += [Permutation.from_one_line(rng.sample(range(1, 4), 3)
                                            + rng.sample(range(4, width + 1), width - 3))
                  for _ in range(40)]
        words = np.array([g.one_line(width) for g in perms])
        want = np.array([complex(state(g)) for g in perms])
        assert np.array_equal(state.evaluate_words(words), want)
        assert len(set(want.tolist())) > 5


def test_row_codes_tell_apart_rows_equal_modulo_two_to_the_64():
    rows = np.zeros((3, 65), dtype=np.int64)
    rows[0, 0] = 1  # 2**64 in base 2
    rows[2, -1] = 1
    codes = _row_codes(rows, 2)
    assert len(set(codes.tolist())) == 3


def test_float_parameters_tabulate_like_single_calls():
    state = CanonicalState(2, (2,), ThomaParams((0.3, 0.1), (0.2,)))
    assert np.array_equal(as_table(state, 6).vector, elementwise(state, 6))


def test_table_gathers_equal_permutation_versions():
    rng = random.Random(3)
    level = 5
    f = StateFunction(level, {g: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                              for g in symmetric_group(level)})
    t = transposition(2, 3)
    moved = ad_orbit_state(f, t)
    assert np.array_equal(moved.vector, elementwise(lambda s: f(s.conjugate_by(t)), level))
    for n in range(level + 1):
        assert np.array_equal(f.restrict(n).vector, elementwise(f, n))
    defect = max(abs(f(g.inverse()) - np.conj(f(g))) for g in symmetric_group(level))
    assert f.hermitian_defect() == defect


def test_mapping_constructor_ignores_key_order():
    rng = random.Random(4)
    items = [(g, rng.random()) for g in symmetric_group(4)]
    forward = StateFunction(4, dict(items))
    backward = StateFunction(4, dict(reversed(items)))
    assert np.array_equal(forward.vector, backward.vector)
    assert np.array_equal(forward.vector, [v for _, v in items])


def sparse_state(rng, n):
    rows = rng.sample(range(len(symmetric_group(n))), max(len(symmetric_group(n)) // 8, 1))
    if n == 7:
        rows = rows[:100]
    vals = {symmetric_group(n)[r]: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for r in rows}
    return StateFunction(n, vals)


def assert_blocks_equal_the_elementwise_irrep_matrix_sum(f):
    # The coset recursion sums in another order than the elementwise loop;
    # sum_g |f(g)| bounds every block's entries, so 1e-12 of it is float noise.
    n = f.level
    blocks = fourier(f)
    tol = 1e-12 * max(1.0, float(np.abs(f.vector).sum()))
    for lam in partitions_of(n):
        acc = np.zeros_like(blocks[lam])
        for r in np.flatnonzero(f.vector):
            acc += f.vector[r] * irrep_matrix(lam, symmetric_group(n)[r])
        assert np.max(np.abs(blocks[lam] - acc)) <= tol, lam


@pytest.mark.parametrize("n", range(8))
def test_sparse_blocks_equal_the_elementwise_irrep_matrix_sum(n):
    assert_blocks_equal_the_elementwise_irrep_matrix_sum(sparse_state(random.Random(n), n))


@pytest.mark.parametrize("n", range(7))
def test_dense_blocks_equal_the_elementwise_irrep_matrix_sum(n):
    rng = random.Random(100 + n)
    vals = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in symmetric_group(n)]
    assert_blocks_equal_the_elementwise_irrep_matrix_sum(StateFunction.from_vector(n, vals))


@pytest.mark.parametrize("n", range(7))
def test_dense_real_blocks_equal_the_elementwise_irrep_matrix_sum(n):
    rng = random.Random(200 + n)
    vals = [rng.gauss(0, 1) for _ in symmetric_group(n)]
    assert_blocks_equal_the_elementwise_irrep_matrix_sum(StateFunction.from_vector(n, vals))


def test_central_depth_and_defect_of_battery_tables():
    for state in BATTERY:
        table = as_table(state, 5)
        assert central_depth(table, 5) == central_depth(state, 5) <= state.n
        assert centrality_defect(table, state.n, 5) == 0
