"""Orthogonal representation matrices: relations, traces, branching."""

import math
import random

import numpy as np
import pytest

from stablerep import yor
from stablerep.characters import mn_character
from stablerep.fourier import StateFunction, fourier
from stablerep.partitions import hook_dimension, partitions_of, standard_tableaux
from stablerep.permutations import Permutation, cycle, symmetric_group, transposition
from stablerep.yor import branching, irrep_matrix, yor_generators


def test_generator_shapes_and_dimensions():
    for n in range(1, 7):
        for lam in partitions_of(n):
            gens = yor_generators(lam)
            d = hook_dimension(lam)
            assert len(standard_tableaux(lam)) == d
            assert len(gens) == max(n - 1, 0)
            for m in gens:
                assert m.shape == (d, d)


def _generators_by_tableau(lam):
    # Young's rule entry by entry: locate k and k+1 in each tableau, swap them.
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    mats = []
    for k in range(1, sum(lam)):
        m = np.zeros((len(tabs), len(tabs)))
        for t, j in index.items():
            pos = {v: (r, c) for r, row in enumerate(t) for c, v in enumerate(row)}
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            dist = (c2 - r2) - (c1 - r1)
            m[j, j] = 1.0 / dist
            if abs(dist) >= 2:
                swapped = tuple(
                    tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                    for row in t
                )
                m[index[swapped], j] = np.sqrt(1.0 - 1.0 / dist**2)
        mats.append(m)
    return mats


def _branching_rows_by_tableau(lam):
    # Append k to row r of each mu-tableau and find the result among lam's.
    k = sum(lam)
    index = {t: i for i, t in enumerate(standard_tableaux(lam))}
    rows = {}
    for r in range(len(lam)):
        if r + 1 < len(lam) and lam[r] == lam[r + 1]:
            continue  # no corner at the end of row r
        mu = tuple(p for p in lam[:r] + (lam[r] - 1,) + lam[r + 1:] if p)
        held = []
        for tab in standard_tableaux(mu):
            tab = tab + ((),) * (len(lam) - len(tab))
            held.append(index[tuple(row + (k,) if i == r else row for i, row in enumerate(tab))])
        rows[mu] = np.array(held)
    return rows


def test_generators_and_branching_rows_match_the_tableau_loops():
    for n in range(8):
        for lam in partitions_of(n):
            gens = yor_generators(lam)
            want = _generators_by_tableau(lam)
            assert len(gens) == len(want)
            for i, (m, w) in enumerate(zip(gens, want)):
                assert np.array_equal(m, w), (lam, i)
            if n:
                rows = {mu: r for mu, (r, _) in branching(lam)[0].items()}
                want = _branching_rows_by_tableau(lam)
                assert list(rows) == list(want), lam
                for mu in want:
                    assert np.array_equal(rows[mu], want[mu]), (lam, mu)


def _row_word(tab):
    n = sum(map(len, tab))
    word = [0] * n
    for r, row in enumerate(tab):
        for v in row:
            word[v - 1] = r
    return word


def test_levels_stack_the_row_words_of_standard_tableaux():
    for k in range(9):
        level = yor._level(k)
        assert level.words.dtype == np.uint8
        assert len(level.offsets) == len(partitions_of(k)) + 1
        assert len(level.steps) == max(k - 1, 0)
        for s, lam in enumerate(partitions_of(k)):
            rows = slice(level.offsets[s], level.offsets[s + 1])
            tabs = standard_tableaux(lam)
            assert level.words[rows].tolist() == [_row_word(t) for t in tabs], lam
            contents = [[0] * k for _ in tabs]
            for i, tab in enumerate(tabs):
                for r, row in enumerate(tab):
                    for c, v in enumerate(row):
                        contents[i][v - 1] = c - r
            assert level.contents[rows].tolist() == contents, lam


def test_sort_keys_order_shape_indices_past_one_byte():
    # p(17) = 297: a shape index of 256 or more must keep its high byte.
    shape = np.array([256, 255, 1, 0, 257, 256, 1, 511, 512, 256])
    words = np.array([[0, 1], [0, 0], [0, 1], [1, 0], [0, 0],
                      [0, 0], [0, 0], [2, 0], [0, 0], [1, 0]], dtype=np.uint8)
    keys = yor._sort_keys(shape, words)
    want = sorted(range(len(shape)), key=lambda i: (shape[i], words[i].tolist()))
    assert np.argsort(keys, kind="stable").tolist() == want
    assert len(set(keys.tolist())) == len(shape)


def test_cosets_equal_the_dense_product_chain():
    # The two-nonzeros rule reproduces gen @ m bit for bit: each entry is
    # one sum of two products either way.  Each corner holds the columns
    # of the chain's products on its rows.
    for n in range(1, 10):
        for lam in partitions_of(n):
            d = hook_dimension(lam)
            mats = [np.eye(d)]
            for gen in reversed(yor_generators(lam)):
                mats.append(gen @ mats[-1])
            chain = np.stack(mats[::-1], axis=1)
            for mu, (r, columns) in branching(lam)[0].items():
                assert np.array_equal(columns, chain[:, :, r].reshape(d, -1)), (lam, mu)
    # Free the level-9 matrices (about 50 MB), which no other test reads.
    yor_generators.cache_clear()
    branching.cache_clear()


def test_fourier_builds_no_dense_generators(monkeypatch):
    rng = np.random.default_rng(7)
    f = StateFunction.from_vector(7, rng.standard_normal(math.factorial(7)))
    want = fourier(f)

    def refuse(lam):
        raise AssertionError("dense Young generators on the Fourier path")

    monkeypatch.setattr(yor, "yor_generators", refuse)
    yor.branching.cache_clear()
    yor._level.cache_clear()
    got = fourier(f)
    for lam in partitions_of(7):
        assert np.array_equal(got[lam], want[lam]), lam


def test_coxeter_relations():
    for n in range(2, 7):
        for lam in partitions_of(n):
            gens = yor_generators(lam)
            d = hook_dimension(lam)
            eye = np.eye(d)
            for i, s in enumerate(gens):
                assert np.allclose(s @ s, eye, atol=1e-10), (lam, i)
            for i in range(len(gens) - 1):
                lhs = gens[i] @ gens[i + 1] @ gens[i]
                rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
                assert np.allclose(lhs, rhs, atol=1e-10), (lam, i)
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    assert np.allclose(
                        gens[i] @ gens[j], gens[j] @ gens[i], atol=1e-10
                    ), (lam, i, j)


def test_matrices_are_orthogonal():
    rng = random.Random(3)
    group = symmetric_group(5)
    for lam in partitions_of(5):
        for _ in range(10):
            g = rng.choice(group)
            m = irrep_matrix(lam, g)
            assert np.allclose(m.T @ m, np.eye(m.shape[0]), atol=1e-10)


def test_homomorphism_on_random_pairs():
    rng = random.Random(4)
    group = symmetric_group(5)
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        for _ in range(25):
            g, h = rng.choice(group), rng.choice(group)
            lhs = irrep_matrix(lam, g * h)
            rhs = irrep_matrix(lam, g) @ irrep_matrix(lam, h)
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_traces_match_recursion():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for g in symmetric_group(n):
                tr = np.trace(irrep_matrix(lam, g))
                assert abs(tr - mn_character(lam, g.cycle_partition(n))) < 1e-8


def test_schur_orthogonality_spot_checks():
    # sum_g rho_lam(g)_ij rho_mu(g)_kl = (n!/d) delta_lm delta_ik delta_jl
    n = 4
    group = symmetric_group(n)
    for lam, mu in [((3, 1), (3, 1)), ((3, 1), (2, 2)), ((2, 1, 1), (2, 2))]:
        dl = hook_dimension(lam)
        dm = hook_dimension(mu)
        acc = np.zeros((dl, dl, dm, dm))
        for g in group:
            a = irrep_matrix(lam, g)
            b = irrep_matrix(mu, g)
            acc += np.einsum("ij,kl->ijkl", a, b)
        if lam != mu:
            assert np.max(np.abs(acc)) < 1e-9
        else:
            expected = math.factorial(n) / dl
            for i in range(dl):
                for j in range(dl):
                    for k in range(dl):
                        for l in range(dl):
                            want = expected if (i == k and j == l) else 0.0
                            assert abs(acc[i, j, k, l] - want) < 1e-9


def test_fourier_of_point_masses_is_irrep_matrix():
    # n = 0 and 1 included: their blocks are the 1x1 identity.
    for n in range(7):
        for g in symmetric_group(n):
            blocks = fourier(StateFunction.delta(n, g))
            for lam in partitions_of(n):
                assert blocks[lam].shape == (hook_dimension(lam),) * 2
                assert np.allclose(blocks[lam], irrep_matrix(lam, g), atol=1e-12), (lam, g)


def test_fourier_of_point_masses_is_irrep_matrix_sampled_at_level_7():
    rng = random.Random(7)
    group = symmetric_group(7)
    rows = [0, len(group) - 1] + rng.sample(range(len(group)), 30)
    for i in rows:
        blocks = fourier(StateFunction.delta(7, group[i]))
        for lam in partitions_of(7):
            assert np.allclose(blocks[lam], irrep_matrix(lam, group[i]), atol=1e-12), (lam, i)


def test_branching_splits_the_restriction_exactly():
    # On S_{n-1}, rho_lam is rho_mu on mu's rows and exactly 0 elsewhere.
    for n in range(1, 7):
        for lam in partitions_of(n):
            corners, order = branching(lam)
            rows = {mu: r for mu, (r, _) in corners.items()}
            d = hook_dimension(lam)
            assert np.concatenate(list(rows.values()))[order].tolist() == list(range(d))
            for mu, (r, columns) in corners.items():
                assert sum(mu) == n - 1 and len(r) == hook_dimension(mu)
                assert columns.shape == (d, n * len(r))
            for g in symmetric_group(n - 1):
                m = irrep_matrix(lam, g)
                want = np.zeros((d, d))
                for mu, r in rows.items():
                    want[np.ix_(r, r)] = irrep_matrix(mu, g)
                assert np.array_equal(m, want), (lam, g)


def test_branching_cosets_are_the_cycles():
    # c_j = (j j+1 ... k) sends k to j; c_k is the identity.
    for n in range(1, 6):
        for lam in partitions_of(n):
            corners, _ = branching(lam)
            for j in range(1, n + 1):
                want = irrep_matrix(lam, cycle(*range(j, n + 1)))
                for mu, (r, columns) in corners.items():
                    got = columns[:, (j - 1) * len(r) : j * len(r)]
                    assert np.allclose(got, want[:, r], atol=1e-12), (lam, j, mu)


def test_irrep_matrix_identity_and_transposition():
    assert np.allclose(irrep_matrix((2, 1), Permutation({})), np.eye(2))
    m = irrep_matrix((2, 1), transposition(1, 2))
    assert np.allclose(m, np.array([[1.0, 0.0], [0.0, -1.0]]))
