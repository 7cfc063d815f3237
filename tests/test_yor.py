"""Orthogonal representation matrices: relations, traces, tables."""

import math
import random

import numpy as np
import pytest

from stablerep.characters import mn_character
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import Permutation, symmetric_group, transposition
from stablerep.yor import irrep_dimension, irrep_matrix, irrep_table, yor_generators


def test_generator_shapes_and_dimensions():
    for n in range(1, 7):
        for lam in partitions_of(n):
            gens = yor_generators(lam)
            d = hook_dimension(lam)
            assert irrep_dimension(lam) == d
            assert len(gens) == max(n - 1, 0)
            for m in gens:
                assert m.shape == (d, d)


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


def test_irrep_table_agrees_with_irrep_matrix():
    # n = 0 and 1 included: their tables are the 1x1 identity.
    for n in range(7):
        group = symmetric_group(n)
        for lam in partitions_of(n):
            table = irrep_table(n, lam)
            assert table.shape == (len(group),) + (hook_dimension(lam),) * 2
            for i, g in enumerate(group):
                assert np.allclose(table[i], irrep_matrix(lam, g), atol=1e-12), (lam, g)


def test_irrep_table_agrees_with_irrep_matrix_sampled_at_level_7():
    rng = random.Random(7)
    group = symmetric_group(7)
    rows = [0, len(group) - 1] + rng.sample(range(len(group)), 30)
    for lam in partitions_of(7):
        table = irrep_table(7, lam)
        for i in rows:
            assert np.allclose(table[i], irrep_matrix(lam, group[i]), atol=1e-12), (lam, i)


def test_irrep_matrix_identity_and_transposition():
    assert np.allclose(irrep_matrix((2, 1), Permutation({})), np.eye(2))
    m = irrep_matrix((2, 1), transposition(1, 2))
    assert np.allclose(m, np.array([[1.0, 0.0], [0.0, -1.0]]))
