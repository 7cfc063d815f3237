"""Block transform, dual norm, and the two positivity tests."""

import importlib
import math
import pathlib
import random

import numpy as np
import pytest

from stablerep import cli
from stablerep.characters import mn_character
from stablerep.fourier import (
    FourierBlocks,
    StateFunction,
    as_table,
    dual_norm,
    fourier,
    gram_matrix,
    inverse_fourier,
    is_positive_definite,
)
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import (
    IDENTITY,
    Permutation,
    symmetric_group,
    transposition,
)
from stablerep.yor import irrep_matrix

GOLDEN = pathlib.Path(__file__).parent / "golden"
# The package rebinds the name `fourier` to the function.
fourier_module = importlib.import_module("stablerep.fourier")


def random_function(rng, n):
    return StateFunction(
        n, {g: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for g in symmetric_group(n)}
    )


def random_hermitian_function(rng, n):
    f = random_function(rng, n)
    return StateFunction(
        n, {g: (f(g) + np.conj(f(g.inverse()))) / 2 for g in symmetric_group(n)}
    )


def convolution_square(rng, n):
    """f = c* ⋆ c is positive definite by construction."""
    c = {g: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for g in symmetric_group(n)}
    vals = {}
    for g in symmetric_group(n):
        vals[g] = sum(np.conj(c[h]) * c[h * g] for h in symmetric_group(n))
    return StateFunction(n, vals)


def test_state_function_basics():
    f = StateFunction.delta(3)
    assert f(IDENTITY) == 1
    assert f(transposition(1, 2)) == 0
    with pytest.raises(ValueError):
        f(transposition(1, 4))
    with pytest.raises(ValueError):
        StateFunction(2, {transposition(1, 3): 1.0})


def test_restrict_and_subtract():
    f = StateFunction.from_callable(3, lambda g: g.sign)
    r = f.restrict(2)
    assert r.level == 2
    assert r(transposition(1, 2)) == -1
    z = f - f
    assert np.all(z.vector == 0)
    with pytest.raises(ValueError):
        f - r


def test_restriction_past_either_end_is_refused_naming_the_level():
    # Refused before any n! is taken, so the error is not math.factorial's.
    f = StateFunction.from_callable(4, lambda g: g.sign)
    for cut in (lambda: f.restrict(-1), lambda: f.restrict(5), lambda: as_table(f, -1)):
        with pytest.raises(ValueError, match="level 4") as info:
            cut()
        assert "factorial" not in str(info.value)


def test_hermitian_defect():
    f = StateFunction(3, {Permutation.from_cycles([[1, 2, 3]]): 1j})
    assert f.hermitian_defect() == pytest.approx(np.abs(0 - (-1j)))
    g = StateFunction.from_class_function(3, lambda ct: float(len(ct)))
    assert g.hermitian_defect() == 0


def test_fourier_of_delta_e_is_identity():
    blocks = fourier(StateFunction.delta(4))
    for lam, b in blocks.blocks.items():
        assert np.allclose(b, np.eye(hook_dimension(lam)), atol=1e-12)


def test_fourier_of_point_mass_is_matrix():
    g = Permutation.from_cycles([[1, 3, 2], [4, 5]])
    blocks = fourier(StateFunction.delta(5, g))
    for lam, b in blocks.blocks.items():
        assert np.allclose(b, irrep_matrix(lam, g), atol=1e-12)


def test_fourier_is_linear():
    rng = random.Random(0)
    f, h = random_function(rng, 4), random_function(rng, 4)
    combo = StateFunction(
        4, {g: 2 * f(g) - 3j * h(g) for g in symmetric_group(4)}
    )
    fb, hb, cb = fourier(f), fourier(h), fourier(combo)
    for lam in cb.blocks:
        assert np.allclose(cb.blocks[lam], 2 * fb.blocks[lam] - 3j * hb.blocks[lam])


def test_inverse_fourier_round_trip():
    rng = random.Random(1)
    for n in range(8):
        f = StateFunction.from_vector(
            n, [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(math.factorial(n))]
        )
        back = inverse_fourier(fourier(f))
        assert np.max(np.abs(back.vector - f.vector)) < 1e-12, n
    # The Permutation-level reading of the same round trip.
    f = random_function(rng, 4)
    back = inverse_fourier(fourier(f))
    for g in symmetric_group(4):
        assert abs(back(g) - f(g)) < 1e-12


def test_dual_norm_of_delta_is_one():
    for n in range(1, 6):
        assert dual_norm(StateFunction.delta(n)) == pytest.approx(1.0, abs=1e-9)


def test_dual_norm_of_normalized_characters():
    for n in range(1, 6):
        for lam in partitions_of(n):
            d = hook_dimension(lam)
            f = StateFunction.from_class_function(
                n, lambda ct, lam=lam, d=d: mn_character(lam, ct) / d
            )
            assert dual_norm(f) == pytest.approx(1.0, abs=1e-9)


def test_dual_norm_axioms():
    rng = random.Random(2)
    f, h = random_function(rng, 3), random_function(rng, 3)
    fh = StateFunction(3, {g: f(g) + h(g) for g in symmetric_group(3)})
    assert dual_norm(fh) <= dual_norm(f) + dual_norm(h) + 1e-12
    assert dual_norm(2.5 * f) == pytest.approx(2.5 * dual_norm(f))
    assert dual_norm(f - f) == 0


def test_dual_norm_duality_certificate():
    # The dual norm dominates |sum_g f(g) a(g)| over all a with regular
    # operator norm <= 1, and the polar choice of a attains it.
    rng = random.Random(5)
    n = 4
    group = symmetric_group(n)
    f = random_hermitian_function(rng, n)
    blocks = fourier(f)
    polar = {}
    for lam, b in blocks.blocks.items():
        u, _, vh = np.linalg.svd(b)
        polar[lam] = u @ vh
    # a(g) = (1/n!) sum_lam d_lam tr(polar_lam rho(g)^T) has block norm 1
    a = inverse_fourier(
        type(blocks)(n, {lam: polar[lam] for lam in blocks.blocks})
    )
    pairing = sum(f(g) * np.conj(a(g)) for g in group).real
    assert pairing == pytest.approx(dual_norm(f), abs=1e-9)
    for _ in range(20):
        contraction = {}
        for lam, b in blocks.blocks.items():
            d = b.shape[0]
            x = np.array(
                [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
            )
            contraction[lam] = x / max(np.linalg.svd(x, compute_uv=False)[0], 1e-12)
        a = inverse_fourier(type(blocks)(n, contraction))
        val = abs(sum(f(g) * np.conj(a(g)) for g in group))
        assert val <= dual_norm(f) + 1e-9


def test_positivity_tests_agree_on_random_functions():
    rng = random.Random(6)
    n = 4
    for _ in range(40):
        f = random_hermitian_function(rng, n)
        by_blocks = is_positive_definite(f)
        gram = gram_matrix(f)
        gram_min = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0])
        assert bool(by_blocks) == (gram_min >= -1e-9)


def test_convolution_squares_are_positive():
    rng = random.Random(7)
    for _ in range(10):
        f = convolution_square(rng, 3)
        cert = is_positive_definite(f)
        assert cert.positive
        gram = gram_matrix(f)
        assert float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]) >= -1e-9


def test_positivity_rejects_non_hermitian():
    f = StateFunction(3, {Permutation.from_cycles([[1, 2, 3]]): 1.0})
    with pytest.raises(ValueError):
        is_positive_definite(f)


def test_psd_certificate_reports_witness():
    # sign character is positive definite; its negation is not
    f = StateFunction.from_callable(3, lambda g: g.sign)
    assert is_positive_definite(f).positive
    neg = StateFunction.from_callable(3, lambda g: -g.sign)
    cert = is_positive_definite(neg)
    assert not cert.positive
    assert cert.witness is not None
    assert cert.min_eigenvalue < 0


def test_trivial_block_of_a_sign_twisted_state_is_exactly_zero():
    # The golden cut-2 spec has lambda = (1, 1): f(t_1 g) = -f(g) exactly, so
    # its S_2 sums for the trivial shape cancel exactly and every trivial
    # block above them is exactly 0.
    state = cli._load_state(str(GOLDEN / "spec_cut2.json"))
    block = fourier(as_table(state, 6))[(6,)]
    assert np.array_equal(block, np.zeros((1, 1)))


def test_psd_witness_ignores_float_noise(monkeypatch):
    # Exact ties: the golden table ties [1^6] and [2,1^4] at 0.26478, and the
    # golden spec's trivial block is exactly 0 while others reach 0 to float
    # noise.  Shifting the blocks by +-1e-15 must not move the witness.
    clean = fourier_module.fourier
    shapes = len(partitions_of(6))
    for name in ("table_cut1_l6", "spec_cut2"):
        f = as_table(cli._load_state(str(GOLDEN / (name + ".json"))), 6)
        witness = is_positive_definite(f).witness
        for sign in (1, -1):
            for noise in ([sign * (-1) ** i * 1e-15 for i in range(shapes)],
                          [sign * (i % 3 - 1) * 1e-15 for i in range(shapes)]):
                def noisy(g, noise=noise):
                    blocks = clean(g)
                    return FourierBlocks(blocks.level, {
                        lam: b + eps * np.eye(len(b))
                        for (lam, b), eps in zip(blocks.items(), noise)})

                monkeypatch.setattr(fourier_module, "fourier", noisy)
                assert is_positive_definite(f).witness == witness, (name, noise)


def test_gram_matrix_shape_and_hermiticity():
    rng = random.Random(8)
    f = random_hermitian_function(rng, 3)
    gram = gram_matrix(f)
    assert gram.shape == (6, 6)
    assert np.allclose(gram, gram.conj().T, atol=1e-12)


def restricted_distance(f, h, n):
    return dual_norm(f.restrict(n) - h.restrict(n))


def test_restricted_distance_pinned_example():
    f = StateFunction.delta(4)
    h = StateFunction.from_callable(4, lambda g: g.sign)
    assert restricted_distance(f, h, 2) == pytest.approx(1.0, abs=1e-12)


def random_vector(gen, size):
    return gen.normal(size=size) + 1j * gen.normal(size=size)


def test_restricted_distance_is_monotone_in_level():
    # C*(S_n) sits isometrically inside C*(S_{n+1}), so restriction never
    # raises the dual norm.  A difference supported on S_m is the equality
    # case: every level from m up reads the same norm.
    rng = random.Random(9)
    f, h = random_function(rng, 4), random_function(rng, 4)
    dists = [restricted_distance(f, h, n) for n in range(1, 5)]
    assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))
    for seed in range(4):
        gen = np.random.default_rng(seed)
        for level in range(1, 7):
            f = StateFunction.from_vector(level, random_vector(gen, math.factorial(level)))
            h = StateFunction.from_vector(level, random_vector(gen, math.factorial(level)))
            m = int(gen.integers(0, level + 1))
            diff = np.zeros(math.factorial(level), dtype=complex)
            diff[: math.factorial(m)] = random_vector(gen, math.factorial(m))
            on_subgroup = f - StateFunction.from_vector(level, diff)
            for g, equal_from in ((h, level), (on_subgroup, m)):
                dists = [restricted_distance(f, g, n) for n in range(level + 1)]
                assert all(a <= b * (1 + 1e-12) for a, b in zip(dists, dists[1:]))
                assert dists[equal_from] == pytest.approx(dists[level], rel=1e-12)
