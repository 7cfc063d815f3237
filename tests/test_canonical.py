"""Canonical product states: evaluation, shifts, classification."""

import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from stablerep import cli
from stablerep.canonical import (
    CanonicalState,
    ClassificationError,
    _schur_values,
    asymptotic_character,
    block_spectra,
    central_depth,
    classify,
    quasi_equivalent,
    recover_lambda,
    shift_sequence,
)
from stablerep.characters import centralizer_order, mn_character, normalized_character
from stablerep.fourier import (as_table, dual_norm, fourier, hermitian_part, is_positive_definite,
                               psd_certificate, spectral_norm)
from stablerep.permutations import (
    IDENTITY,
    Permutation,
    cycle,
    group_words,
    split_product,
    symmetric_group,
    transposition,
)
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.thoma import FactorType, ThomaParams, thoma_character
from test_acceptance import BATTERY
from test_induction import lr_coefficient

F = Fraction

HALF_HALF = ThomaParams(alpha=(F(1, 2), F(1, 2)))
MIXED = ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),))


def test_evaluation_factors_exactly():
    state = CanonicalState(2, (1, 1), MIXED)
    # s = (1 2)(3 4 5): s1 = (1 2) in S_2, s2 = (3 4 5) in the tail
    s = Permutation.from_cycles([[1, 2], [3, 4, 5]])
    expected = normalized_character((1, 1), (2,)) * thoma_character(MIXED, (3,))
    assert state(s) == expected
    assert isinstance(state(s), Fraction)
    # identity gives 1: states are normalized
    assert state(IDENTITY) == 1


def test_vanishing_off_product_set():
    state = CanonicalState(2, (2,), HALF_HALF)
    for s in symmetric_group(5):
        if split_product(s, 2) is None:
            assert state(s) == 0
        else:
            s1, s2 = split_product(s, 2)
            want = normalized_character((2,), s1.cycle_partition(2)) * thoma_character(
                HALF_HALF, s2.cycle_type()
            )
            assert state(s) == want


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_spec(name):
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    params = ThomaParams(tuple(map(F, data["alpha"])), tuple(map(F, data["beta"])))
    return CanonicalState(data["n"], tuple(data["lambda"]), params)


def oracle_value(state, s):
    """The state's value at s, from the split and the two character formulas."""
    parts = split_product(s, state.n)
    if parts is None:
        return 0
    low, high = (part.cycle_type() for part in parts)
    finite = F(mn_character(state.partition, low), hook_dimension(state.partition))
    return finite * thoma_character(state.params, high)


MEMO_STATES = BATTERY + [golden_spec("spec_cut2.json"), golden_spec("spec_cut3.json")]


@pytest.mark.parametrize("calls_first", [True, False], ids=["calls-first", "words-first"])
def test_memoized_values_equal_the_oracle_in_any_order(calls_first):
    rng = random.Random(30)
    group = list(symmetric_group(6))
    for spec in MEMO_STATES:
        state = CanonicalState(spec.n, spec.partition, spec.params)  # an empty memo
        want = {s: oracle_value(state, s) for s in group}

        def by_calls():
            for s in rng.sample(group, len(group)):
                got = state(s)
                assert got == want[s] and type(got) is type(want[s]), (state, s)

        def by_words():
            for level in rng.sample(range(4, 7), 3):
                rows = rng.sample(range(len(group_words(level))), len(group_words(level)))
                words = group_words(level)[rows]
                got = state.evaluate_words(words)
                expected = [complex(want[Permutation.from_one_line(w)]) for w in words.tolist()]
                assert got.tolist() == expected, (state, level)

        for run in ((by_calls, by_words) if calls_first else (by_words, by_calls)):
            run()
        by_calls()


def test_memo_is_invisible_to_eq_hash_and_repr():
    for spec in MEMO_STATES:
        state = CanonicalState(spec.n, spec.partition, spec.params)
        twin = CanonicalState(spec.n, spec.partition, spec.params)
        before = (hash(state), repr(state))
        state.evaluate_words(group_words(5))
        state(cycle(1, 2, 3))
        assert (hash(state), repr(state)) == before
        assert state == twin and hash(state) == hash(twin) and repr(state) == repr(twin)


def test_spec_validation():
    with pytest.raises(ValueError):
        CanonicalState(2, (3,), HALF_HALF)  # partition weight must equal n
    with pytest.raises(ValueError):
        CanonicalState(-1, (), HALF_HALF)


def test_json_round_trip():
    # Specs are read by the CLI's validating reader, reports' specs included.
    state = CanonicalState(3, (2, 1), MIXED)
    again = cli._spec_from(state.to_json(), "spec")
    assert again.n == state.n and again.partition == state.partition
    exact = cli._spec_from({"n": 3, "lambda": [2, 1], "alpha": ["1/2"], "beta": ["1/4"]}, "spec")
    assert exact.params == MIXED


def test_shift_sequence_memberships():
    # sigma_m g sigma_m^-1 lands above the cut; consecutive sigmas differ
    # inside the product group. Checked independently of verify().
    for g in symmetric_group(4):
        seq = shift_sequence(g, 8)
        assert seq.verify()
        for m in range(seq.m0, 9):
            moved = g.conjugate_by(seq.sigma(m))
            assert all(p > m for p in moved.support)
        for m in range(seq.m0, 8):
            step = seq.sigma(m + 1) * seq.sigma(m).inverse()
            assert split_product(step, m) is not None


def test_asymptotic_character_matches_parameters():
    state = CanonicalState(2, (1, 1), MIXED)
    for k in (2, 3, 4):
        g = cycle(*range(1, k + 1))
        res = asymptotic_character(state, g, M=max(k, 2) + 3)
        assert res.stabilized_at == max(k, 2)
        assert res.value == thoma_character(MIXED, (k,))
    g = transposition(1, 2)
    res = asymptotic_character(state, g, M=6)
    assert res.stabilized_at == 2
    assert res.value == F(1, 4) - F(1, 16)  # p_2 of (1/2 | 1/4)


def test_asymptotic_character_needs_room():
    state = CanonicalState(2, (1, 1), MIXED)
    with pytest.raises(ValueError):
        asymptotic_character(state, transposition(1, 2), M=2)


def test_central_depth_finds_cut():
    assert central_depth(CanonicalState(2, (1, 1), MIXED), 5) == 2
    assert central_depth(CanonicalState(3, (2, 1), HALF_HALF), 6) == 3
    # a pure parameter state is central from the start
    assert central_depth(CanonicalState(0, (), MIXED), 5) == 0
    # the trivial one-box extension is already the parameter state
    assert central_depth(CanonicalState(1, (1,), MIXED), 5) in (0, 1)


def test_recover_lambda_exact():
    for lam in [(2,), (1, 1)]:
        state = CanonicalState(2, lam, MIXED)
        assert recover_lambda(state, 2) == lam
    state = CanonicalState(3, (2, 1), HALF_HALF)
    assert recover_lambda(state, 3) == (2, 1)
    with pytest.raises(ClassificationError):
        recover_lambda(CanonicalState(2, (2,), MIXED), 3)


def test_character_projections_are_block_traces():
    # recover_lambda reads sum_g state(g) chi_mu(g) as the trace of the
    # Fourier block of shape mu; the per-element sum is the oracle.
    from stablerep.characters import character_value
    from stablerep.fourier import as_table, fourier
    from stablerep.partitions import partitions_of

    from test_acceptance import BATTERY

    for state in BATTERY:
        for n in range(6):
            blocks = fourier(as_table(state, n))
            scale = max(1.0, sum(abs(complex(state(g))) for g in symmetric_group(n)))
            for mu in partitions_of(n):
                want = sum(complex(state(g)) * character_value(mu, g) for g in symmetric_group(n))
                assert abs(np.trace(blocks[mu]) - want) <= 1e-12 * scale, (state, n, mu)
        if state.n:
            assert recover_lambda(state, state.n) == state.partition


def test_classify_round_trip():
    state = CanonicalState(2, (1, 1), HALF_HALF)
    result = classify(state, 5, (2, 0))
    assert result.invariant.n == 2
    assert result.invariant.partition == (1, 1)
    assert max(abs(a - 0.5) for a in result.invariant.alpha) < 1e-6
    assert result.invariant.beta == ()
    assert result.factor_type is FactorType.II_INFINITY
    assert result.residual < 1e-10
    out = result.to_json()
    assert out["n"] == 2 and out["lambda"] == [1, 1]


def test_classify_needs_room_on_bounded_tables():
    # A state table cut off too early cannot witness the asymptotics.
    from stablerep.stability import as_table

    table = as_table(CanonicalState(2, (1, 1), MIXED), 4)
    with pytest.raises((ClassificationError, ValueError)):
        classify(table, 4, (2, 2))


def test_classify_refuses_an_invariant_that_misses_the_state():
    # On S_K with K <= n the state is a class function, so the depth reads 0
    # there; the fit is exact, but the depth-0 invariant misses the state.
    state = CanonicalState(2, (1, 1), MIXED)
    with pytest.raises(ClassificationError, match="misses the state on S_2"):
        classify(state, 2, (1, 1))
    assert quasi_equivalent(classify(state, 4, (1, 1)).invariant, state)


def test_quasi_equivalence_partitions_battery():
    states = [
        CanonicalState(2, (1, 1), HALF_HALF),
        CanonicalState(2, (2,), HALF_HALF),
        CanonicalState(2, (1, 1), MIXED),
        CanonicalState(3, (2, 1), HALF_HALF),
    ]
    for a in states:
        assert quasi_equivalent(a, a)
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert not quasi_equivalent(a, b)


def test_quasi_equivalence_ignores_trailing_zeros():
    # ThomaParams takes no zero entries, so the longer lists end in entries
    # below the tolerance.
    a = CanonicalState(2, (1, 1), ThomaParams((0.5, 0.25), ()))
    b = CanonicalState(2, (1, 1), ThomaParams((0.5, 0.25, 1e-12), (1e-12,)))
    assert quasi_equivalent(a, b)


def test_classified_invariant_round_trips_through_json():
    inv = classify(CanonicalState(2, (1, 1), MIXED), 5, (2, 1)).invariant
    assert isinstance(inv, CanonicalState)
    data = inv.to_json()
    assert data["n"] == 2 and data["lambda"] == [1, 1]
    back = cli._spec_from(data, "report")
    assert back == inv
    assert quasi_equivalent(back, CanonicalState(2, (1, 1), MIXED))


@pytest.mark.parametrize("state", MEMO_STATES, ids=range(len(MEMO_STATES)))
def test_block_spectra_equal_the_matrix_path(state):
    # Levels 0-7 take in every m < n of the battery and the goldens.
    for m in range(8):
        table = as_table(state, m)
        bound = 1e-12 * max(1.0, float(np.abs(table.vector).sum()))
        spectra = block_spectra(state, m)
        blocks = fourier(table)
        assert list(spectra) == list(blocks.blocks)
        for lam, spectrum in spectra.items():
            assert all(type(x) is Fraction and count > 0 for x, count in spectrum.items())
            exact = [float(x) for x, count in spectrum.items() for _ in range(count)]
            assert exact == sorted(exact)
            eig = np.linalg.eigvalsh(hermitian_part(blocks[lam]))
            assert len(exact) == len(eig) == hook_dimension(lam)
            assert np.max(np.abs(eig - exact)) <= bound, (state, m, lam)
        assert abs(spectral_norm(m, spectra) - dual_norm(table)) <= bound
        # Exact spectra tie only when equal: mass 0 names the table's witness.
        assert (psd_certificate(spectra, 0).witness
                == is_positive_definite(table).witness), (state, m)


def character_sum_schur(params, b):
    """s_b(theta) = sum_rho theta(rho) chi_b(rho) / z_rho, the Murnaghan-Nakayama sum,
    with the parameters read as exact rationals."""
    exact = ThomaParams(tuple(map(F, params.alpha)), tuple(map(F, params.beta)))
    return sum(F(thoma_character(exact, rho)) * mn_character(b, rho) / centralizer_order(rho)
               for rho in partitions_of(sum(b)))


# gamma > 0, gamma = 0, alpha or beta alone: h or e is then a polynomial,
# so whole rows and pivots of a Jacobi-Trudi matrix vanish.
SCHUR_PARAMS = [ThomaParams(), ThomaParams((F(1, 2), F(1, 5)), (F(1, 4),)), HALF_HALF,
                ThomaParams(beta=(F(1, 2), F(1, 3))), ThomaParams(beta=(F(1, 2), F(1, 2))),
                ThomaParams((F(2, 3),), (F(1, 3),)), ThomaParams((F(3, 7), F(1, 7)), (F(2, 7),)),
                ThomaParams((0.3, 0.1), (0.45,)), ThomaParams((0.5, 0.25), (0.125,)),
                ThomaParams(beta=(0.7,))]


@pytest.mark.parametrize("params", SCHUR_PARAMS, ids=range(len(SCHUR_PARAMS)))
def test_jacobi_trudi_equals_the_character_sum(params):
    for N in range(11):
        values = _schur_values(params, N)
        assert list(values) == list(partitions_of(N))
        for b, s_b in values.items():
            assert type(s_b) is Fraction and s_b == character_sum_schur(params, b), (N, b)


def character_formula_spectra(state, m):
    """Block spectra from s_b as character_sum_schur and c^lam_{b mu} by enumerating LR
    tableaux of shape lam/b; below the depth, from the character sum <chi_mu, chi_a> on S_m."""
    n, mu, d_mu = state.n, state.partition, hook_dimension(state.partition)
    spectra = {lam: {} for lam in partitions_of(m)}

    def add(lam, x, count):
        spectra[lam][x] = spectra[lam].get(x, 0) + count

    if m < n:
        for a in partitions_of(m):
            inner = sum(F(mn_character(mu, rho) * mn_character(a, rho), centralizer_order(rho))
                        for rho in partitions_of(m))
            add(a, F(math.factorial(m), d_mu * hook_dimension(a)) * inner, hook_dimension(a))
    else:
        for b in partitions_of(m - n):
            d_b = hook_dimension(b)
            x = (F(math.factorial(n) * math.factorial(m - n), d_mu ** 2 * d_b)
                 * character_sum_schur(state.params, b))
            for lam in partitions_of(m):
                c = lr_coefficient(lam, b, mu)
                if c:
                    add(lam, x, c * d_mu * d_b)
    for lam in spectra:
        zero = hook_dimension(lam) - sum(spectra[lam].values())
        if zero:
            add(lam, F(0), zero)
    return {lam: dict(sorted(s.items())) for lam, s in spectra.items()}


@pytest.mark.parametrize("state", [
    golden_spec("spec_cut2.json"), golden_spec("spec_cut3.json"), BATTERY[1], BATTERY[8],
    CanonicalState(9, (4, 3, 2), MIXED),
], ids=["spec_cut2", "spec_cut3", "cut0", "beta-only", "depth9"])
def test_block_spectra_at_levels_eight_to_ten_equal_the_character_formula(state):
    for m in (8, 9, 10):
        assert block_spectra(state, m) == character_formula_spectra(state, m), m


def test_the_spectral_path_takes_no_character_value(monkeypatch):
    from stablerep import characters

    cases = [(state, m) for state in (golden_spec("spec_cut2.json"), BATTERY[1],
                                      CanonicalState(5, (3, 2), MIXED)) for m in (3, 7, 12)]
    want = [block_spectra(state, m) for state, m in cases]

    def no_mn(*args):
        raise AssertionError("a Murnaghan-Nakayama value was taken")

    monkeypatch.setattr(characters, "_mn", no_mn)
    assert [block_spectra(state, m) for state, m in cases] == want
    with pytest.raises(AssertionError):
        mn_character((2, 1), (3,))


def test_float_parameters_are_read_as_the_rationals_they_are():
    exact = golden_spec("spec_cut3.json")  # alpha (1/2, 1/5): 0.2 is not 1/5
    rounded = CanonicalState(exact.n, exact.partition,
                             ThomaParams(tuple(map(float, exact.alpha)),
                                         tuple(map(float, exact.beta))))
    binary = CanonicalState(exact.n, exact.partition,
                            ThomaParams(tuple(map(Fraction, rounded.alpha)),
                                        tuple(map(Fraction, rounded.beta))))
    for m in (2, 5, 7):
        spectra = block_spectra(rounded, m)
        assert spectra == block_spectra(binary, m)
        for lam, spectrum in block_spectra(exact, m).items():
            assert list(spectra[lam].values()) == list(spectrum.values())
            assert all(type(x) is Fraction and abs(x - y) <= 1e-12 * math.factorial(m)
                       for x, y in zip(spectra[lam], spectrum))
