"""Extreme character parameters: values, positivity, type rule, recovery."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablerep.fourier import StateFunction, is_positive_definite
from stablerep.permutations import symmetric_group
from stablerep.thoma import (
    FactorType,
    RecoveryResult,
    ThomaParams,
    power_sum,
    recover_params,
    thoma_character,
    type_classify,
)

F = Fraction


def test_params_sorted_and_validated():
    p = ThomaParams(alpha=(F(1, 4), F(1, 2)), beta=(F(1, 8),))
    assert p.alpha == (F(1, 2), F(1, 4))
    assert p.total == F(7, 8)
    assert p.gamma == F(1, 8)
    with pytest.raises(ValueError):
        ThomaParams(alpha=(0,))
    with pytest.raises(ValueError):
        ThomaParams(alpha=(F(3, 2),))
    with pytest.raises(ValueError):
        ThomaParams(alpha=(F(2, 3),), beta=(F(2, 3),))
    with pytest.raises(ValueError):
        ThomaParams(alpha=(0.5 + 0.1j,))


def test_json_round_trip_keeps_rationals():
    p = ThomaParams(alpha=(F(1, 3),), beta=(F(1, 6), F(1, 7)))
    q = ThomaParams.from_json({"alpha": ["1/3"], "beta": ["1/6", "1/7"]})
    assert q == p
    assert q.total == F(1, 3) + F(1, 6) + F(1, 7)


def test_power_sum_values():
    p = ThomaParams(alpha=(F(1, 2), F(1, 4)), beta=(F(1, 8),))
    assert power_sum(p, 2) == F(1, 4) + F(1, 16) - F(1, 64)
    assert power_sum(p, 3) == F(1, 8) + F(1, 64) + F(1, 512)


def test_character_on_cycles():
    # alpha = (1/2, 1/2) gives 2^(1-k) on a k-cycle
    p = ThomaParams(alpha=(F(1, 2), F(1, 2)))
    for k in range(2, 9):
        assert thoma_character(p, (k,)) == F(1, 2 ** (k - 1))
    # the identity and fixed points contribute factor 1
    assert thoma_character(p, ()) == 1
    assert thoma_character(p, (2, 1, 1)) == F(1, 2)


def test_character_alpha_beta_flip():
    # Swapping alpha and beta multiplies the k-cycle value by (-1)^(k+1).
    a = ThomaParams(alpha=(F(1, 3), F(1, 5)))
    b = ThomaParams(beta=(F(1, 3), F(1, 5)))
    for k in range(2, 8):
        assert thoma_character(b, (k,)) == (-1) ** (k + 1) * thoma_character(a, (k,))


def test_character_is_multiplicative_over_cycles():
    p = ThomaParams(alpha=(F(2, 5),), beta=(F(1, 5), F(1, 10)))
    v23 = thoma_character(p, (3, 2))
    assert v23 == thoma_character(p, (3,)) * thoma_character(p, (2,))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_multiplicativity_random_params(j, k):
    p = ThomaParams(alpha=(F(1, 3), F(1, 7)), beta=(F(1, 9),))
    assert thoma_character(p, tuple(sorted((j, k), reverse=True))) == thoma_character(
        p, (j,)
    ) * thoma_character(p, (k,))


def test_character_tables_are_positive_definite():
    cases = [
        ThomaParams(alpha=(F(1, 2), F(1, 2))),
        ThomaParams(alpha=(F(1, 2), F(1, 4))),
        ThomaParams(beta=(F(1, 2), F(1, 3))),
        ThomaParams(alpha=(F(1, 3),), beta=(F(1, 3), F(1, 6))),
        ThomaParams(),  # regular character: delta at the identity
    ]
    for p in cases:
        f = StateFunction.from_class_function(
            5, lambda ct, p=p: float(thoma_character(p, ct))
        )
        cert = is_positive_definite(f)
        assert cert.positive, p


def test_type_rule():
    assert type_classify(ThomaParams(alpha=(F(1, 2), F(1, 2)))) is FactorType.II_INFINITY
    assert type_classify(ThomaParams(alpha=(F(1, 2), F(1, 4)))) is FactorType.II1
    assert type_classify(ThomaParams(alpha=(0.5,), beta=(0.5 - 1e-12,))) is FactorType.II_INFINITY
    assert type_classify(ThomaParams(alpha=(0.5,), beta=(0.5 - 1e-6,))) is FactorType.II1


def plant(alpha, beta, kmax=8):
    p = ThomaParams(alpha=alpha, beta=beta)
    return p, {k: float(thoma_character(p, (k,))) for k in range(2, kmax + 1)}


def param_error(got, want):
    width = max(len(got), len(want))
    ga = list(got) + [0.0] * (width - len(got))
    wa = list(want) + [0.0] * (width - len(want))
    return max((abs(float(a) - float(b)) for a, b in zip(ga, wa)), default=0.0)


PLANTED = [
    ((F(1, 2), F(1, 4)), ()),
    ((F(1, 2), F(1, 2)), ()),
    ((), (F(1, 3), F(1, 5))),
    ((F(2, 5),), (F(1, 5),)),
    ((), ()),
    ((F(9, 10),), ()),
]


@pytest.mark.parametrize("alpha,beta", PLANTED)
def test_plant_and_recover_supports_two(alpha, beta):
    p, values = plant(alpha, beta)
    result = recover_params(values, (2, 2))
    assert result.residual < 1e-10
    assert param_error(result.params.alpha, p.alpha) < 1e-6
    assert param_error(result.params.beta, p.beta) < 1e-6
    assert result.ok()


def grid_residual_minimum(values, r, s, step=0.05):
    """Brute minimum of the fit residual over a coarse parameter grid."""
    ks = sorted(values)
    target = np.array([values[k] for k in ks], dtype=float)
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    best = math.inf
    for alpha in itertools.combinations_with_replacement(ticks[::-1], r):
        asum = sum(alpha)
        if asum > 1 + 1e-12:
            continue
        for beta in itertools.combinations_with_replacement(ticks[::-1], s):
            if asum + sum(beta) > 1 + 1e-12:
                continue
            resid = 0.0
            for i, k in enumerate(ks):
                model = sum(a**k for a in alpha) + (-1) ** (k + 1) * sum(
                    b**k for b in beta
                )
                resid += (model - target[i]) ** 2
            best = min(best, resid)
    return best


def test_recovery_beats_grid_oracle():
    for alpha, beta in [((F(1, 2), F(1, 4)), ()), ((F(2, 5),), (F(1, 5),))]:
        p, values = plant(alpha, beta)
        result = recover_params(values, (2, 1))
        oracle = grid_residual_minimum(values, 2, 1)
        assert result.residual <= oracle + 1e-15


def test_recover_rejects_bad_input():
    with pytest.raises(ValueError):
        recover_params({2: 0.5}, (2, 2))  # not enough values for the support
    with pytest.raises(ValueError):
        recover_params({1: 1.0, 2: 0.5}, (1, 0))  # keys must be >= 2
    with pytest.raises(ValueError):
        recover_params({2: 0.5, 3: 0.25}, (-1, 0))


def test_recovery_result_threshold():
    p = ThomaParams(alpha=(F(1, 2),))
    good = RecoveryResult(p, 1e-12)
    bad = RecoveryResult(p, 1e-3)
    assert good.ok()
    assert not bad.ok()
    assert bad.ok(threshold=1.0)


def test_recovery_drops_junk_support():
    # Bounds wider than the true support must not leave junk entries.
    p, values = plant((F(1, 2), F(1, 4)), ())
    result = recover_params(values, (3, 3))
    assert len(result.params.alpha) == 2
    assert len(result.params.beta) == 0
    assert param_error(result.params.alpha, p.alpha) < 1e-6


def test_recover_refuses_gaps_and_values_no_character_has():
    with pytest.raises(ValueError, match=r"missing \[3\]"):
        recover_params({2: 0.25, 4: 0.0625, 5: 0.03125}, (1, 1))
    with pytest.raises(ValueError, match=r"2\*\*63"):
        recover_params({2: 0.25, 3: 0.125, 10**20: 0.0}, (1, 0))
    for bad in (math.nan, math.inf, -math.inf, 1.5):
        with pytest.raises(ValueError, match="finite"):
            recover_params({2: 0.25, 3: bad, 4: 0.0625}, (1, 0))


def test_values_past_a_gap_still_count():
    p, values = plant((F(1, 2),), (F(1, 4),))
    del values[6]
    result = recover_params(values, (1, 1))
    assert result.ok() and param_error(result.params.beta, p.beta) < 1e-6
    values[8] += 1e-3
    assert not recover_params(values, (1, 1)).ok()


def test_recovery_leaves_no_junk_third_beta():
    # With values only up to p_8, a multi-start fit once returned a third
    # beta entry of 0.0096 at residual 1.2e-15.
    p, values = plant((F(9, 40), F(7, 40), F(1, 8)), (F(3, 10), F(3, 40)))
    result = recover_params(values, (3, 3))
    assert result.residual < 1e-10
    assert param_error(result.params.alpha, p.alpha) < 1e-6
    assert param_error(result.params.beta, p.beta) < 1e-6


def full_support_draw(seed):
    """Three alpha and three beta entries k/80, in random order.

    The k are at least 2 and at least 2 apart, so entries are spaced
    1/40 from each other and from 0, and sum to at most 72 (mass <= 0.9).
    """
    rng = np.random.default_rng(seed)
    while True:
        ks = np.cumsum(rng.integers(0, 8, 6)) + 2 * np.arange(1, 7)
        if ks.sum() <= 72:
            ks = [int(k) for k in rng.permutation(ks)]
            return tuple(F(k, 80) for k in ks[:3]), tuple(F(k, 80) for k in ks[3:])


@pytest.mark.parametrize("seed", range(8))
def test_recovers_full_three_three_supports(seed):
    p, values = plant(*full_support_draw(seed), kmax=10)
    result = recover_params(values, (3, 3))
    assert result.residual < 1e-10
    assert param_error(result.params.alpha, p.alpha) < 1e-6
    assert param_error(result.params.beta, p.beta) < 1e-6


# Draws on the k/80 grid with an entry of 1/80, whose values carry that entry
# at 80^-k.  With an absolute selection slack of 1e-16 a support one entry
# short won at residual ~5e-17 against the exact fit at ~1e-30.  The last two
# are full_support_draw with k >= 1 allowed, seeds 9 and 34 of 0..39.
SMALL_ENTRY_DRAWS = [
    ((F(13, 80), F(3, 80), F(1, 80)), (F(11, 40), F(9, 80), F(1, 16))),
    ((F(1, 10), F(3, 40), F(3, 80)), (F(17, 80), F(7, 40), F(1, 80))),
    ((F(9, 40), F(3, 16), F(13, 80)), (F(1, 16), F(3, 80), F(1, 80))),
]


@pytest.mark.parametrize("alpha,beta", SMALL_ENTRY_DRAWS)
def test_recovery_keeps_an_entry_of_one_eightieth(alpha, beta):
    p, values = plant(alpha, beta, kmax=10)
    result = recover_params(values, (3, 3))
    assert result.residual < 1e-10
    assert param_error(result.params.alpha, p.alpha) < 1e-6
    assert param_error(result.params.beta, p.beta) < 1e-6
