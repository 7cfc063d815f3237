"""Extreme character parameters: values, positivity, type rule, recovery."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablerep import cli, thoma
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
    q = cli._params_from({"alpha": ["1/3"], "beta": ["1/6", "1/7"]}, "params")
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
    # The default is the one fit threshold that recover-params and classify use.
    assert not RecoveryResult(p, 5e-10).ok()
    assert RecoveryResult(p, thoma.RESIDUAL_TOL).ok()


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


# With values only up to p_3 the Padé consistency determinant at support
# (1, 1) vanishes at two c: the true one, and one whose beta root comes out
# negative and is clipped to 0.  Each root in c must seed its own start; the
# better fit of the two wins, not the more exact zero.
@pytest.mark.parametrize("alpha,beta", [(F(3, 10), F(3, 20)), (F(1, 5), F(1, 4)),
                                        (F(2, 5), F(1, 2))])
def test_two_values_recover_the_true_root_over_c(alpha, beta):
    p, values = plant((alpha,), (beta,), kmax=3)
    starts = thoma._pade_starts(np.array([values[2], values[3]]), 1, 1)
    assert min(np.max(np.abs(x - [float(alpha), float(beta)])) for x in starts) < 1e-12
    result = recover_params(values, (1, 1))
    assert param_error(result.params.alpha, p.alpha) < 1e-12
    assert param_error(result.params.beta, p.beta) < 1e-12


# The criterion-11 plants whose entries are all distinct.
DISTINCT_PLANTS = [
    ((F(1, 2), F(1, 4), F(1, 8)), ()),
    ((), (F(1, 2), F(1, 4), F(1, 8))),
    ((F(1, 2), F(1, 4)), (F(1, 8),)),
    ((F(2, 5),), (F(1, 5), F(1, 10))),
    ((F(1, 2),), (F(1, 4),)),
]


@pytest.mark.parametrize("alpha,beta",
                         [full_support_draw(seed) for seed in range(8)] + DISTINCT_PLANTS)
def test_a_pade_start_lies_on_the_planted_parameters(alpha, beta):
    # Before any polish: the roots of the consistency determinant, refined
    # against the values up to k = 10, give the planted point to 1e-10.
    p, values = plant(alpha, beta, kmax=10)
    r, s = len(alpha), len(beta)
    starts = thoma._pade_starts(np.array([values[k] for k in range(2, 11)]), r, s)
    want = np.array([float(a) for a in p.alpha] + [float(b) for b in p.beta])
    got = [np.concatenate([np.sort(x[:r])[::-1], np.sort(x[r:])[::-1]]) for x in starts]
    assert min(np.max(np.abs(x - want)) for x in got) < 1e-10


# alpha = (2/5) under padded bounds: at support (1, 1) with values up to k = 3
# the determinant has a double root at c = 2/5, which eigenvalues split.
@pytest.mark.parametrize("bounds,kmax", [((1, 1), 3), ((1, 1), 4), ((1, 1), 6), ((2, 2), 6)])
def test_padded_bounds_recover_a_single_alpha(bounds, kmax):
    _, values = plant((F(2, 5),), (), kmax=kmax)
    result = recover_params(values, bounds)
    assert (result.params.alpha, result.params.beta) == ((0.4,), ())
    assert result.residual < 1e-32


# The top Chebyshev coefficient of the determinant can round to exactly 0:
# dividing by it once gave inf in the colleague matrix and a LinAlgError.
@pytest.mark.parametrize("values,bounds", [
    ({2: 0.0, 3: 0.0, 4: 0.0, 5: -1.0, 6: 0.0, 7: 0.0}, (2, 4)),
    ({2: 0.680213536340202, 3: -0.46974622167754654, 4: 0.3721339972325135,
      5: -0.19510541725050046, 6: -0.8161662306702662, 7: 0.4804847994821768,
      8: 0.15256507950780906, 9: -0.6721580815019497}, (4, 2)),
])
def test_a_determinant_whose_top_coefficient_rounds_to_zero(values, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = recover_params(values, bounds)
    assert math.isfinite(result.residual)


def fit_problem(values, r):
    ks = np.array(sorted(values))
    target = np.array([values[k] for k in ks])
    return ks, target, (lambda x: thoma._model(x, r, ks) - target,
                        lambda x: thoma._jac(x, r, ks))


def exact_sum_of_squares(x, r, ks, target):
    # In floats a sum of squares near 1e-3 carries rounding noise near 1e-19,
    # which would decide a comparison at 1e-20; the end points are scored exactly.
    total = F(0)
    for k, t in zip(ks.tolist(), target.tolist()):
        model = sum(F(a) ** k for a in x[:r].tolist()) - (-1) ** k * sum(
            F(b) ** k for b in x[r:].tolist())
        total += (model - F(t)) ** 2
    return total


def benchmark_style_values(seed):
    """Planted supports (2, 1), (2, 2), (3, 2) under bounds (2, 1), (2, 2), (3, 3).

    Entries are k/40, spaced at least 1/20 across alpha and beta, with mass
    at most 0.9; values run to k = r + s + 4.
    """
    rng = np.random.default_rng(seed)
    for bounds, (na, nb) in zip(((2, 1), (2, 2), (3, 3)), ((2, 1), (2, 2), (3, 2))):
        while True:
            ks = rng.choice(np.arange(2, 25), na + nb, replace=False).tolist()
            if sum(ks) <= 36 and min(np.diff(sorted(ks))) >= 2:
                break
        alpha, beta = [F(k, 40) for k in ks[:na]], [F(k, 40) for k in ks[na:]]
        yield plant(alpha, beta, kmax=sum(bounds) + 4)[1], bounds


# A Padé start with a complex pair of roots has two equal alpha entries, and
# Gauss-Newton never separates them: it ended at 9.620e-8 against 9.614e-8.
POLISH_CASES = {
    **{"seed%d-%d,%d" % (seed, *bounds): (values, bounds)
       for seed in range(3) for values, bounds in benchmark_style_values(seed)},
    "equal-alpha-start": (plant((F(13, 40), F(9, 40), F(1, 8)), (F(7, 40), F(1, 20)),
                                kmax=10)[1], (2, 1)),
}


@pytest.mark.parametrize("case", POLISH_CASES)
def test_polish_ends_no_higher_than_scipy_least_squares(case):
    from scipy import optimize

    values, bounds = POLISH_CASES[case]
    for r, s in itertools.product(range(bounds[0] + 1), range(bounds[1] + 1)):
        if r + s == 0:
            continue
        ks, target, (fun, jac) = fit_problem(values, r)
        start = min(thoma._pade_starts(target, r, s), key=lambda x: np.sum(fun(x) ** 2))
        x, _ = thoma._polish(fun, jac, start)
        ref = optimize.least_squares(fun, start, jac=jac, bounds=(0.0, 1.0),
                                     xtol=1e-15, ftol=1e-15, gtol=1e-15)
        ours = exact_sum_of_squares(x, r, ks, target)
        theirs = exact_sum_of_squares(ref.x, r, ks, target)
        assert ours <= theirs + F(1e-20), ((r, s), float(ours), float(theirs))


def test_polish_moves_an_entry_off_zero():
    # d(x^k)/dx = 0 at x = 0 for every k >= 2: projected Levenberg-Marquardt
    # alone stalls at 1.5e-4 from this start.
    values = {2: 0.0675, 3: 0.030375, 4: 0.00759375, 5: 0.002506640625, 6: 0.00071505}
    _, _, (fun, jac) = fit_problem(values, 2)
    _, cost = thoma._polish(fun, jac, np.array([0.268905, 0.0, 0.0, 0.0]))
    assert cost <= 1e-11
