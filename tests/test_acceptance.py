"""Acceptance battery: eleven criteria, one printed pass/fail line each.

Each criterion runs at its stated tolerance against independent oracles
(frozen tables, brute enumeration, grid search). Lines are printed on
sys.__stdout__ so they appear regardless of capture settings.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_LINES

from stablerep.canonical import (
    CanonicalState,
    asymptotic_character,
    classify,
    quasi_equivalent,
    shift_sequence,
)
from stablerep.characters import class_representative, class_size, mn_character
from stablerep.fourier import (
    StateFunction,
    dual_norm,
    gram_matrix,
    is_positive_definite,
)
from stablerep.gns import gns_standard_pipeline
from stablerep.induction import decompose_induced
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import (
    Permutation,
    split_product,
    symmetric_group,
    transposition,
)
from stablerep.stability import as_table, stability_profile
from stablerep.thoma import ThomaParams, recover_params, thoma_character, type_classify
from stablerep.yor import irrep_matrix

from gns_oracles import commutant, subspace_distance
from test_induction import lr_coefficient

F = Fraction


def report(num, ok, detail):
    line = "criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr, flush=True)
    return ok


# Canonical state battery: n <= 3, parameter supports <= 2, both full
# (alpha+beta = 1) and deficient (< 1) parameter mass. BATTERY[2] is the
# degenerate one-box extension of the empty parameter state; it equals
# the point mass at the identity, so its classified invariant reduces.
BATTERY = [
    CanonicalState(0, (), ThomaParams(alpha=(F(1, 2), F(1, 2)))),
    CanonicalState(0, (), ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),))),
    CanonicalState(1, (1,), ThomaParams()),
    CanonicalState(1, (1,), ThomaParams(alpha=(F(2, 3),), beta=(F(1, 3),))),
    CanonicalState(2, (2,), ThomaParams(alpha=(F(1, 2), F(1, 2)))),
    CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 2)))),
    CanonicalState(2, (2,), ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),))),
    CanonicalState(2, (1, 1), ThomaParams(alpha=(F(3, 5),), beta=(F(2, 5),))),
    CanonicalState(2, (1, 1), ThomaParams(beta=(F(1, 2), F(1, 3)))),
    CanonicalState(3, (3,), ThomaParams(alpha=(F(1, 2), F(1, 4)))),
    CanonicalState(3, (2, 1), ThomaParams(alpha=(F(1, 2), F(1, 2)))),
    CanonicalState(3, (1, 1, 1), ThomaParams(alpha=(F(1, 3),), beta=(F(1, 3),))),
]
DEGENERATE = BATTERY[2]


def test_criterion_01_dual_norm_calibration():
    t0 = time.monotonic()
    worst = abs(dual_norm(StateFunction.delta(6)) - 1.0)
    count = 1
    for n in range(1, 7):
        for lam in partitions_of(n):
            d = hook_dimension(lam)
            f = StateFunction.from_class_function(
                n, lambda ct, lam=lam, d=d: mn_character(lam, ct) / d
            )
            worst = max(worst, abs(dual_norm(f) - 1.0))
            count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    assert report(
        1, ok, "%d dual norms within %.1e of 1 in %.1f s" % (count, worst, elapsed)
    )


def test_criterion_02_character_oracle():
    worst = 0.0
    for n in range(1, 6):
        for lam in partitions_of(n):
            for g in symmetric_group(n):
                tr = float(np.trace(irrep_matrix(lam, g)))
                worst = max(worst, abs(tr - mn_character(lam, g.cycle_partition(n))))
    exact = True
    for n in range(1, 7):
        fact = math.factorial(n)
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                acc = sum(
                    Fraction(class_size(mu))
                    * mn_character(lam, mu)
                    * mn_character(nu, mu)
                    for mu in partitions_of(n)
                )
                exact = exact and acc == (fact if lam == nu else 0)
    ok = worst <= 1e-8 and exact
    assert report(
        2,
        ok,
        "trace deviation %.1e (n<=5), row orthogonality %s (n<=6)"
        % (worst, "exact" if exact else "BROKEN"),
    )


def test_criterion_03_psd_equivalence():
    rng = random.Random(20260814)
    group = symmetric_group(4)
    agreements = 0
    total = 100
    for case in range(total):
        if case % 10 == 3:  # mix in functions positive by construction
            c = {g: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for g in group}
            vals = {
                g: sum(np.conj(c[h]) * c[h * g] for h in group) for g in group
            }
            f = StateFunction(4, vals)
        else:
            raw = {g: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for g in group}
            f = StateFunction(
                4, {g: (raw[g] + np.conj(raw[g.inverse()])) / 2 for g in group}
            )
        blocks_verdict = bool(is_positive_definite(f, tol=1e-9))
        gram = gram_matrix(f)
        gram_verdict = (
            float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]) >= -1e-9
        )
        agreements += blocks_verdict == gram_verdict
    ok = agreements == total
    assert report(3, ok, "block vs Gram agreement %d/%d" % (agreements, total))


def test_criterion_04_battery_positivity_support_invariance():
    rng = random.Random(7)
    group6 = symmetric_group(6)
    sample8 = [
        Permutation.from_one_line(tuple(rng.sample(range(1, 9), 8)))
        for _ in range(200)
    ]
    all_pd = True
    vanish = True
    invariant = True
    for state in BATTERY:
        cert = is_positive_definite(as_table(state, 6), tol=1e-9)
        all_pd = all_pd and cert.positive
        for s in group6:
            if split_product(s, state.n) is None:
                vanish = vanish and state(s) == 0
        gens = [transposition(i, i + 1) for i in range(1, 8) if i != state.n]
        for t in gens:
            for s in itertools.chain(group6, sample8):
                invariant = invariant and state(s.conjugate_by(t)) == state(s)
    ok = all_pd and vanish and invariant
    assert report(
        4,
        ok,
        "%d specs: PD on S_6 %s, exact vanishing %s, exact invariance %s"
        % (len(BATTERY), all_pd, vanish, invariant),
    )


def test_criterion_05_shift_sequences():
    members = True
    for g in symmetric_group(4):
        seq = shift_sequence(g, 8)
        members = members and seq.verify()
        # independent recheck of both membership conditions
        for m in range(seq.m0, 9):
            moved = g.conjugate_by(seq.sigma(m))
            members = members and all(p > m for p in moved.support)
        for m in range(seq.m0, 8):
            step = seq.sigma(m + 1) * seq.sigma(m).inverse()
            members = members and split_product(step, m) is not None
    asym = True
    for state in BATTERY:
        for mu in partitions_of(4):
            g = class_representative(mu)
            start = max(g.level, state.n)
            res = asymptotic_character(state, g, M=start + 3)
            asym = asym and res.value == thoma_character(state.params, g.cycle_type())
            # constant from the cut onward, and never reported later
            asym = asym and all(v == res.value for m, v in res.values if m >= start)
            asym = asym and res.stabilized_at is not None and res.stabilized_at <= start
            if any(v != res.value for m, v in res.values if m < start):
                asym = asym and res.stabilized_at == start
    ok = members and asym
    assert report(
        5,
        ok,
        "memberships exact (S_4, m<=8) %s; asymptotics exact and immediate %s"
        % (members, asym),
    )


def test_criterion_06_classification_round_trip():
    ok = True
    detail = []
    for state in BATTERY:
        result = classify(state, 6, (2, 2))
        inv = result.invariant
        if state is DEGENERATE:
            good = inv.n == 0 and inv.partition == () and inv.alpha == () and inv.beta == ()
        else:
            width = max(len(inv.alpha), len(state.alpha), len(inv.beta), len(state.beta))

            def err(a, b):
                pa = list(map(float, a)) + [0.0] * (width - len(a))
                pb = list(map(float, b)) + [0.0] * (width - len(b))
                return max((abs(x - y) for x, y in zip(pa, pb)), default=0.0)

            good = (
                inv.n == state.n
                and inv.partition == state.partition
                and err(inv.alpha, state.alpha) < 1e-6
                and err(inv.beta, state.beta) < 1e-6
            )
        if not good:
            detail.append(str(state.to_json()))
        ok = ok and good
    separated = True
    for a, b in itertools.combinations(BATTERY, 2):
        separated = separated and not quasi_equivalent(a, b)
    ok = ok and separated
    assert report(
        6,
        ok,
        "round trip %s (degenerate spec reduces to its classified form); "
        "distinct pairs separated %s%s"
        % (not detail, separated, " " + ";".join(detail) if detail else ""),
    )


def test_criterion_07_type_rule():
    grid = [
        ThomaParams(alpha=(F(1, 2), F(1, 2))),
        ThomaParams(alpha=(F(1, 3), F(1, 3), F(1, 3))),
        ThomaParams(beta=(F(1, 2), F(1, 2))),
        ThomaParams(alpha=(F(2, 3),), beta=(F(1, 3),)),
        ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4), F(1, 4))),
        ThomaParams(alpha=(1.0,)),
        ThomaParams(alpha=(0.5,), beta=(0.5 - 5e-10,)),  # inside tolerance
        ThomaParams(alpha=(0.7, 0.3 - 2e-10)),
        ThomaParams(),
        ThomaParams(alpha=(F(1, 2),)),
        ThomaParams(beta=(F(9, 10),)),
        ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),)),
        ThomaParams(alpha=(0.5,), beta=(0.5 - 1e-6,)),  # just outside
        ThomaParams(alpha=(0.3, 0.3), beta=(0.3,)),
        ThomaParams(alpha=(0.99,)),
        ThomaParams(beta=(0.2, 0.2, 0.2)),
        ThomaParams(alpha=(0.25,) * 4),
        ThomaParams(alpha=(0.25,) * 3, beta=(0.25 - 1e-12,)),
        ThomaParams(alpha=(1e-9,)),
        ThomaParams(alpha=(0.6,), beta=(0.39,)),
    ]
    ok = True
    for p in grid:
        is_infinite = type_classify(p).value == "II_infinity"
        should = abs(float(p.total) - 1.0) <= 1e-9
        ok = ok and is_infinite == should
    assert report(7, ok, "type II classification correct on %d-case grid" % len(grid))


def test_criterion_08_stability_profiles():
    ok = True
    for state in BATTERY:
        profile = stability_profile(state, K=6, M=state.n + 2)
        defects = profile.defects()
        for m, d in defects.items():
            if m >= state.n:
                ok = ok and d == 0
        if state.n >= 1 and state is not DEGENERATE:
            ok = ok and defects[state.n - 1] > 0
        if state is DEGENERATE:
            ok = ok and defects[0] == 0
    pure = [
        ThomaParams(alpha=(F(1, 2), F(1, 2))),
        ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),)),
        ThomaParams(),
    ]
    for params in pure:
        fn = lambda s, p=params: float(thoma_character(p, s.cycle_type()))
        profile = stability_profile(fn, K=5, M=3)
        ok = ok and all(p.defect == 0 for p in profile.points)
    assert report(
        8,
        ok,
        "defects vanish exactly from the cut, positive below it, "
        "parameter states flat",
    )


def two_sided(sf):
    """pi and R = J pi(.) J^-1 on the standard form carrier, keyed by permutation."""
    pi = {g: sf.image(g) for g in symmetric_group(sf.level)}
    return pi, {h: sf.conjugate_by_j(m) for h, m in pi.items()}


def _standard_form_residuals(state, k, pairs_mode):
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    pi, right = two_sided(sf)
    group = symmetric_group(k)
    # ||J^2 - I|| on doubled real coordinates is sqrt(2) ||j conj(j) - I||
    res_j = math.sqrt(2) * float(np.linalg.norm(sf.j @ sf.j.conj() - np.eye(sf.dimension)))
    # J M J^-1 = M', with M' solved for by the Kronecker oracle; M is
    # spanned by the pi(g).
    algebra = list(pi.values())
    conj = [sf.conjugate_by_j(x) for x in algebra]
    res_jmj = subspace_distance(conj, commutant(algebra))
    if pairs_mode == "full":
        pairs = [(g, h) for g in group for h in group]
    else:
        small = [group[0], transposition(1, 2), Permutation.from_cycles([list(range(1, k + 1))])]
        pairs = [(g, h) for g in small for h in small]
    # rho in {pi, right} is a homomorphism exactly when rho(e) = 1 and
    # rho(g t) = rho(g) rho(t) for every g and adjacent transposition t.
    eye = np.eye(sf.dimension)
    res_hom = 0.0
    for rho in (pi, right):
        res_hom = max(res_hom, float(np.linalg.norm(rho[group[0]] - eye)))
        for g in group:
            for t in (transposition(i, i + 1) for i in range(1, k)):
                res_hom = max(res_hom, float(np.linalg.norm(rho[g * t] - rho[g] @ rho[t])))
    for g1, h1 in pairs:
        for g2, h2 in pairs:
            lhs = pi[g1 * g2] @ right[h1 * h2]
            rhs = (pi[g1] @ right[h1]) @ (pi[g2] @ right[h2])
            res_hom = max(res_hom, float(np.linalg.norm(lhs - rhs)))
    res_comm = 0.0
    for g in group:
        left = pi[g]
        for h in group:
            r = sf.conjugate_by_j(pi[h])
            res_comm = max(res_comm, float(np.linalg.norm(left @ r - r @ left)))
    res_ad = 0.0
    for g in group:
        a = pi[g] @ right[g]
        a_inv = np.linalg.inv(a)
        for x in group:
            got = a @ pi[x] @ a_inv
            res_ad = max(res_ad, float(np.linalg.norm(got - pi[g * x * g.inverse()])))
    return max(res_j, res_jmj, res_hom, res_comm, res_ad)


def test_criterion_09_standard_form_suite():
    t0 = time.monotonic()
    worst3 = max(_standard_form_residuals(s, 3, "full") for s in BATTERY)

    # tracial case: for the point mass psi = delta_e, and the two-sided
    # action must move delta_x to delta_{gxh^-1}
    k = 3
    _, sf = gns_standard_pipeline(k, StateFunction.delta(k))
    pi, right = two_sided(sf)
    group = symmetric_group(k)
    coords = {x: sf.image(x) @ sf.xi for x in group}
    res_trace = 0.0
    for g in group:
        for h in group:
            op = pi[g] @ right[h]
            for x in group:
                res_trace = max(
                    res_trace,
                    float(np.max(np.abs(op @ coords[x] - coords[g * x * h.inverse()]))),
                )

    worst4 = max(_standard_form_residuals(s, 4, "generators") for s in BATTERY[:2])
    elapsed = time.monotonic() - t0
    worst = max(worst3, res_trace, worst4)
    ok = worst < 1e-8 and elapsed < 300.0
    assert report(
        9,
        ok,
        "residuals: k=3 %.1e, tracial %.1e, k=4 %.1e in %.0f s"
        % (worst3, res_trace, worst4, elapsed),
    )


def test_criterion_09_rejects_a_right_factor_off_by_1e_6(monkeypatch):
    # The 3-element sample at k = 4 passes this factor; the generator links do not.
    def scaled(sf, build=two_sided):
        pi, right = build(sf)
        t = Permutation.from_cycles([[1, 3]])
        right[t] = right[t] * (1 + 1e-6)
        return pi, right

    monkeypatch.setattr(sys.modules[__name__], "two_sided", scaled)
    assert _standard_form_residuals(BATTERY[0], 4, "generators") > 1e-8


def test_criterion_10_induction_matches_lr():
    ok = True
    checked = 0
    for m in range(2, 7):
        for n in range(1, m):
            for lam in partitions_of(n):
                for mu in partitions_of(m - n):
                    got = decompose_induced(n, lam, mu, m)
                    for nu in partitions_of(m):
                        ok = ok and got.get(nu, 0) == lr_coefficient(nu, lam, mu)
                    checked += 1
    assert report(10, ok, "LR multiplicities exact on %d inductions (m<=6)" % checked)


def test_criterion_11_parameter_recovery():
    plants = [
        ((F(1, 2), F(1, 4), F(1, 8)), ()),
        ((), (F(1, 2), F(1, 4), F(1, 8))),
        ((F(1, 3), F(1, 3), F(1, 3)), ()),
        ((F(1, 2), F(1, 4)), (F(1, 8),)),
        ((F(2, 5),), (F(1, 5), F(1, 10))),
        ((F(1, 2), F(1, 2)), ()),
        ((F(1, 2),), (F(1, 4),)),
        ((), ()),
    ]
    ok = True
    worst_param = 0.0
    worst_resid = 0.0
    for alpha, beta in plants:
        p = ThomaParams(alpha=alpha, beta=beta)
        values = {k: float(thoma_character(p, (k,))) for k in range(2, 9)}
        result = recover_params(values, (3, 3))
        width = 3

        def err(a, b):
            pa = list(map(float, a)) + [0.0] * (width - len(a))
            pb = list(map(float, b)) + [0.0] * (width - len(b))
            return max(abs(x - y) for x, y in zip(pa, pb))

        worst_param = max(worst_param, err(result.params.alpha, p.alpha))
        worst_param = max(worst_param, err(result.params.beta, p.beta))
        worst_resid = max(worst_resid, result.residual)
    ok = ok and worst_param < 1e-6 and worst_resid < 1e-10

    # grid-search oracle for supports <= 2: no grid point beats the fit
    grid_ok = True
    ticks = np.arange(0.0, 1.0 + 0.025, 0.05)
    for alpha, beta in [((F(1, 2), F(1, 4)), ()), ((F(1, 2),), (F(1, 4),))]:
        p = ThomaParams(alpha=alpha, beta=beta)
        values = {k: float(thoma_character(p, (k,))) for k in range(2, 9)}
        result = recover_params(values, (2, 2))
        ks = sorted(values)
        target = np.array([values[k] for k in ks])
        best = math.inf
        for a in itertools.combinations_with_replacement(ticks[::-1], 2):
            for b in itertools.combinations_with_replacement(ticks[::-1], 2):
                if sum(a) + sum(b) > 1 + 1e-12:
                    continue
                model = np.array(
                    [
                        sum(x**k for x in a) + (-1) ** (k + 1) * sum(y**k for y in b)
                        for k in ks
                    ]
                )
                best = min(best, float(np.sum((model - target) ** 2)))
        grid_ok = grid_ok and result.residual <= best + 1e-15
    ok = ok and grid_ok
    assert report(
        11,
        ok,
        "recovery error %.1e, residual %.1e, grid oracle confirmed %s"
        % (worst_param, worst_resid, grid_ok),
    )
