"""Conjugation orbits, the truncated metric, and stability profiles."""

import math
from fractions import Fraction

import pytest

from stablerep import stability
from stablerep.canonical import CanonicalState
from stablerep.fourier import StateFunction, dual_norm
from stablerep.permutations import cut_generators, cycle, symmetric_group, transposition
from stablerep.stability import (
    ad_orbit_state,
    as_table,
    centrality_defect,
    probe_generators,
    rho_distance,
    stability_profile,
)
from stablerep.thoma import ThomaParams, thoma_character
from test_acceptance import BATTERY

F = Fraction

MIXED = ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),))
STATE = CanonicalState(2, (1, 1), MIXED)


def thoma_only(params):
    return lambda s: float(thoma_character(params, s.cycle_type()))


def test_as_table_matches_evaluator():
    table = as_table(STATE, 4)
    for g in symmetric_group(4):
        assert complex(table(g)) == complex(STATE(g))


def test_ad_orbit_state_is_pullback():
    t = transposition(2, 3)
    table = as_table(STATE, 4)
    moved_from_table = ad_orbit_state(table, t)
    moved_from_callable = ad_orbit_state(STATE, t)
    for g in symmetric_group(4):
        want = complex(STATE(g.conjugate_by(t)))
        assert complex(moved_from_table(g)) == pytest.approx(want, abs=1e-15)
        assert complex(moved_from_callable(g)) == pytest.approx(want, abs=1e-15)


def test_ad_orbit_needs_conjugator_inside_table():
    table = as_table(STATE, 3)
    with pytest.raises(ValueError):
        ad_orbit_state(table, transposition(4, 5))


def test_rho_distance_is_a_metric_empirically():
    a = as_table(STATE, 3)
    b = as_table(CanonicalState(2, (2,), MIXED), 3)
    c = as_table(CanonicalState(0, (), MIXED), 3)
    assert rho_distance(a, a, 3) == 0
    dab = rho_distance(a, b, 3)
    dba = rho_distance(b, a, 3)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert dab > 0
    assert rho_distance(a, c, 3) <= dab + rho_distance(b, c, 3) + 1e-12


def test_rho_distance_monotone_in_truncation():
    a = as_table(STATE, 4)
    b = as_table(CanonicalState(2, (2,), MIXED), 4)
    dists = [rho_distance(a, b, K) for K in range(1, 5)]
    assert all(x <= y + 1e-12 for x, y in zip(dists, dists[1:]))


def test_rho_distance_is_the_sup_over_restrictions():
    # The defining sup over n <= K of the restricted dual norms, on the
    # battery's profile probes (as criterion 8 runs them) and on the cut
    # generators of centrality_defect.
    def sup_over_restrictions(f, h, K):
        ft, ht = as_table(f, K), as_table(h, K)
        return max(dual_norm(ft.restrict(n) - ht.restrict(n)) for n in range(K + 1))

    K = 6
    for state in BATTERY:
        table = as_table(state, K)
        probes = [t for m in range(state.n + 3) for t in probe_generators(m)]
        pairs = [(ad_orbit_state(state, t), table) for t in probes]
        generators = dict.fromkeys(t for n in range(K - 1) for t in cut_generators(n, K))
        pairs += [(ad_orbit_state(table, t), table) for t in generators]
        for f, h in pairs:
            want = sup_over_restrictions(f, h, K)
            assert abs(rho_distance(f, h, K) - want) <= 1e-12 * max(1, want)


def test_probe_generators():
    probes = probe_generators(3)
    assert transposition(4, 5) in probes
    assert cycle(4, 5, 6) in probes


def test_profile_vanishes_from_cut():
    profile = stability_profile(STATE, K=5, M=4)
    for point in profile.points:
        if point.m >= STATE.n:
            assert point.defect == 0
        else:
            assert point.defect > 0


def test_profile_of_parameter_state_is_zero():
    profile = stability_profile(thoma_only(MIXED), K=4, M=3)
    assert [p.defect for p in profile.points] == [0, 0, 0, 0]


def test_exhaustive_sweep_agrees_with_generators():
    quick = stability_profile(STATE, K=4, M=2)
    full = stability_profile(STATE, K=4, M=2, exhaustive=True)
    for a, b in zip(quick.points, full.points):
        assert (a.defect == 0) == (b.defect == 0)
    with pytest.raises(ValueError):
        stability_profile(STATE, K=4, M=3, exhaustive=True)


@pytest.mark.parametrize("M, tabulations", [
    (3, 1),  # every probe lies inside S_6
    (5, 4),  # (5 6 7), (6 7) and (6 7 8) leave S_6
])
def test_profile_tabulates_a_spec_once_and_again_per_probe_leaving_the_table(
        monkeypatch, M, tabulations):
    # Probes inside S_K gather the level-K table; only a probe that leaves
    # S_K tabulates the spec again, on its conjugated words.
    calls = []
    evaluate_words = CanonicalState.evaluate_words
    monkeypatch.setattr(CanonicalState, "evaluate_words",
                        lambda self, words: calls.append(len(words)) or evaluate_words(self, words))
    stability_profile(STATE, 6, M)
    leaving = sum(t.level > 6 for m in range(M + 1) for t in probe_generators(m))
    assert len(calls) == tabulations == 1 + leaving


def _per_probe_defects(state, K, M, exhaustive=False):
    table = as_table(state, K)
    defects = []
    for m in range(M + 1):
        if exhaustive:
            probes = [g.shift(m) for g in symmetric_group(K - m) if not g.is_identity()]
        else:
            probes = probe_generators(m)
        defects.append(max(rho_distance(ad_orbit_state(state, t), table, K) for t in probes))
    return defects


def test_profile_defects_equal_per_probe_pullbacks():
    for state in BATTERY:
        got = list(stability_profile(state, 6, 5).defects().values())
        assert got == _per_probe_defects(state, 6, 5), state
        got = list(stability_profile(state, 5, 3, exhaustive=True).defects().values())
        assert got == _per_probe_defects(state, 5, 3, exhaustive=True), state


@pytest.mark.parametrize("second, picked", [
    (math.nextafter(0.5, 1.0), 0),  # a tie up to the last bit: the first probe
    (0.6, 1),  # a real gap: the worse probe
], ids=["ulp-tie", "gap"])
def test_witness_is_first_probe_within_slack(monkeypatch, second, picked):
    monkeypatch.setattr(stability, "_conjugation_defects",
                        lambda f, table, probes, K: [0.5, second])
    point = stability_profile(STATE, K=4, M=0).points[0]
    assert point.defect == second
    assert point.witness == probe_generators(0)[picked]


@pytest.mark.parametrize("i", [i for i, s in enumerate(BATTERY) if s.n <= 2])
def test_exhaustive_witness_of_a_zero_cut_is_the_first_lexicographic_probe(i):
    # Every probe above the state's cut m fixes it, so all tie at 0 and the
    # witness is the first probe in lexicographic one-line order of S_{K-m}
    # shifted by m: with K = m + 3 that is (1 3 2), so (m+2 m+3).
    state = BATTERY[i]
    m = state.n
    point = stability_profile(state, m + 3, m, exhaustive=True).points[m]
    assert point.defect == 0
    assert point.witness == transposition(m + 2, m + 3)


def test_level_zero_profile_is_refused_without_a_negative_bound():
    # S_0 has no point to move; no max shift could be asked for.
    for exhaustive in (False, True):
        with pytest.raises(ValueError, match="S_0|level 0") as info:
            stability_profile(STATE, K=0, M=0, exhaustive=exhaustive)
        assert "-1" not in str(info.value)


def test_generator_probes_past_truncation_are_refused():
    # Above cut m >= K the probes fix every point of S_K and measure nothing.
    stability_profile(STATE, K=4, M=3)
    with pytest.raises(ValueError, match="S_4"):
        stability_profile(STATE, K=4, M=4)
    with pytest.raises(ValueError, match=">= 0"):
        stability_profile(STATE, K=4, M=-1)


def test_centrality_defect_at_cut():
    assert centrality_defect(STATE, 2, 5) == 0
    assert centrality_defect(STATE, 1, 5) > 0
    with pytest.raises(ValueError):
        centrality_defect(STATE, 4, 5)
    with pytest.raises(ValueError, match=">= 0"):
        centrality_defect(STATE, -1, 5)


def test_centrality_defect_at_the_own_cut_makes_no_transform(monkeypatch):
    # Every generator of the cut-n product group fixes the state's table
    # exactly, so no difference reaches the dual norm.
    def no_transform(f, h, K):
        raise AssertionError("rho_distance called")

    monkeypatch.setattr(stability, "rho_distance", no_transform)
    for state in BATTERY:
        for K in range(state.n + 2, 7):
            assert centrality_defect(state, state.n, K) == 0.0, (state, K)


def test_non_finite_table_is_refused_by_every_probe():
    # Conjugation fixes the identity, so the gathered table equals the table
    # (inf == inf); the difference is still nan and the transform refuses it.
    for bad in (math.inf, math.nan):
        values = [1.0] * 24
        values[0] = bad
        table = StateFunction.from_vector(4, values)
        with pytest.raises(OverflowError):
            stability_profile(table, K=4, M=1)
        with pytest.raises(OverflowError):
            centrality_defect(table, 1, 4)


def test_profile_serialization():
    profile = stability_profile(STATE, K=4, M=2)
    csv = profile.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "m,defect,witness"
    assert len(lines) == 4
    data = profile.to_json()
    assert data["truncation"] == 4
    assert [p["m"] for p in data["points"]] == [0, 1, 2]
