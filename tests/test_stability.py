"""Conjugation orbits, the truncated metric, and stability profiles."""

import math
from fractions import Fraction

import pytest

from stablerep import stability
from stablerep.canonical import CanonicalState
from stablerep.fourier import StateFunction
from stablerep.permutations import cycle, symmetric_group, transposition
from stablerep.stability import (
    ad_orbit_state,
    as_table,
    centrality_defect,
    probe_generators,
    rho_distance,
    stability_profile,
)
from stablerep.thoma import ThomaParams, thoma_character

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


@pytest.mark.parametrize("second, picked", [
    (math.nextafter(0.5, 1.0), 0),  # a tie up to the last bit: the first probe
    (0.6, 1),  # a real gap: the worse probe
], ids=["ulp-tie", "gap"])
def test_witness_is_first_probe_within_slack(monkeypatch, second, picked):
    dists = iter([0.5, second])
    monkeypatch.setattr(stability, "rho_distance", lambda f, h, K: next(dists))
    point = stability_profile(STATE, K=4, M=0).points[0]
    assert point.defect == second
    assert point.witness == probe_generators(0)[picked]


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


def test_profile_serialization():
    profile = stability_profile(STATE, K=4, M=2)
    csv = profile.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "m,defect,witness"
    assert len(lines) == 4
    data = profile.to_json()
    assert data["truncation"] == 4
    assert [p["m"] for p in data["points"]] == [0, 1, 2]
