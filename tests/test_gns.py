"""GNS construction, commutants, and the finite standard form."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stablerep.canonical import CanonicalState
from stablerep.characters import mn_character
from stablerep.fourier import StateFunction
from stablerep.gns import (
    biregular,
    central_support,
    commutant,
    double_commutant,
    gns,
    gns_standard_pipeline,
    standard_form,
    subspace_distance,
    support_projection,
)
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import IDENTITY, symmetric_group, transposition
from stablerep.stability import as_table
from stablerep.thoma import ThomaParams
from stablerep.yor import irrep_matrix

F = Fraction


def normalized_character_state(n, lam):
    d = hook_dimension(lam)
    return StateFunction.from_class_function(
        n, lambda ct: mn_character(lam, ct) / d
    )


def test_gns_of_delta_is_regular_representation():
    for k in (2, 3):
        triple = gns(k, StateFunction.delta(k))
        assert triple.dimension == math.factorial(k)
        for g in symmetric_group(k):
            for h in symmetric_group(k):
                assert np.allclose(
                    triple.rep[g] @ triple.rep[h], triple.rep[g * h], atol=1e-10
                )


def test_gns_of_normalized_character_has_dimension_d_squared():
    for lam in partitions_of(3):
        triple = gns(3, normalized_character_state(3, lam))
        assert triple.dimension == hook_dimension(lam) ** 2


def test_gns_reproduces_the_state():
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    k = 3
    triple = gns(k, as_table(state, k))
    for g in symmetric_group(k):
        got = triple.coefficient(g)
        assert abs(got - complex(state(g))) < 1e-10


def test_gns_rejects_non_positive_input():
    f = StateFunction.from_callable(3, lambda g: -g.sign)
    with pytest.raises(ValueError):
        gns(3, f)


def test_commutant_of_scalars_is_everything():
    basis = commutant([np.eye(3)])
    assert len(basis) == 9


def test_commutant_of_irreducible_action_is_scalars():
    mats = [irrep_matrix((2, 1), g) for g in symmetric_group(3)]
    basis = commutant(mats)
    assert len(basis) == 1
    assert np.allclose(basis[0] @ mats[1], mats[1] @ basis[0], atol=1e-10)


def test_double_commutant_of_regular_representation():
    triple = gns(3, StateFunction.delta(3))
    algebra = double_commutant(triple.generators())
    # group algebra of S_3: 1^2 + 1^2 + 2^2 = 6 dimensions
    assert len(algebra) == 6


def test_commutant_rejects_empty_input():
    with pytest.raises(ValueError):
        commutant([])


def test_support_projection_picks_out_block():
    # diagonal algebra, density living on the first two coordinates
    basis = [np.diag(v) for v in np.eye(4)]
    proj = support_projection(np.diag([0.5, 0.5, 0.0, 0.0]), basis)
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-10)
    with pytest.raises(ValueError):
        support_projection(np.diag([1.0, -0.5, 0.0, 0.0]), basis)


def test_subspace_distance():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert subspace_distance([e1], [e1]) < 1e-12
    assert subspace_distance([e1], [e2]) == pytest.approx(1.0)


def test_standard_form_rejects_unfaithful_state():
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(ValueError):
        standard_form(basis, np.diag([1.0, 0.0]))


def test_standard_form_tracial_case_is_biregular():
    # With the trace, J pi(h) J^-1 acts as right translation, so the
    # two-sided representation moves delta_x to delta_{g x h^-1}.
    k = 3
    triple = gns(k, StateFunction.delta(k))
    algebra = double_commutant(triple.generators())
    dim = triple.dimension
    sf = standard_form(algebra, np.eye(dim) / dim)
    bireg = biregular(sf, triple.rep)
    group = symmetric_group(k)

    # coordinates of delta_x inside the standard carrier
    whalf = sf._whalf
    coords = {}
    for x in group:
        coeff = np.array([np.vdot(b, triple.rep[x]) for b in sf.basis])
        coords[x] = whalf @ coeff
    for g in group:
        for h in group:
            op = bireg(g, h)
            for x in group:
                want = coords[g * x * h.inverse()]
                got = op @ coords[x]
                assert np.max(np.abs(got - want)) < 1e-10, (g, h, x)


def test_standard_form_j_properties():
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    _, algebra, sf = gns_standard_pipeline(k, as_table(state, k))
    two_n = sf.j_real.shape[0]
    assert np.linalg.norm(sf.j_real @ sf.j_real - np.eye(two_n)) < 1e-10
    # J xi = xi on the cyclic vector of the standard form
    assert np.max(np.abs(sf.apply_j(sf.xi) - sf.xi)) < 1e-10
    # J M J^-1 lands in the commutant
    comm = sf.commutant_basis
    flat = np.array([b.ravel() for b in comm])
    q, _ = np.linalg.qr(flat.conj().T)
    for x in sf.algebra:
        jx = sf.conjugate_by_j(x)
        resid = jx.ravel() - q @ (q.conj().T @ jx.ravel())
        assert np.linalg.norm(resid) < 1e-8


def test_pipeline_residuals_small():
    k = 3
    state = CanonicalState(2, (2,), ThomaParams(alpha=(F(1, 3), F(1, 3))))
    triple, algebra, sf = gns_standard_pipeline(k, as_table(state, k))
    bireg = biregular(sf, triple.rep)
    group = symmetric_group(k)
    worst = 0.0
    for g1 in group:
        for g2 in group:
            lhs = bireg(g1 * g2, g1 * g2)
            rhs = bireg(g1, g1) @ bireg(g2, g2)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert worst < 1e-8
    for g in group:
        a = bireg.ad(g)
        a_inv = np.linalg.inv(a)
        for x in group:
            lhs = a @ bireg.pi[x] @ a_inv
            assert np.linalg.norm(lhs - bireg.pi[g * x * g.inverse()]) < 1e-8


def test_left_and_right_factors_commute():
    k = 3
    state = CanonicalState(1, (1,), ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),)))
    triple, _, sf = gns_standard_pipeline(k, as_table(state, k))
    bireg = biregular(sf, triple.rep)
    for g in symmetric_group(k):
        left = bireg.pi[g]
        for h in symmetric_group(k):
            right = sf.conjugate_by_j(bireg.pi[h])
            assert np.linalg.norm(left @ right - right @ left) < 1e-9


def test_central_support_of_explicit_sum():
    group = symmetric_group(3)
    rep = {}
    for g in group:
        rep[g] = np.block(
            [
                [irrep_matrix((3,), g), np.zeros((1, 2))],
                [np.zeros((2, 1)), irrep_matrix((2, 1), g)],
            ]
        )
    assert central_support(rep, 3) == frozenset({(3,), (2, 1)})
    with pytest.raises(ValueError):
        bad = {g: m * (1.5 if g == IDENTITY else 1.0) for g, m in rep.items()}
        central_support(bad, 3)


def test_central_support_matches_between_sides():
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    triple, _, sf = gns_standard_pipeline(k, as_table(state, k))
    bireg = biregular(sf, triple.rep)
    left = {g: bireg.pi[g] for g in symmetric_group(k)}
    assert central_support(left, k) == central_support(triple.rep, k)
