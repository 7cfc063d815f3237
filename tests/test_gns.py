"""GNS construction, commutants, and the finite standard form."""

import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg

from stablerep import cli
from stablerep.canonical import CanonicalState
from stablerep.characters import mn_character
from stablerep.fourier import StateFunction, fourier
from stablerep.gns import central_support, gns, gns_standard_pipeline
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import IDENTITY, Permutation, symmetric_group, transposition
from stablerep.stability import as_table
from stablerep.thoma import ThomaParams
from stablerep.yor import irrep_matrix

from gns_oracles import commutant, double_commutant, subspace_distance
from test_acceptance import BATTERY
from test_index_layer import enumeration_rows

F = Fraction
# The package rebinds the name gns to the function, so fetch the module.
gns_module = importlib.import_module("stablerep.gns")


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
                    triple.image(g) @ triple.image(h), triple.image(g * h), atol=1e-10
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
    # Not hermitian on S_3, though hermitian on S_2: the Gram matrix of f is
    # not, and gns would build the triple of (f + f*)/2.
    f = StateFunction(4, {IDENTITY: 1.0, Permutation.from_cycles([[1, 2, 3]]): 0.5})
    gns(2, f)
    with pytest.raises(ValueError, match="not hermitian"):
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


def test_subspace_distance():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert subspace_distance([e1], [e1]) < 1e-12
    assert subspace_distance([e1], [e2]) == pytest.approx(1.0)


def test_standard_form_of_an_unfaithful_gns_state_is_the_algebra():
    # A matrix coefficient of the standard irreducible of S_3 is a pure
    # state: its GNS carrier is C^2, and its vector state is not faithful
    # on M = M_2. The trace weight makes the standard form's state
    # faithful, so its carrier is M itself, of dimension 4.
    k = 3
    f = StateFunction.from_callable(k, lambda g: irrep_matrix((2, 1), g)[0, 0])
    triple, sf = gns_standard_pipeline(k, f)
    assert (triple.dimension, sf.dimension) == (2, 4)
    assert len(double_commutant(triple.generators())) == sf.dimension


def test_standard_form_tracial_case_is_biregular():
    # For the point mass the faithful state is delta_e, a trace, so
    # J pi(h) J^-1 acts as right translation and the two-sided
    # representation moves delta_x to delta_{g x h^-1}.
    k = 3
    _, sf = gns_standard_pipeline(k, StateFunction.delta(k))
    pi, right = gns_module._two_sided(sf)
    group = symmetric_group(k)
    index = enumeration_rows(k)
    # delta_x inside the standard carrier
    coords = {x: sf.image(x) @ sf.xi for x in group}
    for g in group:
        for h in group:
            op = pi[index[g]] @ right[index[h]]
            for x in group:
                want = coords[g * x * h.inverse()]
                got = op @ coords[x]
                assert np.max(np.abs(got - want)) < 1e-10, (g, h, x)


def test_standard_form_j_properties():
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    # ||J^2 - I|| on doubled real coordinates is sqrt(2) ||j conj(j) - I||
    assert math.sqrt(2) * np.linalg.norm(sf.j @ sf.j.conj() - np.eye(sf.dimension)) < 1e-10
    # J xi = xi on the cyclic vector of the standard form
    assert np.max(np.abs(sf.j @ np.conj(sf.xi) - sf.xi)) < 1e-10
    # J M J^-1 lands in the commutant, solved for by the Kronecker oracle
    algebra = list(sf.rep)
    flat = np.array([b.ravel() for b in commutant(algebra)])
    q, _ = np.linalg.qr(flat.conj().T)
    for x in algebra:
        jx = sf.conjugate_by_j(x)
        resid = jx.ravel() - q @ (q.conj().T @ jx.ravel())
        assert np.linalg.norm(resid) < 1e-8


def test_pipeline_residuals_small():
    k = 3
    state = CanonicalState(2, (2,), ThomaParams(alpha=(F(1, 3), F(1, 3))))
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    pi, right = gns_module._two_sided(sf)
    group = symmetric_group(k)
    index = enumeration_rows(k)

    def ad(g):
        return pi[index[g]] @ right[index[g]]

    worst = 0.0
    for g1 in group:
        for g2 in group:
            lhs = ad(g1 * g2)
            rhs = ad(g1) @ ad(g2)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    assert worst < 1e-8
    for g in group:
        a = ad(g)
        a_inv = np.linalg.inv(a)
        for x in group:
            lhs = a @ pi[index[x]] @ a_inv
            assert np.linalg.norm(lhs - pi[index[g * x * g.inverse()]]) < 1e-8


def test_left_and_right_factors_commute():
    k = 3
    state = CanonicalState(1, (1,), ThomaParams(alpha=(F(1, 2),), beta=(F(1, 4),)))
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    for left in sf.rep:
        for m in sf.rep:
            right = sf.conjugate_by_j(m)
            assert np.linalg.norm(left @ right - right @ left) < 1e-9


def test_central_support_of_explicit_sum():
    rep = np.array([
        np.block(
            [
                [irrep_matrix((3,), g), np.zeros((1, 2))],
                [np.zeros((2, 1)), irrep_matrix((2, 1), g)],
            ]
        )
        for g in symmetric_group(3)
    ])
    assert central_support(rep, 3) == frozenset({(3,), (2, 1)})
    with pytest.raises(ValueError):
        bad = rep.copy()
        bad[enumeration_rows(3)[IDENTITY]] *= 1.5
        central_support(bad, 3)


def test_central_support_matches_between_sides():
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    triple, sf = gns_standard_pipeline(k, as_table(state, k))
    left, _ = gns_module._two_sided(sf)
    assert central_support(left, k) == central_support(triple.rep, k)


def _central_support_oracle(rep, k):
    # The multiplicity of lam is (1/k!) sum_g chi_lam(g) tr rho(g), summed
    # over a Permutation-keyed dict of the representation.
    out = set()
    for lam in partitions_of(k):
        mult = sum(mn_character(lam, g.cycle_type()) * np.trace(m).real for g, m in rep.items())
        if round(mult / math.factorial(k)) > 0:
            out.add(lam)
    return frozenset(out)


@pytest.mark.parametrize("k", range(5))
def test_central_support_of_the_stack_matches_a_permutation_dict_oracle(k):
    for state in BATTERY:
        triple = gns(k, as_table(state, k))
        by_element = dict(zip(symmetric_group(k), triple.rep))
        assert central_support(triple.rep, k) == _central_support_oracle(by_element, k), state


# The specs criterion 9 runs at each level: the whole battery at k = 3, the
# first two at k = 4. The oracles are slow there: the k = 4 regular
# representation alone costs two 13,824 x 576 Kronecker SVDs.
ORACLE_CASES = [(3, i) for i in range(len(BATTERY))] + [(4, 0), (4, 1)]


@pytest.mark.parametrize("k,i", ORACLE_CASES, ids=["k%d-%d" % c for c in ORACLE_CASES])
def test_algebra_on_the_standard_carrier_equals_the_double_commutant_oracle(k, i):
    # pi(S_k) spans the algebra that the oracle generates, on a carrier of
    # the algebra's own dimension.
    _, sf = gns_standard_pipeline(k, as_table(BATTERY[i], k))
    algebra = double_commutant(sf.generators())
    assert len(algebra) == sf.dimension
    assert subspace_distance(sf.rep, algebra) < 1e-9


def test_right_embedding_is_right_multiplication():
    # Right translation v_x -> v_{x h} of the carrier vectors v_x = pi(x) xi
    # is well defined on the standard carrier and commutes with pi, and the
    # Kronecker oracle finds no more of M' than these right translations.
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    group = symmetric_group(k)
    index = enumeration_rows(k)
    V = np.array([sf.image(x) @ sf.xi for x in group]).T
    right = []
    for h in group:
        shifted = V[:, [index[x * h] for x in group]]
        r = shifted @ np.linalg.pinv(V)
        assert np.max(np.abs(r @ V - shifted)) < 1e-10
        right.append(r)
    for a in sf.rep:
        for r in right:
            assert np.linalg.norm(a @ r - r @ a) < 1e-10
    assert subspace_distance(right, commutant(sf.generators())) < 1e-9


def test_gns_rep_equals_the_permutation_loop():
    for k in range(1, 5):
        for state in (BATTERY[1], BATTERY[5]):
            f = as_table(state, k)
            elements = symmetric_group(k)
            index = enumeration_rows(k)
            G = np.array([[f(g.inverse() * h) for h in elements] for g in elements])
            G = (G + G.conj().T) / 2
            w, V = np.linalg.eigh(G)
            keep = w > max(1e-10 * max(w[-1], 0.0), 1e-10)
            B = (V[:, keep] * np.sqrt(w[keep])).conj().T
            pinv = np.linalg.pinv(B)
            triple = gns(k, f)
            for g in elements:
                want = B[:, [index[g * h] for h in elements]] @ pinv
                assert np.array_equal(triple.rep[index[g]], want)
            assert np.array_equal(triple.xi, B[:, index[IDENTITY]])


def test_gns_verify_solves_no_kronecker_system(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("Kronecker solve on the gns-verify path")

    # The Kronecker oracles live outside the package, and a Kronecker system
    # anywhere on the path would build its rows with np.kron.
    monkeypatch.setattr(np, "kron", refuse)
    spec = tmp_path / "cut2.json"
    spec.write_text(json.dumps({"n": 2, "lambda": [1, 1], "alpha": ["1/2"], "beta": ["1/4"]}))
    out = tmp_path / "report.json"
    assert cli.main(["gns-verify", str(spec), "--level", "4", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_right_factors_are_one_conjugation_of_the_stack(monkeypatch):
    k = 3
    state = CanonicalState(2, (2,), ThomaParams(alpha=(F(1, 3), F(1, 3))))
    _, sf = gns_standard_pipeline(k, as_table(state, k))
    calls = []
    conjugate = sf.conjugate_by_j
    monkeypatch.setattr(sf, "conjugate_by_j", lambda X: calls.append(1) or conjugate(X))
    pi, right = gns_module._two_sided(sf)
    assert len(calls) == 1
    assert pi is sf.rep
    assert right.shape == (math.factorial(k), sf.dimension, sf.dimension)
    for r in range(len(pi)):
        assert np.array_equal(right[r], conjugate(pi[r]))


def _real_of_antilinear(C):
    # The map v -> C conj(v), written on stacked (Re v, Im v).
    return np.block([[C.real, C.imag], [C.imag, -C.real]])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_j_matches_the_doubled_real_polar_oracle(k):
    for state in BATTERY:
        _, sf = gns_standard_pipeline(k, as_table(state, k))
        # S(x xi) = x* xi over the left multiplications x = pi(g), which
        # span M; on the carrier coordinates x* is the conjugate transpose.
        V = np.array([x @ sf.xi for x in sf.rep]).T
        W = np.array([x.conj().T @ sf.xi for x in sf.rep]).T
        SA = np.linalg.lstsq(V.conj().T, W.T, rcond=None)[0].T
        j_real, _ = linalg.polar(_real_of_antilinear(SA))
        assert np.max(np.abs(j_real - _real_of_antilinear(sf.j))) < 1e-10, state


def _fourier_ranks(f):
    eig = {lam: np.linalg.eigvalsh((b + b.conj().T) / 2) for lam, b in fourier(f).items()}
    top = max(float(w.max()) for w in eig.values())
    return {lam: int(np.sum(w > 1e-9 * top)) for lam, w in eig.items()}


@pytest.mark.parametrize("k", range(6))
def test_gns_verify_structure_matches_fourier_ranks(k, tmp_path):
    """gns_dim, algebra_dim and central_support from the ranks r of the blocks."""
    # At k = 5, the point mass (the regular representation) and two specs.
    states = BATTERY if k < 5 else [StateFunction.delta(k), BATTERY[0], BATTERY[5]]
    for i, state in enumerate(states):
        spec = tmp_path / ("state%d.json" % i)
        if isinstance(state, StateFunction):
            spec.write_text(json.dumps({"level": k, "values": [[[], 1]]}))
        else:
            spec.write_text(json.dumps(state.to_json()))
        out = tmp_path / ("report%d.json" % i)
        assert cli.main(["gns-verify", str(spec), "--level", str(k), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        ranks = _fourier_ranks(as_table(state, k))
        dims = {lam: hook_dimension(lam) for lam in ranks}
        assert report["gns_dim"] == sum(dims[lam] * r for lam, r in ranks.items()), state
        assert report["algebra_dim"] == sum(dims[lam] ** 2 for lam, r in ranks.items() if r), state
        assert report["central_support"] == sorted(list(lam) for lam, r in ranks.items() if r), state


# One scaled entry of the two-sided action: (side, cycles, level).
BROKEN = [
    ("pi", [[1, 3]], 3),
    ("right", [[1, 3]], 3),
    ("pi", [[1, 3]], 4),
    ("pi", [[1, 3], [2, 4]], 4),
    ("right", [[1, 3]], 4),
    ("right", [[1, 3], [2, 4]], 4),
]


@pytest.mark.parametrize("side,cycles,k", BROKEN, ids=["%s-%s-k%d" % (s, "_".join("".join(map(str, c)) for c in cs), k) for s, cs, k in BROKEN])
def test_gns_verify_fails_on_a_broken_two_sided_action(monkeypatch, tmp_path, side, cycles, k):
    row = enumeration_rows(k)[Permutation.from_cycles([tuple(c) for c in cycles])]
    two_sided = gns_module._two_sided

    def broken(sf):
        stacks = dict(zip(("pi", "right"), two_sided(sf)))
        stacks[side][row] *= 1 + 1e-6
        return stacks["pi"], stacks["right"]

    monkeypatch.setattr(gns_module, "_two_sided", broken)
    spec = tmp_path / "cut2.json"
    spec.write_text(json.dumps({"n": 2, "lambda": [1, 1], "alpha": ["1/2"], "beta": ["1/4"]}))
    out = tmp_path / "report.json"
    assert cli.main(["gns-verify", str(spec), "--level", str(k), "--output", str(out)]) == 1
    assert json.loads(out.read_text())["ok"] is False


def test_gns_verify_fails_on_a_right_factor_outside_the_commutant(monkeypatch, tmp_path):
    # pi is a homomorphism, so R = pi passes every link, but pi(t_1) and
    # pi(t_2) do not commute: only j_commutant_residual sees it.
    def left_twice(sf):
        return sf.rep, sf.rep

    monkeypatch.setattr(gns_module, "_two_sided", left_twice)
    spec = tmp_path / "cut2.json"
    spec.write_text(json.dumps({"n": 2, "lambda": [1, 1], "alpha": ["1/2"], "beta": ["1/4"]}))
    out = tmp_path / "report.json"
    assert cli.main(["gns-verify", str(spec), "--level", "3", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    assert report["homomorphism_residual"] <= report["tol"] < report["j_commutant_residual"]
