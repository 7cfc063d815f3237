"""GNS construction, commutants, and the finite standard form.

The library builds them block by block; the dense views GnsTriple.image(g)
and StandardForm.j, and the dense pipeline of gns_oracles, let these tests
check the blocks against oracles at small levels.
"""

import importlib
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg

from stablerep import cli
from stablerep.canonical import CanonicalState
from stablerep.characters import mn_character
from stablerep.fourier import StateFunction, fourier
from stablerep.gns import central_support, gns, gns_certificate, gns_standard_pipeline
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import IDENTITY, Permutation, symmetric_group, transposition
from stablerep.stability import as_table
from stablerep.thoma import ThomaParams
from stablerep.yor import irrep_matrix

import gns_oracles
from gns_oracles import commutant, dense_gns, double_commutant, subspace_distance
from test_acceptance import BATTERY
from test_index_layer import enumeration_rows

F = Fraction
# The package rebinds the name gns to the function, so fetch the module.
gns_module = importlib.import_module("stablerep.gns")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def stack(triple):
    """The dense pi(g) of a triple over symmetric_group order, which is rank order."""
    return np.array([triple.image(g) for g in symmetric_group(triple.level)])


def two_sided(sf):
    """The stacks pi and R = J pi J^-1 on the standard form carrier, row for row."""
    pi = stack(sf)
    return pi, sf.conjugate_by_j(pi)


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
    # on M = M_2. The standard form's carrier is M itself, of dimension 4.
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
    pi, right = two_sided(sf)
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
    algebra = list(stack(sf))
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
    pi, right = two_sided(sf)
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
    for left in stack(sf):
        for m in stack(sf):
            right = sf.conjugate_by_j(m)
            assert np.linalg.norm(left @ right - right @ left) < 1e-9


def test_central_support_of_explicit_sum():
    # The character-sum support of a stack, the oracle of the block support.
    rep = np.array([
        np.block(
            [
                [irrep_matrix((3,), g), np.zeros((1, 2))],
                [np.zeros((2, 1)), irrep_matrix((2, 1), g)],
            ]
        )
        for g in symmetric_group(3)
    ])
    assert gns_oracles.central_support(rep, 3) == frozenset({(3,), (2, 1)})
    with pytest.raises(ValueError):
        bad = rep.copy()
        bad[enumeration_rows(3)[IDENTITY]] *= 1.5
        gns_oracles.central_support(bad, 3)


def test_central_support_matches_between_sides():
    k = 3
    state = CanonicalState(2, (1, 1), ThomaParams(alpha=(F(1, 2), F(1, 4))))
    triple, sf = gns_standard_pipeline(k, as_table(state, k))
    support = gns_oracles.central_support(stack(sf), k)
    assert support == gns_oracles.central_support(stack(triple), k) == central_support(triple)


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
        rep = stack(triple)
        by_element = dict(zip(symmetric_group(k), rep))
        assert central_support(triple) == _central_support_oracle(by_element, k), state
        assert gns_oracles.central_support(rep, k) == central_support(triple), state


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
    assert subspace_distance(stack(sf), algebra) < 1e-9


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
    for a in stack(sf):
        for r in right:
            assert np.linalg.norm(a @ r - r @ a) < 1e-10
    assert subspace_distance(right, commutant(sf.generators())) < 1e-9


def test_gns_rep_equals_the_permutation_loop():
    # The dense oracle's stack, row by row.
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
            triple = dense_gns(k, f)
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


def _real_of_antilinear(C):
    # The map v -> C conj(v), written on stacked (Re v, Im v).
    return np.block([[C.real, C.imag], [C.imag, -C.real]])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_j_matches_the_doubled_real_polar_oracle(k):
    for state in BATTERY:
        _, sf = gns_standard_pipeline(k, as_table(state, k))
        # S(x xi) = x* xi over the left multiplications x = pi(g), which
        # span M; on the carrier coordinates x* is the conjugate transpose.
        V = np.array([x @ sf.xi for x in stack(sf)]).T
        W = np.array([x.conj().T @ sf.xi for x in stack(sf)]).T
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


# The inputs the block certificate is checked on against the dense pipeline:
# both golden inputs, the battery, and four tables that gns refuses at some
# level: zero, not positive, zero at e, and not hermitian past S_2.
DENSE_INPUTS = {
    "spec_cut2": cli._load_state(str(GOLDEN / "spec_cut2.json")),
    "table_cut1_l6": cli._load_state(str(GOLDEN / "table_cut1_l6.json")),
    **{"battery%d" % i: state for i, state in enumerate(BATTERY)},
    "zero": StateFunction(4, {}),
    "sign-negated": StateFunction.from_callable(4, lambda g: -g.sign),
    "f_e-zero": StateFunction(4, {transposition(1, 2): 5e-10}),
    "not-hermitian": StateFunction(4, {IDENTITY: 1.0, Permutation.from_cycles([[1, 2, 3]]): 0.5}),
}


def _outcome(build, k, f):
    """build(k, f), or the class of the error it refuses f with."""
    try:
        return build(k, f)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", DENSE_INPUTS)
def test_block_certificate_matches_the_dense_oracle(name):
    for k in range(5):
        f = as_table(DENSE_INPUTS[name], k)
        cert = _outcome(gns_certificate, k, f)
        dense = _outcome(gns_oracles.dense_standard_form, k, f)
        if isinstance(cert, type) or isinstance(dense, type):
            assert cert == dense, (name, k)
            continue
        triple, sf = dense
        assert cert["gns_dim"] == triple.dimension, (name, k)
        assert cert["algebra_dim"] == sf.dimension, (name, k)
        assert cert["central_support"] == sorted(gns_oracles.central_support(triple.rep, k))
        assert max(cert["homomorphism_residual"], cert["state_residual"]) <= 1e-12, (name, k)
        assert max(gns_oracles.dense_residuals(sf).values()) < 1e-8, (name, k)


def _scaled_generator(monkeypatch):
    # rho_(3,1)(t_1) off by 1e-6: t_1^2 = 1 fails.
    generators = gns_module.yor_generators

    def broken(lam):
        gens = generators(lam)
        return (gens[0] * (1 + 1e-6), *gens[1:]) if lam == (3, 1) else gens

    monkeypatch.setattr(gns_module, "yor_generators", broken)


def _broken_block(change):
    # The triple of gns with change applied to xi_(3,1).
    def patch(monkeypatch):
        build = gns_module.gns

        def broken(k, f):
            triple = build(k, f)
            triple.blocks[(3, 1)] = change(triple.blocks[(3, 1)])
            return triple

        monkeypatch.setattr(gns_module, "gns", broken)
    return patch


BLOCK_MUTANTS = {
    "scaled-generator": (_scaled_generator, "homomorphism_residual"),
    # r_(3,1) one short: the last, largest, kept eigenvalue is dropped.
    "dropped-eigenvalue": (_broken_block(lambda x: x[:, :-1]), "state_residual"),
    "scaled-xi": (_broken_block(lambda x: x * (1 + 1e-6)), "state_residual"),
}


@pytest.mark.parametrize("mutant", BLOCK_MUTANTS)
def test_gns_verify_fails_on_a_broken_block(monkeypatch, tmp_path, mutant):
    patch, residual = BLOCK_MUTANTS[mutant]
    patch(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["gns-verify", str(GOLDEN / "spec_cut2.json"), "--level", "4", "--output", str(out)]
    assert cli.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False and report[residual] > report["tol"]
