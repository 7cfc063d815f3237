"""Oracles for the GNS tests: commutants, and the dense pipeline.

The commutants solve the Kronecker system X A = A X on vec(X) directly,
which the library's own path from a state to its standard form never does,
so a test can check the algebra that path builds against them. The dense
pipeline builds the GNS triple, the standard form and the central support
from stacks of k! matrices, which the library's block path never holds; it
is the oracle for that path at small levels.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from stablerep.characters import class_representative
from stablerep.fourier import (StateFunction, check_finite, check_hermitian, gram_matrix,
                               hermitian_part)
from stablerep.gns import CARRIER_CUT, GRAM_NEGATIVE_TOL
from stablerep.induction import character_inner
from stablerep.partitions import partitions_of
from stablerep.permutations import element_row, inverse_map, product_table, transposition

# Relative singular value cut for the rank of a span or a null space.
RANK_TOL = 1e-9


def commutant(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of {X : XA = AX for all A in mats}.

    Solved as one linear system on vec(X); the basis is orthonormal for
    the trace inner product.
    """
    if len(mats) == 0:
        raise ValueError("commutant of an empty set is everything; pass the identity")
    mats = [np.asarray(m, dtype=complex) for m in mats]
    d = mats[0].shape[0]
    eye = np.eye(d)
    rows = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in mats])
    if rows.shape[0] < d * d:
        # Right singular vectors must span all of the d^2 unknowns.
        pad = np.zeros((d * d - rows.shape[0], d * d), dtype=complex)
        rows = np.vstack([rows, pad])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    null = vh[s < RANK_TOL * max(s[0], 1.0)].conj()
    return [v.reshape(d, d) for v in null]


def double_commutant(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the von Neumann algebra generated by mats."""
    return commutant(commutant(mats))


def subspace_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Operator norm distance between the orthogonal projections onto span(a) and span(b).

    Each span's rank is cut at RANK_TOL, as in commutant.
    """
    def projector(mats):
        mats = np.array([np.ravel(m) for m in mats], dtype=complex)
        _, s, vh = np.linalg.svd(mats, full_matrices=False)
        q = vh[s > RANK_TOL * max(s[0], 1.0)]
        return q.T @ q.conj()

    return float(np.linalg.norm(projector(a) - projector(b), 2))


# ---------------------------------------------------------------------------
# The dense pipeline: the GNS triple from the k! x k! Gram matrix, the
# standard form as the GNS triple of a faithful state phi o pi with J the
# polar factor of the adjoint map, its residuals, and the central support
# from character sums over a stack of k! matrices.


@dataclass
class DenseTriple:
    """rep is the (k!, d, d) stack of pi in rank order (the order of
    symmetric_group(k)) and xi the cyclic vector; a standard form has j,
    the modular conjugation J v = j conj(v)."""

    level: int
    rep: np.ndarray
    xi: np.ndarray
    j: Optional[np.ndarray] = None

    @property
    def dimension(self) -> int:
        return len(self.xi)


def dense_gns(k, f):
    """The carrier is the column space of the Gram matrix [f(g^-1 h)]; pi
    permutes Gram columns. Refuses what stablerep.gns.gns refuses."""
    if f.level < k:
        raise ValueError(f"state of level {f.level} cannot induce S_{k}")
    check_hermitian(f.restrict(k))
    G = hermitian_part(gram_matrix(f, k))
    w, V = np.linalg.eigh(G)
    check_finite([w], "a Gram eigenvalue")
    f_e = G[0, 0].real  # row 0 is e
    if f_e == 0:
        raise ValueError(f"state vanishes on S_{k}: its GNS carrier is empty")
    if w[0] < -GRAM_NEGATIVE_TOL * f_e:
        raise ValueError(f"state is not positive definite (eigenvalue {w[0]:.3e})")
    keep = w > CARRIER_CUT * w[-1]
    B = (V[:, keep] * np.sqrt(w[keep])).conj().T
    pinv = np.linalg.pinv(B)
    # Row r of the product table lists the columns g_r h for h in S_k; row 0 is e.
    return DenseTriple(k, np.array([B[:, cols] @ pinv for cols in product_table(k)]),
                       B[:, 0].copy())


# Weight of the normalized carrier trace in the faithful state phi.
TRACE_WEIGHT = 1e-3


def dense_standard_form(k, f):
    """The GNS triple of f and the standard form of the algebra M it generates.

    phi = (1 - TRACE_WEIGHT) <xi, . xi> / |xi|^2 + TRACE_WEIGHT tr(.)/dim is
    faithful on M, and the GNS carrier of phi o pi has dimension dim M. S
    sends the carrier vector of g to that of g^-1, so with V holding them as
    columns, S v = SA conj(v) for SA = V[:, inverse] conj(V)^+; j is the
    unitary polar factor of SA, from its SVD.
    """
    triple = dense_gns(k, f)
    state = triple.rep @ triple.xi @ triple.xi.conj() / np.vdot(triple.xi, triple.xi).real
    trace = np.trace(triple.rep, axis1=1, axis2=2) / triple.dimension
    psi = dense_gns(k, StateFunction.from_vector(
        k, (1 - TRACE_WEIGHT) * state + TRACE_WEIGHT * trace))
    V = (psi.rep @ psi.xi).T
    u, _, vh = np.linalg.svd(V[:, inverse_map(k)] @ np.linalg.pinv(V.conj()))
    return triple, DenseTriple(k, psi.rep, psi.xi, u @ vh)


def dense_residuals(sf):
    """J^2 = 1 (on doubled real coordinates), pi and R = J pi J^-1 multiplying
    along every link g -> g t_i, pi(t_i) and R(t_j) commuting, and
    pi(t_i) R(t_i) conjugating pi(t_j) to pi(t_i t_j t_i): Frobenius norms."""
    k, pi = sf.level, sf.rep
    right = sf.j @ np.conj(pi) @ sf.j.conj().T
    eye = np.eye(sf.dimension)
    prod = product_table(k)
    gens = [element_row(transposition(i, i + 1), k) for i in range(1, k)]
    hom = 0.0
    for rho in (pi, right):
        hom = max(hom, float(np.linalg.norm(rho[0] - eye)))
        for t in gens:
            hom = max(hom, *(float(np.linalg.norm(x)) for x in rho[prod[:, t]] - rho @ rho[t]))
    jmj = ad = 0.0
    for s in gens:
        a = pi[s] @ right[s]
        a_inv = np.linalg.inv(a)
        for t in gens:
            jmj = max(jmj, float(np.linalg.norm(pi[s] @ right[t] - right[t] @ pi[s])))
            ad = max(ad, float(np.linalg.norm(a @ pi[t] @ a_inv - pi[prod[prod[s, t], s]])))
    return {"j_squared_residual": math.sqrt(2) * float(np.linalg.norm(sf.j @ sf.j.conj() - eye)),
            "homomorphism_residual": hom, "j_commutant_residual": jmj, "ad_residual": ad}


# Largest distance from an integer that central_support accepts in a
# multiplicity computed in floating point.
MULTIPLICITY_TOL = 1e-6


def central_support(rep, k):
    """Shapes with nonzero multiplicity in the representation whose k!
    matrices in rank order are rep: character_inner of its traces on the
    class representatives, which must land within MULTIPLICITY_TOL of
    nonnegative integers or the input was not a representation."""
    traces = {mu: np.trace(rep[element_row(class_representative(mu), k)]).real
              for mu in partitions_of(k)}
    out = set()
    for lam in partitions_of(k):
        mult = character_inner(traces, lam, k)
        if abs(mult - round(mult)) > MULTIPLICITY_TOL or round(mult) < 0:
            raise ValueError(f"multiplicity of {lam} is {float(mult)}, not a nonnegative integer")
        if round(mult) > 0:
            out.add(lam)
    return frozenset(out)
