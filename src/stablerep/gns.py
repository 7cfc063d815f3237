"""GNS construction, commutants and the standard form.

Everything here is finite dimensional linear algebra: states are given
by value tables on a truncated group, algebras by matrix bases that are
orthonormal for the trace inner product, and the modular conjugation is
J = U conj, where U is the unitary polar factor of the complex matrix SA
of the antilinear adjoint map S v = SA conj(v) (Haagerup 1975).

No Kronecker system is solved on the way from a state to its standard
form. The algebra M generated by the GNS representation of a finite
group is the span of the representing unitaries, which is already closed
under products and adjoints. In the standard form the carrier is M itself
and M acts by left multiplication (Haagerup 1975; Takesaki II, ch. IX).
commutant and double_commutant solve for the commutant and the generated
algebra numerically and serve as oracles.

gns_certificate computes here the certificate that gns-verify reports,
each property once, as four residuals (Frobenius norms): J^2 = 1
(j_squared, on the doubled real scale sqrt(2) ||U conj(U) - 1||); pi and
R = J pi(.) J^-1 send e to 1 and multiply along every link g -> g t_i of
the Coxeter generators t_i = (i i+1) (homomorphism); pi(t_i) and R(t_j)
commute (j_commutant: M is spanned by the products of the pi(t_i) and
J M J^-1 by the products of the R(t_j), so given both homomorphisms this
is J M J^-1 inside M', and (g, h) -> pi(g) R(h) is a representation of
S_k x S_k); and ad(t_i) = pi(t_i) R(t_i) conjugating pi(t_j) to
pi(t_i t_j t_i) (ad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fourier import StateFunction, check_finite, check_hermitian, gram_matrix, hermitian_part
from .characters import class_representative
from .induction import character_inner
from .partitions import partitions_of
from .permutations import Permutation, element_row, product_table, transposition


# ---------------------------------------------------------------------------
# GNS construction from a state on a truncated group.


@dataclass
class GnsTriple:
    """Cyclic representation of S_level built from a positive definite state.

    rep is the (level!, d, d) stack of unitaries on the carrier in Lehmer
    order (permutations.group_words); xi is the cyclic vector, and
    <xi, image(g) xi> returns the state value.
    """

    level: int
    rep: np.ndarray
    xi: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.xi)

    def image(self, g: Permutation) -> np.ndarray:
        return self.rep[element_row(g, self.level)]

    def coefficient(self, g: Permutation) -> complex:
        return complex(np.vdot(self.xi, self.image(g) @ self.xi))

    def generators(self) -> list[np.ndarray]:
        return [self.image(transposition(i, i + 1)) for i in range(1, self.level)]


# A Gram eigenvalue below -GRAM_NEGATIVE_TOL max(f(e), 1) rejects the state
# as not positive; the carrier keeps eigenvalues above CARRIER_CUT relative
# to the largest (and above it absolutely).
GRAM_NEGATIVE_TOL = 1e-9
CARRIER_CUT = 1e-10


def gns(k: int, f: StateFunction) -> GnsTriple:
    """Carrier, representation and cyclic vector for the state f on S_k.

    The carrier is the column space of the Gram matrix [f(g^-1 h)]; the
    representation permutes Gram columns. Input not hermitian on S_k is
    rejected, and non positive input with the violating eigenvalue.
    """
    if f.level < k:
        raise ValueError(f"state of level {f.level} cannot induce S_{k}")
    check_hermitian(f.restrict(k))
    G = hermitian_part(gram_matrix(f, k))
    w, V = np.linalg.eigh(G)
    check_finite([w], "a Gram eigenvalue")
    f_e = G[0, 0].real  # row 0 is e
    if w[0] < -GRAM_NEGATIVE_TOL * max(f_e, 1.0):
        raise ValueError(f"state is not positive definite (eigenvalue {w[0]:.3e})")
    keep = w > max(CARRIER_CUT * max(w[-1], 0.0), CARRIER_CUT)
    if not keep.any() or f_e <= 0:
        # A positive definite f with f(e) <= 0 is 0; a carrier left then is rounding.
        raise ValueError(f"state vanishes on S_{k}: its GNS carrier is empty")
    B = (V[:, keep] * np.sqrt(w[keep])).conj().T
    pinv = np.linalg.pinv(B)
    # Row r of the product table lists the columns g_r h for h in S_k; row 0 is e.
    rep = np.array([B[:, cols] @ pinv for cols in product_table(k)])
    return GnsTriple(k, rep, B[:, 0].copy())


# ---------------------------------------------------------------------------
# Commutants in the trace inner product.

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


def _span_basis(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of span(mats) in the trace inner product.

    The rank is cut at RANK_TOL, as in commutant. For the images of a
    unitary group representation the span is the generated algebra: it
    holds 1 and is closed under products and adjoints.
    """
    mats = np.asarray(mats, dtype=complex)
    _, s, vh = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    return [v.reshape(mats.shape[1:]) for v in vh[s > RANK_TOL * max(s[0], 1.0)]]


def subspace_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Operator norm distance between the two spanned subspaces' projections."""
    def projector(mats):
        q = np.array([v.reshape(-1) for v in _span_basis(mats)])
        return q.T @ q.conj()

    return float(np.linalg.norm(projector(a) - projector(b), 2))


# ---------------------------------------------------------------------------
# Standard form.


@dataclass
class StandardForm:
    """A von Neumann algebra in standard position with its modular conjugation.

    The carrier is the algebra itself with the inner product of a
    faithful state; basis holds the original (trace orthonormal) matrix
    basis, and embed writes an element as left multiplication on the
    carrier. The modular conjugation is J v = j @ conj(v): j is the unitary
    polar factor of the complex matrix of S, so J^2 = j conj(j) and
    J X J^-1 = j conj(X) j^H.
    """

    basis: tuple[np.ndarray, ...]
    xi: np.ndarray
    j: np.ndarray
    _whalf: np.ndarray
    _winvhalf: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.xi)

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.array(self.basis)

    def embed(self, m: np.ndarray) -> np.ndarray:
        """Left multiplication by m (an operator on the original carrier)."""
        m = np.asarray(m, dtype=complex)
        return self._whalf @ _coefficients(self._stack, m @ self._stack) @ self._winvhalf

    def conjugate_by_j(self, X: np.ndarray) -> np.ndarray:
        """J X J^-1 = U conj(X) U^H, a complex linear map again."""
        return self.j @ np.conj(X) @ self.j.conj().T


def _coefficients(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """[<b_i, mats[j]>] for stacked basis and matrices: column j holds mats[j]'s coefficients."""
    return basis.reshape(len(basis), -1).conj() @ mats.reshape(len(mats), -1).T


def _hermitian_root(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(hermitian_part(W))
    root = V @ np.diag(np.sqrt(w)) @ V.conj().T
    inv_root = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return root, inv_root


# Smallest Gram eigenvalue at which standard_form takes a state as faithful.
FAITHFUL_FLOOR = 1e-12


def standard_form(algebra_basis: Sequence[np.ndarray], density: np.ndarray) -> StandardForm:
    """Standard form of the algebra with respect to the state tr(density x).

    The state must be faithful on the algebra: the Gram matrix of the
    basis in the state inner product has to be at least FAITHFUL_FLOOR,
    and its smallest eigenvalue is reported when rejecting.
    """
    basis = tuple(np.asarray(b, dtype=complex) for b in algebra_basis)
    density = np.asarray(density, dtype=complex)
    stack = np.array(basis)
    # tr(density b_i* b_j) = <b_i, b_j density>
    W = hermitian_part(_coefficients(stack, stack @ density))
    wmin = float(np.linalg.eigvalsh(W)[0])
    if wmin < FAITHFUL_FLOOR:
        raise ValueError(f"state is not faithful on the algebra (Gram eigenvalue {wmin:.3e})")
    whalf, winvhalf = _hermitian_root(W)

    # <b_i, 1> = conj(tr b_i)
    xi = whalf @ np.trace(stack, axis1=1, axis2=2).conj()

    # The adjoint map x -> x* in basis coefficients: S v = SA conj(v) on the
    # carrier. With SA = U P (polar), S = (U conj)(conj P) and J = U conj;
    # from the SVD SA = W diag(s) Vh, U = W Vh.
    A = _coefficients(stack, stack.transpose(0, 2, 1).conj())
    SA = whalf @ A @ np.conj(winvhalf)
    w, _, vh = np.linalg.svd(SA)
    j = w @ vh

    return StandardForm(basis=basis, xi=xi, j=j, _whalf=whalf, _winvhalf=winvhalf)


# Weight of the normalized carrier trace in the faithful state of
# gns_standard_pipeline.
TRACE_WEIGHT = 1e-3


def gns_standard_pipeline(
    k: int, f: StateFunction
) -> tuple[GnsTriple, list[np.ndarray], StandardForm]:
    """GNS representation, generated algebra, and its standard form.

    The generated algebra is the span of the representing unitaries.
    The standard form needs a faithful state; the GNS state itself may
    fail that, so it is normalized and mixed with the normalized carrier
    trace: phi = (1 - TRACE_WEIGHT) <xi, . xi> / f(e) + TRACE_WEIGHT tr(.)/dim.
    """
    triple = gns(k, f)
    M = _span_basis(triple.rep)
    d = triple.dimension
    xi_state = np.outer(triple.xi, triple.xi.conj()) / f.vector[0].real  # row 0 is e
    density = (1 - TRACE_WEIGHT) * xi_state + TRACE_WEIGHT * np.eye(d) / d
    sf = standard_form(M, density)
    return triple, M, sf


# ---------------------------------------------------------------------------
# The standard form certificate of gns-verify.


def _two_sided(sf: StandardForm, rep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacks pi (rep embedded in the standard form) and R = J pi J^-1, row for row."""
    pi = np.array([sf.embed(m) for m in rep])
    return pi, sf.conjugate_by_j(pi)


def gns_certificate(k: int, f: StateFunction) -> dict:
    """The numbers of a gns-verify report on the standard form of f on S_k.

    They are the carrier and algebra dimensions of gns_standard_pipeline,
    the central support, and the four residuals of the module doc. Raises
    ValueError where gns_standard_pipeline does.
    """
    triple, _, sf = gns_standard_pipeline(k, f)
    pi, right = _two_sided(sf, triple.rep)
    eye = np.eye(sf.dimension)

    # rho in {pi, right} is a homomorphism exactly when rho(e) = 1 and
    # rho(g t) = rho(g) rho(t) for every g and adjacent transposition t
    # (induction on word length). Row 0 is e, and row prod[g, t] is g t.
    prod = product_table(k)
    gens = [element_row(transposition(i, i + 1), k) for i in range(1, k)]
    hom = 0.0
    for rho in (pi, right):
        hom = max(hom, float(np.linalg.norm(rho[0] - eye)))
        for t in gens:
            hom = max(hom, *(float(np.linalg.norm(x)) for x in rho[prod[:, t]] - rho @ rho[t]))
    # Then M and J M J^-1 are spanned by the products of the pi(t_i) and of
    # the R(t_j), so J M J^-1 lies in M' exactly when the generators commute.
    jmj = ad = 0.0
    for s in gens:
        a = pi[s] @ right[s]
        a_inv = np.linalg.inv(a)
        for t in gens:
            jmj = max(jmj, float(np.linalg.norm(pi[s] @ right[t] - right[t] @ pi[s])))
            ad = max(ad, float(np.linalg.norm(a @ pi[t] @ a_inv - pi[prod[prod[s, t], s]])))

    return {
        "gns_dim": triple.dimension,
        "algebra_dim": len(sf.basis),
        "central_support": sorted(central_support(triple.rep, k)),
        # The norm of J^2 - 1 on doubled real coordinates.
        "j_squared_residual": math.sqrt(2) * float(np.linalg.norm(sf.j @ sf.j.conj() - eye)),
        "j_commutant_residual": jmj,
        "homomorphism_residual": hom,
        "ad_residual": ad,
    }


# ---------------------------------------------------------------------------
# Central supports of finite representations, for quasi-equivalence checks.


# Largest distance from an integer that central_support accepts in a
# multiplicity computed in floating point.
MULTIPLICITY_TOL = 1e-6


def central_support(rep: np.ndarray, k: int) -> frozenset[tuple[int, ...]]:
    """Set of shapes with nonzero multiplicity in a representation of S_k.

    rep is the stack of its k! matrices in Lehmer order.
    Multiplicities are induction.character_inner of the traces on the
    class representatives, exact over those float traces; they must land
    within MULTIPLICITY_TOL of nonnegative integers or the input was not a
    representation.
    """
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
