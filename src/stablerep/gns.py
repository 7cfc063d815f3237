"""GNS construction and the standard form.

Everything here is finite dimensional linear algebra: states are given
by value tables on a truncated group, and representations by stacks of
k! unitaries in Lehmer order.

No Kronecker system is solved on the way from a state to its standard
form. The algebra M generated by the GNS representation pi of a finite
group is the span of the pi(g). Its standard form with respect to a
faithful state phi is L^2(M, phi) (Haagerup 1975; Takesaki II, ch. IX),
which is the GNS space of the state phi o pi of the group: one more call
of gns builds it. The modular conjugation is J = U conj, where U is the
unitary polar factor of the complex matrix SA of the antilinear adjoint
map S v = SA conj(v).

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

import numpy as np

from .fourier import StateFunction, check_finite, check_hermitian, gram_matrix, hermitian_part
from .characters import class_representative
from .induction import character_inner
from .partitions import partitions_of
from .permutations import Permutation, element_row, inverse_map, product_table, transposition


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


# A Gram eigenvalue below -GRAM_NEGATIVE_TOL f(e) rejects the state as not
# positive; the carrier keeps eigenvalues above CARRIER_CUT relative to the
# largest. Both cuts scale with the state.
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
    if f_e == 0:
        # A positive definite f with f(e) = 0 is 0; a carrier left then is rounding.
        raise ValueError(f"state vanishes on S_{k}: its GNS carrier is empty")
    # With f(e) < 0 the cut is positive and w[0] <= f(e) lies below it.
    if w[0] < -GRAM_NEGATIVE_TOL * f_e:
        raise ValueError(f"state is not positive definite (eigenvalue {w[0]:.3e})")
    keep = w > CARRIER_CUT * w[-1]
    B = (V[:, keep] * np.sqrt(w[keep])).conj().T
    pinv = np.linalg.pinv(B)
    # Row r of the product table lists the columns g_r h for h in S_k; row 0 is e.
    rep = np.array([B[:, cols] @ pinv for cols in product_table(k)])
    return GnsTriple(k, rep, B[:, 0].copy())


# ---------------------------------------------------------------------------
# Standard form.


@dataclass
class StandardForm(GnsTriple):
    """M = span pi(S_k) on L^2(M, phi), phi faithful: the GNS triple of phi o pi.

    The modular conjugation is J v = j @ conj(v), so J^2 = j conj(j) and
    J X J^-1 = j conj(X) j^H.
    """

    j: np.ndarray

    def conjugate_by_j(self, X: np.ndarray) -> np.ndarray:
        """J X J^-1 = j conj(X) j^H, a complex linear map again (X may be a stack)."""
        return self.j @ np.conj(X) @ self.j.conj().T


# Weight of the normalized carrier trace in the faithful state phi.
TRACE_WEIGHT = 1e-3


def gns_standard_pipeline(k: int, f: StateFunction) -> tuple[GnsTriple, StandardForm]:
    """The GNS triple of f on S_k and the standard form of the algebra M it generates.

    The GNS state may not be faithful on M, so the standard form takes
    phi = (1 - TRACE_WEIGHT) <xi, . xi> / |xi|^2 + TRACE_WEIGHT tr(.)/dim,
    faithful through its trace part. psi = phi o pi is f/f(e) (as the
    triple represents it) mixed with the normalized character of pi, and
    the carrier of its GNS triple has dimension dim M. S sends the vector
    of g to that of g^-1, so with V holding the carrier vectors of the
    group as columns, S v = SA conj(v) for SA = V[:, inverse] conj(V)^+;
    j is the unitary polar factor of SA, taken from its SVD.
    """
    triple = gns(k, f)
    state = triple.rep @ triple.xi @ triple.xi.conj() / np.vdot(triple.xi, triple.xi).real
    trace = np.trace(triple.rep, axis1=1, axis2=2) / triple.dimension
    psi = gns(k, StateFunction.from_vector(k, (1 - TRACE_WEIGHT) * state + TRACE_WEIGHT * trace))
    V = (psi.rep @ psi.xi).T
    u, _, vh = np.linalg.svd(V[:, inverse_map(k)] @ np.linalg.pinv(V.conj()))
    return triple, StandardForm(k, psi.rep, psi.xi, u @ vh)


# ---------------------------------------------------------------------------
# The standard form certificate of gns-verify.


def _two_sided(sf: StandardForm) -> tuple[np.ndarray, np.ndarray]:
    """The stacks pi and R = J pi J^-1 on the standard form carrier, row for row."""
    return sf.rep, sf.conjugate_by_j(sf.rep)


def gns_certificate(k: int, f: StateFunction) -> dict:
    """The numbers of a gns-verify report on the standard form of f on S_k.

    They are the carrier and algebra dimensions of gns_standard_pipeline,
    the central support, and the four residuals of the module doc. Raises
    ValueError where gns_standard_pipeline does.
    """
    triple, sf = gns_standard_pipeline(k, f)
    pi, right = _two_sided(sf)
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
        "algebra_dim": sf.dimension,
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
