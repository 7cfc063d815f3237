"""GNS construction and the standard form, block by block.

A state f on S_k has the Fourier blocks F_lam = sum_g f(g) rho_lam(g)
(fourier.fourier), hermitian, and positive semidefinite for every lam
exactly when f is positive definite. Write conj(F_lam) / f(e) =
(k!/d_lam) xi_lam xi_lam^H with xi_lam of size d_lam x r_lam, r_lam =
rank F_lam, from one eigh per block. The inversion formula f(g) =
sum_lam (d_lam/k!) tr(rho_lam(g) F_lam^T) then reads f(g)/f(e) = sum_lam
tr(xi_lam^H rho_lam(g) xi_lam) = <xi, pi(g) xi>, where pi(g) multiplies
each xi_lam on the left by rho_lam(g). So pi = (+)_lam rho_lam (x) C^{r_lam}
is the GNS representation of f with cyclic vector xi = (xi_lam), and gns
stores the xi_lam only: no Gram matrix, no matrix of pi(g).

As rho_lam(S_k) spans M_{d_lam}, and inequivalent irreducibles are
independent, pi(S_k) generates M = (+)_{r_lam > 0} M_{d_lam}. Its standard
form (Haagerup 1975; Takesaki II, ch. IX) is M acting on itself by left
multiplication, with the Hilbert-Schmidt inner product, J X = X^H and the
positive matrices as the cone: the GNS space of the faithful trace of M.
There J^2 = 1; J a J^-1 X = X a^H is right multiplication, and the right
multiplications of a full matrix algebra on itself are the commutant of
its left ones, block by block, so J M J^-1 = M'; J z J^-1 = z^* on the
center; and a J a J^-1 X = a X a^H keeps the cone. Each holds by
construction, as does the ad relation: pi(g) J pi(g) J^-1 X = rho(g) X
rho(g)^-1 conjugates pi(h) to pi(g h g^-1) wherever rho is a homomorphism.

gns_certificate reports what can still fail: that each rho_lam of the
support satisfies the Coxeter relations of S_k, which present S_k, on
yor.yor_generators (homomorphism_residual), and that the blocks give f
back, max_g |<xi, pi(g) xi> - f(g)/f(e)| from one inverse_fourier
(state_residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (FourierBlocks, StateFunction, check_hermitian, fourier, hermitian_part,
                      inverse_fourier)
from .permutations import Permutation, transposition
from .yor import irrep_matrix, yor_generators


@dataclass
class GnsTriple:
    """Cyclic representation pi = (+)_lam rho_lam (x) C^{r_lam} of S_level.

    blocks maps every shape lam of weight level to xi_lam, d_lam x r_lam
    (r_lam may be 0), and pi(g) multiplies xi_lam on the left by
    rho_lam(g) (yor.irrep_matrix). The dense views below, built on demand
    for small levels, hold the carrier as the columns of the xi_lam in
    turn; <xi, image(g) xi> returns f(g)/f(e).
    """

    level: int
    blocks: dict[tuple[int, ...], np.ndarray]

    @property
    def dimension(self) -> int:
        return sum(x.size for x in self.blocks.values())

    @property
    def xi(self) -> np.ndarray:
        return np.concatenate([x.ravel(order="F") for x in self.blocks.values()])

    def image(self, g: Permutation) -> np.ndarray:
        """pi(g): r_lam copies of rho_lam(g) down the diagonal, shape after shape."""
        out = np.zeros((self.dimension, self.dimension))
        at = 0
        for lam, x in self.blocks.items():
            rho = irrep_matrix(lam, g)
            for _ in range(x.shape[1]):
                out[at:at + len(rho), at:at + len(rho)] = rho
                at += len(rho)
        return out

    def coefficient(self, g: Permutation) -> complex:
        return complex(np.vdot(self.xi, self.image(g) @ self.xi))

    def generators(self) -> list[np.ndarray]:
        return [self.image(transposition(i, i + 1)) for i in range(1, self.level)]


# A block eigenvalue (an eigenvalue of the Gram matrix [f(g^-1 h)] too)
# below -GRAM_NEGATIVE_TOL f(e) rejects the state as not positive; the
# carrier keeps eigenvalues above CARRIER_CUT relative to the largest of
# all blocks. Both cuts scale with the state.
GRAM_NEGATIVE_TOL = 1e-9
CARRIER_CUT = 1e-10


def gns(k: int, f: StateFunction) -> GnsTriple:
    """The blocks xi_lam of the GNS triple of f/f(e) on S_k.

    Input not hermitian on S_k is rejected, and non positive input with
    the violating eigenvalue.
    """
    if f.level < k:
        raise ValueError(f"state of level {f.level} cannot induce S_{k}")
    f = f.restrict(k)
    check_hermitian(f)
    blocks = fourier(f)
    f_e = f.vector[0].real  # row 0 is e
    if f_e == 0:
        # A positive definite f with f(e) = 0 is 0; a carrier left then is rounding.
        raise ValueError(f"state vanishes on S_{k}: its GNS carrier is empty")
    eig = {lam: np.linalg.eigh(hermitian_part(b)) for lam, b in blocks.items()}
    # f(e) is a weighted mean of the eigenvalues, so with f(e) < 0 the cut is
    # positive and the least eigenvalue lies below it.
    low = min(w[0] for w, _ in eig.values())
    if low < -GRAM_NEGATIVE_TOL * f_e:
        raise ValueError(f"state is not positive definite (eigenvalue {low:.3e})")
    top = max(w[-1] for w, _ in eig.values())
    fact = math.factorial(k)
    xi = {}
    for lam, (w, V) in eig.items():
        keep = w > CARRIER_CUT * top
        xi[lam] = V[:, keep].conj() * np.sqrt(w[keep] / f_e * (len(w) / fact))
    return GnsTriple(k, xi)


def central_support(triple: GnsTriple) -> frozenset[tuple[int, ...]]:
    """The shapes lam with r_lam > 0, the irreducibles that pi contains."""
    return frozenset(lam for lam, x in triple.blocks.items() if x.shape[1])


# ---------------------------------------------------------------------------
# Standard form.


class StandardForm(GnsTriple):
    """M = (+)_{r_lam > 0} M_{d_lam} acting on itself: the GNS triple of the
    normalized trace of M, whose blocks are sqrt(d_lam / dim M) 1.

    J X = X^H block by block is J v = j conj(v) on the dense carrier, with
    j the permutation that transposes each block, so J^2 = j conj(j) and
    J X J^-1 = j conj(X) j^H.
    """

    @property
    def j(self) -> np.ndarray:
        order, at = [], 0
        for x in self.blocks.values():
            d = x.shape[1]
            # Column-major, entry (a, b) of a block is a + b d; X^T puts (b, a) there.
            order.append(at + np.arange(d * d).reshape(d, d).T.ravel())
            at += d * d
        return np.eye(self.dimension)[np.concatenate(order)]

    def conjugate_by_j(self, X: np.ndarray) -> np.ndarray:
        """J X J^-1 = j conj(X) j^H, a complex linear map again (X may be a stack)."""
        j = self.j
        return j @ np.conj(X) @ j.T


def gns_standard_pipeline(k: int, f: StateFunction) -> tuple[GnsTriple, StandardForm]:
    """The GNS triple of f on S_k and the standard form of the algebra M it generates."""
    triple = gns(k, f)
    support = central_support(triple)
    size = sum(len(triple.blocks[lam]) ** 2 for lam in support)
    return triple, StandardForm(k, {
        lam: np.sqrt(len(x) / size) * np.eye(len(x), len(x) if lam in support else 0)
        for lam, x in triple.blocks.items()})


# ---------------------------------------------------------------------------
# The certificate of gns-verify.


def _coxeter_residual(gens: tuple[np.ndarray, ...]) -> float:
    """Largest Frobenius norm of (t_i t_j)^m - 1 over the Coxeter relations of
    S_k on the matrices of t_1, ..., t_{k-1}: m = 1 for j = i (t_i^2 = 1), 3
    for j = i + 1 and 2 for j > i + 1."""
    worst = 0.0
    for i, s in enumerate(gens):
        for gap, t in enumerate(gens[i:]):
            relation = np.linalg.matrix_power(s @ t, (1, 3, 2)[min(gap, 2)])
            worst = max(worst, float(np.linalg.norm(relation - np.eye(len(s)))))
    return worst


def gns_certificate(k: int, f: StateFunction) -> dict:
    """The numbers of a gns-verify report on the GNS triple of f on S_k.

    They are the carrier and algebra dimensions, the central support and
    the two residuals of the module doc. Raises ValueError where gns does.
    """
    triple = gns(k, f)
    support = sorted(central_support(triple))
    # <xi, pi(g) xi> = sum_lam tr(rho_lam(g) xi_lam xi_lam^H), the inverse
    # transform of the blocks (k!/d_lam) conj(xi_lam xi_lam^H).
    fact = math.factorial(k)
    coefficients = inverse_fourier(FourierBlocks(k, {
        lam: fact / len(x) * (x.conj() @ x.T) for lam, x in triple.blocks.items()}))
    values = f.restrict(k).vector
    return {
        "gns_dim": triple.dimension,
        "algebra_dim": sum(len(triple.blocks[lam]) ** 2 for lam in support),
        "central_support": support,
        "homomorphism_residual": max(
            (_coxeter_residual(yor_generators(lam)) for lam in support), default=0.0),
        "state_residual": float(np.max(np.abs(coefficients.vector - values / values[0].real))),
    }
