"""GNS construction, commutants, support projections and the standard form.

Everything here is finite dimensional linear algebra: states are given
by value tables on a truncated group, algebras by matrix bases that are
orthonormal for the trace inner product, and the modular conjugation is
obtained from the polar decomposition of the (antilinear) adjoint map
realified to a matrix on doubled real coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy import linalg

from .fourier import StateFunction, gram_matrix
from .characters import class_representative, class_size, mn_character
from .partitions import partitions_of
from .permutations import IDENTITY, Permutation, element_index, symmetric_group, transposition

import math


# ---------------------------------------------------------------------------
# GNS construction from a state on a truncated group.


@dataclass
class GnsTriple:
    """Cyclic representation of S_level built from a positive definite state.

    rep maps each group element to a unitary on the carrier; xi is the
    cyclic vector, and <xi, rep[g] xi> returns the state value.
    """

    level: int
    rep: dict[Permutation, np.ndarray]
    xi: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.xi)

    def coefficient(self, g: Permutation) -> complex:
        return complex(np.vdot(self.xi, self.rep[g] @ self.xi))

    def generators(self) -> list[np.ndarray]:
        return [self.rep[transposition(i, i + 1)] for i in range(1, self.level)]


def gns(k: int, f: StateFunction, psd_tol: float = 1e-9, rank_tol: float = 1e-10) -> GnsTriple:
    """Carrier, representation and cyclic vector for the state f on S_k.

    The carrier is the column space of the Gram matrix [f(g^-1 h)]; the
    representation permutes Gram columns. Non positive input is
    rejected with the violating eigenvalue.
    """
    if f.level < k:
        raise ValueError(f"state of level {f.level} cannot induce S_{k}")
    elements = symmetric_group(k)
    index = element_index(k)
    G = gram_matrix(f, k)
    G = (G + G.conj().T) / 2
    w, V = np.linalg.eigh(G)
    if w[0] < -psd_tol:
        raise ValueError(f"state is not positive definite (eigenvalue {w[0]:.3e})")
    keep = w > max(rank_tol * max(w[-1], 0.0), rank_tol)
    if not keep.any():
        raise ValueError(f"state vanishes on S_{k}: its GNS carrier is empty")
    B = (V[:, keep] * np.sqrt(w[keep])).conj().T
    pinv = np.linalg.pinv(B)
    rep = {}
    for g in elements:
        cols = [index[g * h] for h in elements]
        rep[g] = B[:, cols] @ pinv
    return GnsTriple(k, rep, B[:, index[IDENTITY]].copy())


# ---------------------------------------------------------------------------
# Commutants in the trace inner product.


def commutant(mats: Sequence[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
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
    null = vh[s < tol * max(s[0], 1.0)].conj()
    return [v.reshape(d, d) for v in null]


def double_commutant(mats: Sequence[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of the von Neumann algebra generated by mats."""
    return commutant(commutant(mats, tol), tol)


def project_to_span(basis: Sequence[np.ndarray], X: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonal projection of X onto span(basis); returns (projection, residual)."""
    proj = np.zeros_like(np.asarray(X, dtype=complex))
    for b in basis:
        proj += np.vdot(b, X) * b
    return proj, float(np.linalg.norm(X - proj))


def subspace_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Operator norm distance between the two spanned subspaces' projections."""
    def ortho(mats):
        stack = np.array([m.reshape(-1) for m in mats]).T
        q, r = np.linalg.qr(stack)
        keep = np.abs(np.diag(r)) > 1e-12 * max(np.abs(np.diag(r)).max(), 1e-30)
        return q[:, keep]

    qa, qb = ortho(a), ortho(b)
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb, 2))


# ---------------------------------------------------------------------------
# Support projections.


def support_projection(
    density: np.ndarray, algebra_basis: Sequence[np.ndarray], tol: float = 1e-9
) -> np.ndarray:
    """Smallest projection E in the algebra with tr(density (1 - E)) = 0.

    density must be positive semidefinite; the functional x -> tr(density x)
    is represented inside the algebra by compressing the density onto the
    span, and E is the spectral projection onto its positive part.
    """
    density = np.asarray(density, dtype=complex)
    herm = (density + density.conj().T) / 2
    low = float(np.linalg.eigvalsh(herm)[0])
    if low < -tol:
        raise ValueError(f"density is not positive (eigenvalue {low:.3e})")
    compressed, _ = project_to_span(algebra_basis, herm)
    compressed = (compressed + compressed.conj().T) / 2
    w, V = np.linalg.eigh(compressed)
    cut = max(tol * max(float(w[-1]), 0.0), tol)
    keep = w > cut
    return V[:, keep] @ V[:, keep].conj().T


# ---------------------------------------------------------------------------
# Standard form.


def _real_of_linear(C: np.ndarray) -> np.ndarray:
    re, im = C.real, C.imag
    return np.block([[re, -im], [im, re]])


def _real_of_antilinear(C: np.ndarray) -> np.ndarray:
    # The map v -> C conj(v), written on stacked (Re v, Im v).
    re, im = C.real, C.imag
    return np.block([[re, im], [im, -re]])


def _complex_of_real_linear(R: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    n = R.shape[0] // 2
    a, b = R[:n, :n], R[:n, n:]
    c, d = R[n:, :n], R[n:, n:]
    if max(np.abs(a - d).max(), np.abs(b + c).max()) > tol:
        raise ValueError("real matrix does not represent a complex linear map")
    return a + 1j * c


def _realify_vector(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


@dataclass
class StandardForm:
    """A von Neumann algebra in standard position with its modular conjugation.

    The carrier is the algebra itself with the inner product of a
    faithful state; basis holds the original (trace orthonormal) matrix
    basis, algebra holds the same elements acting by left multiplication
    on the carrier, j_real is the antilinear conjugation as a real
    matrix on doubled coordinates.
    """

    basis: tuple[np.ndarray, ...]
    xi: np.ndarray
    j_real: np.ndarray
    modulus_real: np.ndarray
    _whalf: np.ndarray
    _winvhalf: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.xi)

    def embed(self, m: np.ndarray) -> np.ndarray:
        """Left multiplication by m (an operator on the original carrier)."""
        m = np.asarray(m, dtype=complex)
        coeff = np.array([[np.vdot(bi, m @ bj) for bj in self.basis] for bi in self.basis])
        return self._whalf @ coeff @ self._winvhalf

    @cached_property
    def algebra(self) -> tuple[np.ndarray, ...]:
        return tuple(self.embed(m) for m in self.basis)

    def conjugate_by_j(self, X: np.ndarray) -> np.ndarray:
        """J X J^-1, a complex linear map again."""
        R = self.j_real @ _real_of_linear(np.asarray(X, dtype=complex)) @ self.j_real.T
        return _complex_of_real_linear(R)

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        n = self.dimension
        rv = self.j_real @ _realify_vector(np.asarray(v, dtype=complex))
        return rv[:n] + 1j * rv[n:]

    @cached_property
    def commutant_basis(self) -> list[np.ndarray]:
        return commutant(list(self.algebra))


def _hermitian_root(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh((W + W.conj().T) / 2)
    root = V @ np.diag(np.sqrt(w)) @ V.conj().T
    inv_root = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return root, inv_root


def standard_form(
    algebra_basis: Sequence[np.ndarray],
    density: np.ndarray,
    faithful_tol: float = 1e-12,
) -> StandardForm:
    """Standard form of the algebra with respect to the state tr(density x).

    The state must be faithful on the algebra: the Gram matrix of the
    basis in the state inner product has to be strictly positive, and
    its smallest eigenvalue is reported when rejecting.
    """
    basis = tuple(np.asarray(b, dtype=complex) for b in algebra_basis)
    density = np.asarray(density, dtype=complex)
    N = len(basis)
    W = np.array([[np.trace(density @ bi.conj().T @ bj) for bj in basis] for bi in basis])
    W = (W + W.conj().T) / 2
    wmin = float(np.linalg.eigvalsh(W)[0])
    if wmin < faithful_tol:
        raise ValueError(f"state is not faithful on the algebra (Gram eigenvalue {wmin:.3e})")
    whalf, winvhalf = _hermitian_root(W)

    dim = basis[0].shape[0]
    eye_coeff = np.array([np.vdot(b, np.eye(dim)) for b in basis])
    xi = whalf @ eye_coeff

    # The adjoint map x -> x* in basis coefficients, then realified and split.
    A = np.array([[np.vdot(bi, bj.conj().T) for bj in basis] for bi in basis])
    SA = whalf @ A @ np.conj(winvhalf)
    S_real = _real_of_antilinear(SA)
    j_real, modulus_real = linalg.polar(S_real)

    return StandardForm(
        basis=basis,
        xi=xi,
        j_real=j_real,
        modulus_real=modulus_real,
        _whalf=whalf,
        _winvhalf=winvhalf,
    )


def gns_standard_pipeline(
    k: int,
    f: StateFunction,
    eps: float = 1e-3,
) -> tuple[GnsTriple, list[np.ndarray], StandardForm]:
    """GNS representation, generated algebra, and its standard form.

    The standard form needs a faithful state; the GNS state itself may
    fail that, so it is mixed with the normalized carrier trace:
    phi = (1 - eps) <xi, . xi> + eps tr(.)/dim.
    """
    triple = gns(k, f)
    M = double_commutant(triple.generators()) if k >= 2 else [np.eye(triple.dimension, dtype=complex)]
    d = triple.dimension
    density = (1 - eps) * np.outer(triple.xi, triple.xi.conj()) + eps * np.eye(d) / d
    sf = standard_form(M, density)
    return triple, M, sf


# ---------------------------------------------------------------------------
# The two-sided representation on the standard form carrier.


@dataclass
class BiregularRep:
    """(g, h) -> pi(g) J pi(h) J^-1 on the standard form carrier."""

    sf: StandardForm
    pi: dict[Permutation, np.ndarray]

    def __call__(self, g: Permutation, h: Permutation) -> np.ndarray:
        return self.pi[g] @ self.sf.conjugate_by_j(self.pi[h])

    def ad(self, g: Permutation) -> np.ndarray:
        """The inner implementation of conjugation by g: Pi((g, g))."""
        return self(g, g)


def biregular(sf: StandardForm, rep: Mapping[Permutation, np.ndarray]) -> BiregularRep:
    """Lift a representation on the original carrier to the two-sided one."""
    return BiregularRep(sf, {g: sf.embed(m) for g, m in rep.items()})


# ---------------------------------------------------------------------------
# Central supports of finite representations, for quasi-equivalence checks.


def central_support(rep: Mapping[Permutation, np.ndarray], k: int, tol: float = 1e-6) -> frozenset[tuple[int, ...]]:
    """Set of shapes with nonzero multiplicity in a representation of S_k.

    Multiplicities come from exact character inner products; they must
    land near nonnegative integers or the input was not a representation.
    """
    fact = math.factorial(k)
    out = set()
    for lam in partitions_of(k):
        acc = 0.0
        for mu in partitions_of(k):
            g = class_representative(mu)
            acc += class_size(mu) * np.trace(rep[g]).real * mn_character(lam, mu)
        mult = acc / fact
        if abs(mult - round(mult)) > tol or round(mult) < 0:
            raise ValueError(f"multiplicity of {lam} is {mult}, not a nonnegative integer")
        if round(mult) > 0:
            out.add(lam)
    return frozenset(out)
