"""Commutants in the trace inner product: oracles for the GNS tests.

They solve the Kronecker system X A = A X on vec(X) directly, which the
library's own path from a state to its standard form never does, so a test
can check the algebra that path builds against them.
"""

from typing import Sequence

import numpy as np

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
