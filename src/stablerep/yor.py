"""Young's orthogonal form: real orthogonal irreducible matrices for S_n.

The basis of the representation of shape lam is the set of standard
tableaux in the fixed order produced by partitions.standard_tableaux.
For the adjacent transposition (k, k+1) the matrix acts on a tableau T
with diagonal entry 1/d and off-diagonal sqrt(1 - 1/d^2) towards the
tableau with k and k+1 swapped, where d is the axial distance
(content of k+1) - (content of k) in T.

The basis is a Gelfand-Tsetlin basis: on S_{n-1} the matrices of shape
lam split into those of the shapes mu = lam less a corner, on the
tableaux with n in that corner.  branching() hands that structure to the
Fourier transform.  Everything is rebuilt in memory: the generators of
every shape up to level 8 take well under 0.1 s.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable

import numpy as np

from .partitions import check_partition, standard_tableaux
from .permutations import Permutation, adjacent_word


def _positions(tab: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, int]]:
    return {v: (i, j) for i, row in enumerate(tab) for j, v in enumerate(row)}


@lru_cache(maxsize=None)
def yor_generators(lam: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Matrices of the adjacent transpositions (1,2), ..., (n-1,n) for shape lam."""
    lam = check_partition(lam)
    n = sum(lam)
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    d = len(tabs)
    mats = []
    for k in range(1, n):
        m = np.zeros((d, d))
        for t, j in index.items():
            pos = _positions(t)
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            dist = (c2 - r2) - (c1 - r1)
            m[j, j] = 1.0 / dist
            if abs(dist) >= 2:
                swapped = tuple(
                    tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                    for row in t
                )
                m[index[swapped], j] = np.sqrt(1.0 - 1.0 / dist**2)
        m.flags.writeable = False
        mats.append(m)
    return tuple(mats)


def irrep_dimension(lam: Iterable[int]) -> int:
    return len(standard_tableaux(check_partition(lam)))


def irrep_matrix(lam: Iterable[int], p: Permutation) -> np.ndarray:
    """Orthogonal matrix of p in the representation of shape lam.

    Requires p.level <= sum(lam).
    """
    lam = check_partition(lam)
    n = sum(lam)
    if p.level > n:
        raise ValueError(f"permutation of level {p.level} does not fit shape {lam}")
    gens = yor_generators(lam)
    d = irrep_dimension(lam)
    word = adjacent_word(p, n)
    return reduce(np.matmul, (gens[i - 1] for i in word), np.eye(d))


@lru_cache(maxsize=None)
def branching(
    lam: tuple[int, ...]
) -> tuple[np.ndarray, dict[tuple[int, ...], np.ndarray]]:
    """The step S_{k-1} < S_k in shape lam of weight k >= 1.

    Returns the (d, k*d) array [rho(c_1) ... rho(c_k)] of the coset
    representatives c_j = (j j+1 ... k) = t_j t_{j+1} ... t_{k-1} (see
    permutations.coset_order), and for each shape mu of lam less a corner
    the rows of lam's basis that hold mu: the tableaux with k in that
    corner, listed in mu's basis order.  On S_{k-1}, rho_lam is rho_mu on
    those rows and 0 between the rows of different mu.
    """
    lam = check_partition(lam)
    k = sum(lam)
    mats = [np.eye(irrep_dimension(lam))]
    for gen in reversed(yor_generators(lam)):
        mats.append(gen @ mats[-1])
    cosets = np.hstack(mats[::-1])
    cosets.flags.writeable = False
    index = {t: i for i, t in enumerate(standard_tableaux(lam))}
    rows = {}
    for r in range(len(lam)):
        if r + 1 < len(lam) and lam[r] == lam[r + 1]:
            continue  # no corner at the end of row r
        mu = tuple(p for p in lam[:r] + (lam[r] - 1,) + lam[r + 1:] if p)
        held = []
        for tab in standard_tableaux(mu):
            tab = tab + ((),) * (len(lam) - len(tab))
            held.append(index[tuple(row + (k,) if i == r else row for i, row in enumerate(tab))])
        rows[mu] = np.array(held)
        rows[mu].flags.writeable = False
    return cosets, rows
