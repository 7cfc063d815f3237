"""Young's orthogonal form: real orthogonal irreducible matrices for S_n.

The basis of the representation of shape lam is the set of standard
tableaux in the order of partitions.standard_tableaux: lexicographic in
the row word, which lists the row of each entry 1, ..., n.  For the
adjacent transposition (k, k+1) the matrix acts on a tableau T with
diagonal entry 1/d and off-diagonal sqrt(1 - 1/d^2) towards the tableau
with k and k+1 swapped, where d is the axial distance (content of k+1) -
(content of k) in T and the content of a cell is its column less its row.
Swapping k and k+1 swaps positions k and k+1 of the row word, so the
matrices of all tableaux come from one (tableaux, n) array of rows and
one of contents.

The basis is a Gelfand-Tsetlin basis: on S_{n-1} the matrices of shape
lam split into those of the shapes mu = lam less a corner, on the
tableaux with n in that corner.  Those are the tableaux whose row word
ends in the corner's row, and dropping that last letter leaves mu's row
words in the same order.  branching() hands that structure to the
Fourier transform.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable

import numpy as np

from .partitions import check_partition, hook_dimension, standard_tableaux
from .permutations import Permutation, adjacent_word


def _rows_and_contents(lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Two (d, n) arrays: entry [t, v - 1] is the row, then the content, of v in tableau t."""
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    tabs = standard_tableaux(lam)
    # cells lists the cells row by row; held[t, p] is the entry of tableau t in cells[p].
    held = np.array([[v for row in tab for v in row] for tab in tabs], dtype=np.int64)
    t = np.arange(len(tabs))[:, None]
    row_of, content_of = np.empty_like(held), np.empty_like(held)
    row_of[t, held - 1] = rows
    content_of[t, held - 1] = cols - rows
    return row_of, content_of


@lru_cache(maxsize=None)
def yor_generators(lam: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Matrices of the adjacent transpositions (1,2), ..., (n-1,n) for shape lam."""
    lam = check_partition(lam)
    rows, contents = _rows_and_contents(lam)
    d, n = rows.shape
    # The row words increase strictly, so a binary search over them as byte
    # strings finds a tableau from its row word.
    keys = rows.astype(np.uint8).view(f"V{n}").ravel()
    mats = []
    for k in range(1, n):
        dist = contents[:, k] - contents[:, k - 1]
        m = np.zeros((d, d))
        np.fill_diagonal(m, 1.0 / dist)
        moved = np.flatnonzero(abs(dist) >= 2)
        swapped = rows[moved].astype(np.uint8)
        swapped[:, [k - 1, k]] = swapped[:, [k, k - 1]]
        target = np.searchsorted(keys, swapped.view(f"V{n}").ravel())
        m[target, moved] = np.sqrt(1.0 - 1.0 / dist[moved] ** 2)
        m.flags.writeable = False
        mats.append(m)
    return tuple(mats)


def irrep_matrix(lam: Iterable[int], p: Permutation) -> np.ndarray:
    """Orthogonal matrix of p in the representation of shape lam.

    Requires p.level <= sum(lam).
    """
    lam = check_partition(lam)
    n = sum(lam)
    if p.level > n:
        raise ValueError(f"permutation of level {p.level} does not fit shape {lam}")
    gens = yor_generators(lam)
    word = adjacent_word(p, n)
    return reduce(np.matmul, (gens[i - 1] for i in word), np.eye(hook_dimension(lam)))


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
    mats = [np.eye(hook_dimension(lam))]
    for gen in reversed(yor_generators(lam)):
        mats.append(gen @ mats[-1])
    cosets = np.hstack(mats[::-1])
    cosets.flags.writeable = False
    last = _rows_and_contents(lam)[0][:, -1]
    rows = {}
    for r in sorted(set(last.tolist())):
        mu = tuple(p for p in lam[:r] + (lam[r] - 1,) + lam[r + 1:] if p)
        rows[mu] = np.flatnonzero(last == r)
        rows[mu].flags.writeable = False
    return cosets, rows
