"""Young's orthogonal form: real orthogonal irreducible matrices for S_n.

The basis of the representation of shape lam is the set of standard
tableaux in the fixed order produced by partitions.standard_tableaux.
For the adjacent transposition (k, k+1) the matrix acts on a tableau T
with diagonal entry 1/d and off-diagonal sqrt(1 - 1/d^2) towards the
tableau with k and k+1 swapped, where d is the axial distance
(content of k+1) - (content of k) in T.

Everything is rebuilt in memory: the generators of every shape up to
level 8 take well under 0.1 s, and whole-group tables are memoised up to
CACHE_MAX_LEVEL.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Iterable

import numpy as np

from .partitions import check_partition, standard_tableaux
from .permutations import Permutation, adjacent_word, cayley_layers

# Full group tables are memoised only up to this level; above it they are
# rebuilt on demand to bound memory.
CACHE_MAX_LEVEL = 6


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


def _build_table(n: int, lam: tuple[int, ...]) -> np.ndarray:
    """Matrices of every element of S_n in symmetric_group(n) order.

    Walks the shared breadth-first layers of S_n: each layer costs one
    batched product per generator, rho(t g) = rho(t) rho(g).
    """
    gmats = yor_generators(lam)
    d = irrep_dimension(lam)
    table = np.empty((math.factorial(n), d, d))
    table[0] = np.eye(d)
    for layer in cayley_layers(n):
        for i, tm in enumerate(gmats):
            pick = layer.generator == i
            table[layer.child[pick]] = np.matmul(tm, table[layer.parent[pick]])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _cached_table(n: int, lam: tuple[int, ...]) -> np.ndarray:
    return _build_table(n, lam)


def irrep_table(n: int, lam: Iterable[int]) -> np.ndarray:
    """(n!, d, d) array of all matrices of shape lam, indexed like symmetric_group(n)."""
    lam = check_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if n <= CACHE_MAX_LEVEL:
        return _cached_table(n, lam)
    return _build_table(n, lam)
