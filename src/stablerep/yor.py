"""Young's orthogonal form: real orthogonal irreducible matrices for S_n.

The basis of the representation of shape lam is the set of standard
tableaux in the order of partitions.standard_tableaux: lexicographic in
the row word, which lists the row of each entry 1, ..., n.  For the
adjacent transposition (i, i+1) the matrix acts on a tableau T with
diagonal entry 1/d and off-diagonal sqrt(1 - 1/d^2) towards the tableau
with i and i+1 swapped, where d is the axial distance (content of i+1) -
(content of i) in T and the content of a cell is its column less its row.
Swapping i and i+1 swaps positions i and i+1 of the row word and negates
d, so each generator is symmetric with at most two nonzeros per row.

The data are built along the tower S_1 < S_2 < ... (Clausen, "Fast
generalized Fourier transforms", 1989; Maslen, 1998).  A standard tableau
of weight k is one of weight k - 1 with k put in a corner, so _level(k)
appends one letter, the corner's row, to every row word of _level(k - 1)
and sorts once to put all shapes of weight k in basis order.  The basis is
a Gelfand-Tsetlin basis: on S_{k-1} the matrices of shape lam split into
those of the shapes mu = lam less a corner, on the tableaux with k in that
corner.  Those are the tableaux whose row word ends in the corner's row,
and dropping that last letter leaves mu's row words in the same order.
branching() hands that structure to the Fourier transform.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, NamedTuple

import numpy as np

from .partitions import check_partition, hook_dimension, partitions_of
from .permutations import Permutation, adjacent_word


class _Level(NamedTuple):
    """Every standard tableau of weight k, stacked shape by shape in
    partitions_of(k) order: shape s holds rows offsets[s]:offsets[s + 1]."""

    words: np.ndarray  # (rows, k) uint8: the row of each entry 1, ..., k
    contents: np.ndarray  # (rows, k) int64: the content of each entry's cell
    offsets: np.ndarray  # (p(k) + 1,)
    # steps[i - 1] = (diag, off, col) for (i, i+1): row t of its matrix holds
    # diag[t] at column t and off[t] at column col[t] (a row of the same shape).
    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _sort_keys(shape: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One byte string per row, the shape index then the row word, whose
    byte order is the order of (shape index, row word).

    The index takes two big-endian bytes: p(k) exceeds 255 from k = 17.
    """
    keys = np.empty((len(words), 2 + words.shape[1]), dtype=np.uint8)
    keys[:, :2] = np.asarray(shape).astype(">u2").view(np.uint8).reshape(-1, 2)
    keys[:, 2:] = words
    return keys.view(f"V{keys.shape[1]}").ravel()


@lru_cache(maxsize=None)
def _level(k: int) -> _Level:
    """The tableaux of weight k and their generator entries, from those of k - 1."""
    if k == 0:
        return _Level(np.zeros((1, 0), np.uint8), np.zeros((1, 0), np.int64),
                      np.array([0, 1]), ())
    prev = _level(k - 1)
    index = {lam: s for s, lam in enumerate(partitions_of(k))}
    # One block per shape mu of weight k - 1 and row r where mu has an
    # addable cell: mu's rows with k appended in row r, whose cell's
    # content is mu_r - r.
    blocks = []
    for m, mu in enumerate(partitions_of(k - 1)):
        for r in range(len(mu) + 1):
            part = mu[r] if r < len(mu) else 0
            if r == 0 or mu[r - 1] > part:
                blocks.append((m, r, part - r, index[mu[:r] + (part + 1,) + mu[r + 1:]]))
    m, letter, content, shape = np.array(blocks).T
    size = prev.offsets[m + 1] - prev.offsets[m]
    # src lists the level k - 1 rows of each block's mu, block after block.
    src =np.arange(size.sum()) + np.repeat(prev.offsets[m] - np.cumsum(size) + size, size)
    words = np.empty((len(src), k), dtype=np.uint8)
    words[:, :-1] = prev.words[src]
    words[:, -1] = np.repeat(letter, size)
    contents = np.empty((len(src), k), dtype=np.int64)
    contents[:, :-1] = prev.contents[src]
    contents[:, -1] = np.repeat(content, size)
    shape = np.repeat(shape, size)
    # Every prefix has length k - 1, so the rows of lam ending in r keep
    # mu's order: they are branching()'s rows of mu.
    order = np.argsort(_sort_keys(shape, words))
    words, contents, shape = words[order], contents[order], shape[order]
    keys = _sort_keys(shape, words)
    offsets = np.searchsorted(shape, np.arange(len(index) + 1))
    steps = []
    for i in range(1, k):
        dist = contents[:, i] - contents[:, i - 1]
        col = np.arange(len(words))
        moved = np.flatnonzero(abs(dist) >= 2)
        swapped = words[moved]
        swapped[:, [i - 1, i]] = swapped[:, [i, i - 1]]
        col[moved] = np.searchsorted(keys, _sort_keys(shape[moved], swapped))
        # |dist| = 1 gives off = 0: the tableau with i and i+1 swapped is not standard.
        steps.append((1.0 / dist, np.sqrt(1.0 - 1.0 / dist**2), col))
    level = _Level(words, contents, offsets, tuple(steps))
    for a in (words, contents, offsets, *(a for step in steps for a in step)):
        a.flags.writeable = False
    return level


def _shape_rows(lam: tuple[int, ...]) -> tuple[_Level, slice]:
    """The level of shape lam and the slice of its rows there."""
    k = sum(lam)
    level = _level(k)
    s = partitions_of(k).index(lam)
    return level, slice(int(level.offsets[s]), int(level.offsets[s + 1]))


@lru_cache(maxsize=None)
def yor_generators(lam: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Matrices of the adjacent transpositions (1,2), ..., (n-1,n) for shape lam."""
    lam = check_partition(lam)
    level, rows = _shape_rows(lam)
    t = np.arange(rows.stop - rows.start)
    mats = []
    for diag, off, col in level.steps:
        m = np.zeros((len(t), len(t)))
        m[col[rows] - rows.start, t] = off[rows]  # off is 0 where col[t] = t
        m[t, t] = diag[rows]
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
) -> tuple[dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The step S_{k-1} < S_k in shape lam of weight k >= 1, corner by corner.

    For each shape mu of lam less a corner, returns the rows r of lam's
    basis that hold mu, the tableaux with k in that corner listed in mu's
    basis order, and the (d, k*d_mu) column block [rho(c_1)[:, r] ...
    rho(c_k)[:, r]] of the coset representatives c_j = (j j+1 ... k) =
    t_j t_{j+1} ... t_{k-1} (see fourier.fourier).  On S_{k-1},
    rho_lam is rho_mu on those rows and 0 between the rows of different mu,
    so only these columns of rho(c_j) meet a block of S_{k-1}.  Also
    returns the order that puts the corners' columns back in basis order.

    rho(c_j) = rho(t_j) rho(c_{j+1}) is built from _level(k)'s generator
    entries without a dense product: row t of it is diag[t] times row t of
    rho(c_{j+1}) plus off[t] times its row col[t].
    """
    lam = check_partition(lam)
    level, rows = _shape_rows(lam)
    k, d = sum(lam), rows.stop - rows.start
    cosets = np.zeros((d, k, d))
    t = np.arange(d)
    cosets[t, -1, t] = 1.0
    for j in range(k - 2, -1, -1):
        diag, off, col = level.steps[j]
        np.multiply(diag[rows, None], cosets[:, j + 1], out=cosets[:, j])
        cosets[:, j] += off[rows, None] * cosets[:, j + 1][col[rows] - rows.start]
    last = level.words[rows, -1]
    corners = {}
    for r in sorted(set(last.tolist())):
        mu = tuple(p for p in lam[:r] + (lam[r] - 1,) + lam[r + 1:] if p)
        held = np.flatnonzero(last == r)
        corners[mu] = (held, np.take(cosets, held, axis=2).reshape(d, -1))
    order = np.argsort(np.concatenate([held for held, _ in corners.values()]))
    for a in (order, *(a for corner in corners.values() for a in corner)):
        a.flags.writeable = False
    return corners, order
