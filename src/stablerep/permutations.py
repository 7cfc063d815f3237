"""Finitely supported permutations of the positive integers.

Elements of every finite symmetric group live in one type: a permutation
is stored by its action on the (finite) set of points it moves, so the
nested groups S_1 < S_2 < ... can be mixed freely and equality ignores
trailing fixed points.

Hot loops use the integer index layer at the end of this module instead:
S_n as rows of an array of one-line words, with group actions as index
maps between rows.  A permutation has one row at every level: S_k is the
first k! rows of every S_n, and the rows read backwards list S_n as the
nested cosets of the Fourier transform.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np


class Permutation:
    """A bijection of {1, 2, 3, ...} moving only finitely many points.

    >>> s = Permutation.from_cycles([[1, 2], [4, 5, 6]])
    >>> s(1), s(2), s(3), s(4)
    (2, 1, 3, 5)
    >>> s.level
    6
    >>> s.cycle_type()
    (3, 2)
    """

    __slots__ = ("_map", "_pairs", "_hash")

    def __init__(self, mapping: Mapping[int, int]):
        m = {}
        for a, b in mapping.items():
            a = int(a)
            b = int(b)
            if a < 1 or b < 1:
                raise ValueError("points must be positive integers")
            if a != b:
                m[a] = b
        if set(m) != set(m.values()):
            raise ValueError("mapping is not a bijection on its support")
        self._map = m
        self._pairs = tuple(sorted(m.items()))
        self._hash = hash(self._pairs)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from a list of disjoint cycles, e.g. [[1, 2], [4, 5, 6]]."""
        m: dict[int, int] = {}
        for cyc in cycles:
            cyc = list(cyc)
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point inside cycle {cyc}")
            for p in cyc:
                if p in m:
                    raise ValueError(f"cycles are not disjoint at point {p}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                m[a] = b
        return cls(m)

    @classmethod
    def from_one_line(cls, values: Sequence[int]) -> "Permutation":
        """Build from the word (s(1), ..., s(n))."""
        return cls({i + 1: v for i, v in enumerate(values)})

    def __call__(self, i: int) -> int:
        return self._map.get(i, i)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(i) = p(q(i)): the right factor acts first.
        if not isinstance(other, Permutation):
            return NotImplemented
        pts = set(self._map) | set(other._map)
        return Permutation({i: self(other(i)) for i in pts})

    def inverse(self) -> "Permutation":
        return Permutation({b: a for a, b in self._map.items()})

    def conjugate_by(self, t: "Permutation") -> "Permutation":
        """Return t * self * t^-1."""
        return Permutation({t(a): t(b) for a, b in self._map.items()})

    def shift(self, m: int) -> "Permutation":
        """Translate every moved point up by m: acts on {m+1, m+2, ...}.

        >>> transposition(1, 2).shift(3)
        Permutation[(4 5)]
        """
        if m < 0:
            raise ValueError("shift must be >= 0")
        return Permutation({a + m: b + m for a, b in self._map.items()})

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    @property
    def level(self) -> int:
        """Smallest n with support contained in {1, ..., n}; 0 for the identity."""
        return max(self._map, default=0)

    def is_identity(self) -> bool:
        return not self._map

    def one_line(self, n: Optional[int] = None) -> tuple[int, ...]:
        n = self.level if n is None else n
        if n < self.level:
            raise ValueError(f"level {self.level} permutation does not fit in S_{n}")
        return tuple(self(i) for i in range(1, n + 1))

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles of length >= 2, each starting at its smallest point."""
        seen: set[int] = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            p = self._map[start]
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = self._map[p]
            seen.add(start)
            out.append(cyc)
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths >= 2, weakly decreasing. Fixed points implicit."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def cycle_partition(self, n: int) -> tuple[int, ...]:
        """Full cycle type as a partition of n, fixed points included.

        >>> transposition(1, 2).cycle_partition(4)
        (2, 1, 1)
        """
        if n < self.level:
            raise ValueError(f"level {self.level} permutation does not fit in S_{n}")
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (n - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def preserves(self, n: int) -> bool:
        """True iff the set {1, ..., n} is mapped onto itself."""
        return all(b <= n for a, b in self._map.items() if a <= n)

    def split_types(self, n: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Cycle types of the factors of split_product(self, n), or None, in one walk.

        >>> Permutation.from_cycles([[1, 2], [4, 5, 6]]).split_types(3)
        ((2,), (3,))
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        low, high, seen = [], [], set()
        for start, p in self._map.items():
            if start in seen:
                continue
            above, length = start > n, 1
            while p != start:
                if (p > n) is not above:
                    return None  # this cycle crosses the cut
                seen.add(p)
                length, p = length + 1, self._map[p]
            (high if above else low).append(length)
        return tuple(sorted(low, reverse=True)), tuple(sorted(high, reverse=True))

    @property
    def sign(self) -> int:
        return (-1) ** sum(len(c) - 1 for c in self.cycles())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        # Deterministic order: by level, then one-line word.
        if not isinstance(other, Permutation):
            return NotImplemented
        n = max(self.level, other.level)
        return (self.level, self.one_line(n)) < (other.level, other.one_line(n))

    def __str__(self) -> str:
        if not self._map:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())

    def __repr__(self) -> str:
        return f"Permutation[{self}]"


IDENTITY = Permutation({})


def transposition(i: int, j: int) -> Permutation:
    if i == j:
        raise ValueError("transposition needs two distinct points")
    return Permutation({i: j, j: i})


def cycle(*points: int) -> Permutation:
    """The cycle sending points[0] -> points[1] -> ... -> points[0]."""
    return Permutation.from_cycles([points]) if len(points) > 1 else IDENTITY


def split_product(s: Permutation, n: int) -> Optional[tuple[Permutation, Permutation]]:
    """Factor s = s1 * s2 with s1 in S_n and s2 fixing 1..n, if possible.

    Returns None when s does not preserve {1, ..., n} as a set; the
    factorization is unique when it exists.

    >>> split_product(Permutation.from_cycles([[1, 2], [4, 5]]), 3)
    (Permutation[(1 2)], Permutation[(4 5)])
    >>> split_product(transposition(3, 4), 3) is None
    True
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not s.preserves(n):
        return None
    low = {a: b for a, b in s._pairs if a <= n}
    high = {a: b for a, b in s._pairs if a > n}
    return Permutation(low), Permutation(high)


@lru_cache(maxsize=8)
def symmetric_group(n: int) -> tuple[Permutation, ...]:
    """All elements of S_n in rank order, the rows of group_words(n), so S_k comes first. Cached.

    That is lexicographic order of w_0 g w_0, w_0 the longest element.
    """
    return tuple(map(Permutation.from_one_line, group_words(n).tolist()))


def adjacent_word(p: Permutation, n: Optional[int] = None) -> tuple[int, ...]:
    """Write p as a product of adjacent transpositions.

    Returns indices (i_1, ..., i_k) meaning p = t_{i_1} * ... * t_{i_k}
    where t_i = (i, i+1) and the rightmost factor acts first.

    >>> w = adjacent_word(cycle(1, 2, 3))
    >>> from functools import reduce
    >>> reduce(lambda a, b: a * b, [transposition(i, i + 1) for i in w]) == cycle(1, 2, 3)
    True
    """
    word = list(p.one_line(n))
    swaps = []
    changed = True
    while changed:
        changed = False
        for idx in range(len(word) - 1):
            if word[idx] > word[idx + 1]:
                word[idx], word[idx + 1] = word[idx + 1], word[idx]
                swaps.append(idx + 1)
                changed = True
    return tuple(reversed(swaps))


def cut_generators(n: int, level: int) -> tuple[Permutation, ...]:
    """Adjacent transpositions generating S_n x S_{level - n} inside S_level.

    They are (i, i+1) for 1 <= i < n, below the cut, and for
    n < i < level, above it.

    >>> cut_generators(2, 5)
    (Permutation[(1 2)], Permutation[(3 4)], Permutation[(4 5)])
    """
    below = [transposition(i, i + 1) for i in range(1, n)]
    return tuple(below + [transposition(i, i + 1) for i in range(n + 1, level)])


# ---------------------------------------------------------------------------
# Integer index layer. Row r of group_words(n) is the one-line word of
# symmetric_group(n)[r], and r is the word's rank at every level n, so
# actions become gathers over rows.


@lru_cache(maxsize=8)
def group_words(n: int) -> np.ndarray:
    """(n!, n) int8 array of the one-line words of S_n, in rank order.

    Its first k! rows are group_words(k) followed by the fixed points k+1..n.

    >>> group_words(3)[[0, 1, 4]]
    array([[1, 2, 3],
           [2, 1, 3],
           [2, 3, 1]], dtype=int8)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    words = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        # The words with e_{k-1} = e, in order: the S_{k-1} words lifted
        # past k - e, which keeps their order, then k - e.
        grown = np.empty((k, len(words), k), dtype=np.int8)
        for e in range(k):
            grown[e, :, :-1] = words + (words >= k - e)
            grown[e, :, -1] = k - e
        words = grown.reshape(-1, k)
    words.flags.writeable = False
    return words


def word_ranks(words: np.ndarray) -> np.ndarray:
    """Rank of each row of an (N, n) array of one-line words.

    The rank of w is sum_a e_a a!, where e_a = #{b < a : w_b > w_a} counts
    the larger entries before position a (positions from 0): the factorial
    number system, which fixed points appended to w leave unchanged.

    >>> word_ranks(np.array([[1, 2, 3], [2, 3, 1], [3, 2, 1]]))
    array([0, 4, 5])
    >>> word_ranks(np.array([[2, 3, 1, 4, 5]]))
    array([4])
    """
    words = np.asarray(words)
    n = words.shape[1]
    columns = np.ascontiguousarray(words.T)
    ranks = np.zeros(len(words), dtype=np.int64)
    greater = np.empty(len(words), dtype=bool)
    # Horner form of sum_a e_a a!.
    for a in range(n - 1, 0, -1):
        ranks *= a + 1
        for b in range(a):
            ranks += np.greater(columns[b], columns[a], out=greater)
    return ranks


def element_row(g: Permutation, n: int) -> int:
    """Row of g in symmetric_group(n): the rank of its one-line word, the same for every n.

    >>> element_row(cycle(1, 2, 3), 3), element_row(cycle(1, 2, 3), 5)
    (4, 4)
    """
    return int(word_ranks(np.array([g.one_line(n)]).reshape(1, n))[0])


def cycle_words(points, lengths, counts, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One-line words in S_n of permutations given as lists of disjoint cycles.

    points lists the points of every cycle, cycle after cycle and row after
    row; lengths[c] is the length of cycle c and counts[r] the number of
    cycles of row r.  Row r is valid when its points are distinct and
    positive and its cycles of length >= 2 stay inside 1..n; a 1-cycle is
    a fixed point and may name any positive integer.  Returns the (N, n)
    words, with the identity on invalid rows, and the (N,) mask of valid rows.

    This validity rule must match Permutation.from_cycles plus the level
    check of a table row: the table reader reports a row flagged here
    through those checks.  tests/test_table_files.py holds the two in step.

    >>> words, valid = cycle_words([1, 2, 3, 9, 1, 1], [3, 1, 2], [2, 1], 3)
    >>> words.tolist(), valid.tolist()
    ([[2, 3, 1], [1, 2, 3]], [True, False])
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    per_point = np.repeat(lengths, lengths)
    pts = _point_codes(points, n)
    row = np.repeat(np.repeat(np.arange(len(counts)), counts), lengths)
    moved = per_point > 1
    valid = np.ones(len(counts), dtype=bool)
    valid[row[(pts < 1) | (moved & (pts > n))]] = False
    # A point met twice in one row: neighbours once sorted by (row, point).
    order = np.lexsort((pts, row))
    again = (np.diff(pts[order]) == 0) & (np.diff(row[order]) == 0)
    valid[row[order[1:][again]]] = False
    # Each moved point of a valid row goes to the next point of its cycle,
    # the last one back to the first.
    after = np.arange(1, len(pts) + 1)
    wrap = after == np.repeat(np.cumsum(lengths), lengths)
    after[wrap] -= per_point[wrap]
    keep = moved & valid[row]
    words = np.tile(np.arange(1, n + 1), (len(counts), 1))
    words[row[keep], pts[keep] - 1] = pts[after[keep]]
    return words, valid


def _point_codes(points, n: int) -> np.ndarray:
    """points as an int64 array.

    Points beyond int64 can only be fixed points or errors; when there are
    some, each point outside 1..n becomes a code that keeps its equalities
    and its side of 1..n.
    """
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        distinct, which = np.unique(np.array(points, dtype=object), return_inverse=True)
        rank = np.arange(len(distinct))
        codes = np.where(distinct < 1, rank - len(distinct),
                         np.where(distinct > n, n + 1 + rank, distinct))
        return codes.astype(np.int64)[which.reshape(-1)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def inverse_map(n: int) -> np.ndarray:
    """(n!,) index map: entry r is the row of g_r^-1.

    >>> inverse_map(3)
    array([0, 1, 2, 4, 3, 5])
    """
    words = group_words(n)
    # g^-1 sends g(i) to i: scatter each column index to the entry it holds.
    inverse = np.empty_like(words)
    np.put_along_axis(inverse, words - 1, np.arange(1, n + 1, dtype=words.dtype)[None], axis=1)
    return _frozen(word_ranks(inverse))


@lru_cache(maxsize=4)
def product_table(n: int) -> np.ndarray:
    """(n!, n!) index map: entry [r, s] is the row of g_r * g_s.

    The word of g_r * g_s is row r gathered at row s (the right factor acts first).

    >>> product_table(3)[[1, 3]]
    array([[1, 0, 4, 5, 2, 3],
           [3, 2, 5, 4, 0, 1]])
    """
    words = group_words(n).astype(np.int64)
    out = np.empty((len(words), len(words)), dtype=np.int64)
    for r, word in enumerate(words):
        out[r] = word_ranks(word[words - 1])
    return _frozen(out)


def conjugate_words(words: np.ndarray, t: Permutation) -> np.ndarray:
    """One-line words of t s t^-1 for each row s of an (N, L) word array.

    The result is max(L, level(t)) wide, so t may reach past the words.

    >>> conjugate_words(np.array([[2, 1]]), transposition(2, 3))
    array([[3, 2, 1]])
    """
    words = np.asarray(words, dtype=np.int64)
    width = max(words.shape[1], t.level)
    padded = np.empty((len(words), width), dtype=np.int64)
    padded[:, : words.shape[1]] = words
    padded[:, words.shape[1]:] = np.arange(words.shape[1] + 1, width + 1)
    # (t s t^-1)(t(i)) = t(s(i))
    image = np.array(t.one_line(width), dtype=np.int64)
    out = np.empty_like(padded)
    out[:, image - 1] = image[padded - 1]
    return out


def conjugation_map(n: int, t: Permutation) -> np.ndarray:
    """(n!,) index map: entry r is the row of t g_r t^-1; needs level(t) <= n.

    >>> conjugation_map(3, transposition(1, 2))
    array([0, 1, 5, 4, 3, 2])
    """
    if t.level > n:
        raise ValueError(f"conjugator of level {t.level} leaves S_{n}")
    return _frozen(word_ranks(conjugate_words(group_words(n), t)))


def cycle_lengths(words: np.ndarray) -> np.ndarray:
    """(N, L) array: entry [r, i] is the length of row r's cycle through i + 1.

    >>> cycle_lengths(np.array([[2, 3, 1, 4], [2, 1, 4, 3]]))
    array([[3, 3, 3, 1],
           [2, 2, 2, 2]])
    """
    step = np.asarray(words, dtype=np.int64) - 1
    lengths = np.zeros(step.shape, dtype=np.int64)
    points = np.arange(step.shape[1])
    image = step
    for k in range(1, step.shape[1] + 1):
        lengths[(image == points) & (lengths == 0)] = k
        image = np.take_along_axis(step, image, axis=1)
    return lengths
