"""Finitely supported permutations of the positive integers.

Elements of every finite symmetric group live in one type: a permutation
is stored by its action on the (finite) set of points it moves, so the
nested groups S_1 < S_2 < ... can be mixed freely and equality ignores
trailing fixed points.

Hot loops use the integer index layer at the end of this module instead:
S_n as rows of an array of one-line words, with group actions as index
maps between rows.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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


def conjugate(t: Permutation, s: Permutation) -> Permutation:
    """Return t * s * t^-1.

    >>> conjugate(transposition(1, 3), transposition(1, 2))
    Permutation[(2 3)]
    """
    return s.conjugate_by(t)


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
    """All elements of S_n, in lexicographic one-line order. Cached."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(
        Permutation.from_one_line(w) for w in itertools.permutations(range(1, n + 1))
    )


@lru_cache(maxsize=8)
def element_index(n: int) -> dict[Permutation, int]:
    return {g: i for i, g in enumerate(symmetric_group(n))}


def adjacent_word(p: Permutation, n: Optional[int] = None) -> tuple[int, ...]:
    """Write p as a product of adjacent transpositions.

    Returns indices (i_1, ..., i_k) meaning p = t_{i_1} * ... * t_{i_k}
    where t_i = (i, i+1) and the rightmost factor acts first.

    >>> w = adjacent_word(cycle(1, 2, 3))
    >>> from functools import reduce
    >>> reduce(lambda a, b: a * b, [transposition(i, i + 1) for i in w]) == cycle(1, 2, 3)
    True
    """
    return line_adjacent_word(p.one_line(n))


def line_adjacent_word(line: Sequence[int]) -> tuple[int, ...]:
    """adjacent_word of the permutation with one-line word line, from the word itself.

    >>> line_adjacent_word((2, 3, 1)) == adjacent_word(cycle(1, 2, 3))
    True
    """
    word = list(line)
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
# symmetric_group(n)[r]; that lexicographic order is Lehmer-code rank order,
# so a word's row is its rank and actions become gathers over rows.


@lru_cache(maxsize=8)
def group_words(n: int) -> np.ndarray:
    """(n!, n) int8 array of the one-line words of S_n, in symmetric_group(n) order.

    >>> group_words(3)[[0, 1, 5]]
    array([[1, 2, 3],
           [1, 3, 2],
           [3, 2, 1]], dtype=int8)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    perms = itertools.permutations(range(1, n + 1))
    words = np.array(list(perms), dtype=np.int8).reshape(math.factorial(n), n)
    words.flags.writeable = False
    return words


def word_ranks(words: np.ndarray) -> np.ndarray:
    """Lehmer-code rank of each row of an (N, n) array of one-line words.

    >>> word_ranks(np.array([[1, 2, 3], [2, 3, 1], [3, 2, 1]]))
    array([0, 3, 5])
    """
    words = np.asarray(words)
    n = words.shape[1]
    # Lehmer digit i counts the later entries smaller than entry i.
    digits = np.triu(words[:, :, None] > words[:, None, :], k=1).sum(axis=2)
    weights = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64)
    return digits @ weights


def left_adjacent_map(n: int) -> np.ndarray:
    """(n!, n-1) index map: entry [r, i-1] is the row of t_i * g_r, t_i = (i, i+1).

    Left multiplication by t_i swaps the values i and i+1 in a one-line word.

    >>> left_adjacent_map(3)
    array([[2, 1],
           [3, 0],
           [0, 4],
           [1, 5],
           [5, 2],
           [4, 3]])
    """
    words = group_words(n)
    out = np.empty((len(words), max(n - 1, 0)), dtype=np.int64)
    for i in range(1, n):
        swapped = words.copy()
        swapped[words == i] = i + 1
        swapped[words == i + 1] = i
        out[:, i - 1] = word_ranks(swapped)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def inverse_map(n: int) -> np.ndarray:
    """(n!,) index map: entry r is the row of g_r^-1.

    >>> inverse_map(3)
    array([0, 1, 2, 4, 3, 5])
    """
    return _frozen(word_ranks(np.argsort(group_words(n), axis=1) + 1))


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


@lru_cache(maxsize=16)
def conjugation_map(n: int, t: Permutation) -> np.ndarray:
    """(n!,) index map: entry r is the row of t g_r t^-1; needs level(t) <= n.

    >>> conjugation_map(3, transposition(1, 2))
    array([0, 5, 2, 4, 3, 1])
    """
    if t.level > n:
        raise ValueError(f"conjugator of level {t.level} leaves S_{n}")
    return _frozen(word_ranks(conjugate_words(group_words(n), t)))


@lru_cache(maxsize=16)
def restriction_map(n: int, level: int) -> np.ndarray:
    """(n!,) index map: entry r is the row in S_level of row r of S_n.

    >>> restriction_map(2, 3)
    array([0, 2])
    """
    if not 0 <= n <= level:
        raise ValueError(f"S_{n} is not a subgroup of S_{level}")
    words = group_words(n)
    tail = np.broadcast_to(np.arange(n + 1, level + 1), (len(words), level - n))
    return _frozen(word_ranks(np.hstack([words, tail])))


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


class CayleyLayer(NamedTuple):
    """One breadth-first layer: row child[k] is t_{generator[k]+1} * row parent[k]."""

    child: np.ndarray
    parent: np.ndarray
    generator: np.ndarray


@lru_cache(maxsize=8)
def cayley_layers(n: int) -> tuple[CayleyLayer, ...]:
    """Breadth-first walk of S_n from the identity (row 0) under left t_1, ..., t_{n-1}.

    Layer k holds the elements of Coxeter length k + 1, each with the first
    parent that reaches it: earliest in frontier order, then in generator
    order. Children are listed in the order they are first reached, which
    is the next frontier's order.

    >>> [len(layer.child) for layer in cayley_layers(4)]
    [3, 5, 6, 5, 3, 1]
    >>> layer = cayley_layers(3)[0]
    >>> layer.child, layer.parent, layer.generator
    (array([2, 1]), array([0, 0]), array([0, 1]))
    """
    step = left_adjacent_map(n)
    ngen = step.shape[1]
    seen = np.zeros(len(step), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    layers = []
    while True:
        reached = step[frontier].ravel()  # frontier order, then generator order
        rows, first = np.unique(reached, return_index=True)
        first = np.sort(first[~seen[rows]])
        if not len(first):
            return tuple(layers)
        child = reached[first]
        seen[child] = True
        layer = CayleyLayer(child, frontier[first // ngen], first % ngen)
        for arr in layer:
            arr.flags.writeable = False
        layers.append(layer)
        frontier = child
