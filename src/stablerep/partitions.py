"""Integer partitions, Young diagrams and standard tableaux."""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterable


def is_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return all(isinstance(p, int) and p >= 1 for p in lam) and all(
        a >= b for a, b in zip(lam, lam[1:])
    )


def check_partition(lam: Iterable[int]) -> tuple[int, ...]:
    lam = tuple(operator.index(p) for p in lam)  # rejects floats, keeps np ints
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, weakly decreasing, in reverse lexicographic order.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def hook_dimension(lam: Iterable[int]) -> int:
    """Number of standard Young tableaux of shape lam, by the hook length formula.

    >>> hook_dimension((2, 1))
    2
    >>> hook_dimension((3, 2))
    5
    """
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    cols = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    d, rem = divmod(math.factorial(n), hooks)
    assert rem == 0
    return d


def conjugate_partition(lam: Iterable[int]) -> tuple[int, ...]:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


@lru_cache(maxsize=None)
def standard_tableaux(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard Young tableaux of shape lam, as tuples of rows.

    Entries 1..n increase along rows and down columns.  The tableaux are
    listed in lexicographic order of their row words (the row of each
    entry 1, ..., n in turn): the depth-first fill below tries the rows
    for each entry top to bottom, so it emits them in that order.  This
    is the basis order of the orthogonal representation matrices.

    >>> standard_tableaux((2, 1))
    (((1, 2), (3,)), ((1, 3), (2,)))
    """
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return ((),)
    rows = len(lam)
    results: list[tuple[tuple[int, ...], ...]] = []
    fill: list[list[int]] = [[] for _ in range(rows)]

    def place(k: int) -> None:
        if k > n:
            results.append(tuple(tuple(r) for r in fill))
            return
        for i in range(rows):
            j = len(fill[i])
            if j >= lam[i]:
                continue
            if i > 0 and len(fill[i - 1]) <= j:
                continue
            fill[i].append(k)
            place(k + 1)
            fill[i].pop()

    place(1)
    return tuple(results)
