"""Exact irreducible characters of finite symmetric groups.

Character values are computed by the Murnaghan-Nakayama border strip
recursion in integer arithmetic; no floating point enters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .partitions import check_partition, hook_dimension, partitions_of
from .permutations import Permutation


def _beta_set(lam: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(lam)
    return tuple(lam[i] + ell - 1 - i for i in range(ell))


def _beta_to_partition(beta: tuple[int, ...]) -> tuple[int, ...]:
    ell = len(beta)
    parts = tuple(beta[i] - (ell - 1 - i) for i in range(ell))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    # Remove a border strip of length mu[0]; recurse on the rest.
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    beta = _beta_set(lam)
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = tuple(sorted((x for x in bset - {b} | {c}), reverse=True))
        total += (-1) ** height * _mn(_beta_to_partition(new_beta), rest)
    return total


def mn_character(lam: Iterable[int], cycle_type: Iterable[int]) -> int:
    """Character of the irreducible S_n representation lam on a class.

    cycle_type lists cycle lengths; entries equal to 1 may be omitted
    (fixed points are padded to the weight of lam).

    >>> mn_character((2, 1), (3,))
    -1
    >>> mn_character((2, 1), ())
    2
    """
    lam = check_partition(lam)
    n = sum(lam)
    ct = tuple(sorted((int(k) for k in cycle_type if int(k) != 1), reverse=True))
    if any(k < 1 for k in ct):
        raise ValueError("cycle lengths must be positive")
    moved = sum(ct)
    if moved > n:
        raise ValueError(f"cycle type {ct} does not fit in S_{n}")
    mu = ct + (1,) * (n - moved)
    return _mn(lam, mu)


def normalized_character(lam: Iterable[int], cycle_type: Iterable[int]) -> Fraction:
    """mn_character divided by the dimension; exact rational."""
    lam = check_partition(lam)
    return Fraction(mn_character(lam, cycle_type), hook_dimension(lam))


def character_value(lam: Iterable[int], g: Permutation) -> int:
    """Character of lam at a group element of compatible level."""
    lam = check_partition(lam)
    return mn_character(lam, g.cycle_type())


def centralizer_order(mu: Iterable[int]) -> int:
    """z_mu = prod_k k^(m_k) m_k!, the order of the centralizer of an element
    of cycle type mu, where m_k counts the parts of mu equal to k.

    >>> centralizer_order((2, 1, 1))
    4
    """
    mu = check_partition(mu)
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k**m * math.factorial(m)
    return z


def class_size(mu: Iterable[int]) -> int:
    """Size of the conjugacy class of S_n with full cycle type mu (a partition of n)."""
    mu = check_partition(mu)
    size, rem = divmod(math.factorial(sum(mu)), centralizer_order(mu))
    assert rem == 0
    return size


def class_representative(mu: Iterable[int]) -> Permutation:
    """A permutation with full cycle type mu, built from consecutive blocks."""
    mu = check_partition(mu)
    cycles = []
    start = 1
    for k in mu:
        if k > 1:
            cycles.append(list(range(start, start + k)))
        start += k
    return Permutation.from_cycles(cycles)


def character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Full character table of S_n: table[lam][mu] with mu a partition of n.

    Rows and columns both run over partitions_of(n).
    """
    classes = partitions_of(n)
    return {
        lam: {mu: mn_character(lam, mu) for mu in classes} for lam in partitions_of(n)
    }
