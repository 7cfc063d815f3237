"""Characters induced from two-block Young subgroups.

The induced character is computed class by class with the Frobenius
formula (Macdonald, Symmetric Functions and Hall Polynomials, I.7):

    Ind(chi_lam x chi_mu)(nu) = z_nu * sum chi_lam(rho1) chi_mu(rho2) / (z_rho1 z_rho2)

summed over rho1 |- n and rho2 |- m - n whose cycles together make up
nu.  That is p(n) * p(m - n) exact terms and no group elements.  The
multiplicity of nu in it is the Littlewood-Richardson coefficient
c^nu_{lam mu}, which decompose_induced counts as LR tableaux (Macdonald,
I.9), with no character value; character_inner gives it class by class.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping

from .characters import _mn, centralizer_order, mn_character
from .partitions import check_partition, partitions_of


def _checked(n: int, lam, mu, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """lam and mu as partitions of n and m - n, else ValueError."""
    lam, mu = check_partition(lam), check_partition(mu)
    for shape, size in ((lam, n), (mu, m - n)):
        if sum(shape) != size:
            raise ValueError(f"{shape} is not a partition of {size}")
    return lam, mu


def induced_character(
    n: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int
) -> dict[tuple[int, ...], Fraction]:
    """Character of Ind from S_n x S_{m-n} of (chi_lam outer chi_mu).

    Returns the value on each class of S_m, keyed by full cycle type.
    Values are exact and, being induced character values, integers.

    >>> induced_character(1, (1,), (1,), 2)
    {(2,): Fraction(0, 1), (1, 1): Fraction(2, 1)}
    """
    lam, mu = _checked(n, lam, mu, m)
    # chi(rho) / z_rho on each class of each factor
    left = [(r, Fraction(mn_character(lam, r), centralizer_order(r)))
            for r in partitions_of(n)]
    right = [(r, Fraction(mn_character(mu, r), centralizer_order(r)))
             for r in partitions_of(m - n)]
    out = {nu: Fraction(0) for nu in partitions_of(m)}
    for rho1, a in left:
        for rho2, b in right:
            out[tuple(sorted(rho1 + rho2, reverse=True))] += a * b
    return {nu: centralizer_order(nu) * v for nu, v in out.items()}


def character_inner(
    values: Mapping[tuple[int, ...], Fraction], lam: tuple[int, ...], m: int
) -> Fraction:
    """<values, chi_lam> over S_m, with values keyed by class: the sum over nu |- m of
    values[nu] chi_lam(nu) / z_nu, as class_size(nu) / m! = 1 / z_nu."""
    lam = check_partition(lam)
    if sum(lam) != m:
        raise ValueError(f"{lam} is not a partition of {m}")
    return sum((Fraction(values[nu]) * _mn(lam, nu) / centralizer_order(nu)
                for nu in partitions_of(m)), Fraction(0))


def decompose_induced(
    n: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int
) -> dict[tuple[int, ...], int]:
    """Multiplicities of each irreducible of S_m in the induced character, in
    partitions_of(m) order: the Littlewood-Richardson coefficients c^nu_{lam mu}.
    LR tableaux grow the larger shape by a horizontal strip of i's per row i of
    the other; by the lattice condition, rows <= r take at most as many i's as
    rows < r hold (i-1)'s.  Tableaux with the same shape and i's per row grow
    alike, so they are counted as one.

    >>> decompose_induced(2, (1, 1), (2, 1), 5)
    {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}
    """
    lam, mu = _checked(n, lam, mu, m)
    if sum(mu) > sum(lam):
        lam, mu = mu, lam  # c^nu_{lam mu} = c^nu_{mu lam}
    grown = {(lam, None): 1}  # (shape, i's per row) -> tableaux
    for size in mu:
        step = Counter()
        for (shape, last), count in grown.items():
            for strip in _strips(shape + (0,), size, last):
                step[tuple(map(sum, zip_longest(shape, strip, fillvalue=0))), strip] += count
        grown = step
    out = Counter()
    for (shape, _), count in grown.items():
        out[shape] += count
    return dict(sorted(out.items(), reverse=True))  # the order of partitions_of(m)


def _strips(rows, left, last, r=0, placed=0):
    """Cells per row, to the last nonzero, of each horizontal strip of `left` cells on
    the shape `rows` (which ends in a 0) from row r on, after `placed` above it.  Rows
    <= r may hold sum(last[:r]) of its cells in all; the first label has no `last`."""
    if not left:
        yield ()
    elif r < len(rows):
        room = left if r == 0 else rows[r - 1] - rows[r]
        if last is not None:
            room = min(room, sum(last[:r]) - placed)
        for a in range(min(left, room), -1, -1):
            for rest in _strips(rows, left - a, last, r + 1, placed + a):
                yield (a,) + rest
