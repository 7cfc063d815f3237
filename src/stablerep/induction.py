"""Characters induced from two-block Young subgroups.

The induced character is computed class by class with the Frobenius
formula (Macdonald, Symmetric Functions and Hall Polynomials, I.7):

    Ind(chi_lam x chi_mu)(nu) = z_nu * sum chi_lam(rho1) chi_mu(rho2) / (z_rho1 z_rho2)

summed over rho1 |- n and rho2 |- m - n whose cycles together make up
nu.  That is p(n) * p(m - n) exact terms and no group elements.  The
decomposition into irreducibles is exact integer arithmetic throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .characters import _mn, centralizer_order, class_size, mn_character
from .partitions import check_partition, partitions_of


def induced_character(
    n: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int
) -> dict[tuple[int, ...], Fraction]:
    """Character of Ind from S_n x S_{m-n} of (chi_lam outer chi_mu).

    Returns the value on each class of S_m, keyed by full cycle type.
    Values are exact and, being induced character values, integers.

    >>> induced_character(1, (1,), (1,), 2)
    {(2,): Fraction(0, 1), (1, 1): Fraction(2, 1)}
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if sum(mu) != m - n:
        raise ValueError(f"{mu} is not a partition of {m - n}")
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
    """<values, chi_lam> over S_m, with values keyed by class."""
    acc = Fraction(0)
    for nu in partitions_of(m):
        acc += class_size(nu) * Fraction(values[nu]) * mn_character(lam, nu)
    return acc / math.factorial(m)


def decompose_induced(
    n: int, lam: tuple[int, ...], mu: tuple[int, ...], m: int
) -> dict[tuple[int, ...], int]:
    """Multiplicities of each irreducible of S_m in the induced character.

    That of nu is character_inner's sum_tau |C_tau| Ind(tau) chi_nu(tau) / m!,
    summed in integers (induced character values are) and divided once.
    """
    if n in (0, m) and (sum(check_partition(lam)), sum(check_partition(mu))) == (n, m - n):
        return {check_partition(lam) or check_partition(mu): 1}  # S_0 x S_m: Ind changes nothing
    values = induced_character(n, lam, mu, m)
    weights = [(tau, int(v) * class_size(tau)) for tau, v in values.items()]
    order = math.factorial(m)
    out = {}
    for nu in partitions_of(m):
        # nu and tau come from partitions_of, so _mn needs no validation.
        c = Fraction(sum(w * _mn(nu, tau) for tau, w in weights), order)
        if c.denominator != 1 or c < 0:
            raise ValueError(f"multiplicity of {nu} is {c}, not a nonnegative integer")
        if c:
            out[nu] = int(c)
    return out
