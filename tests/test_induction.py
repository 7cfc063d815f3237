"""Induced product characters against conjugate-average and Littlewood-Richardson oracles."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from stablerep.characters import _mn, class_representative, mn_character
from stablerep.induction import character_inner, decompose_induced, induced_character
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import split_product, symmetric_group


def averaged_induced_character(n, lam, mu, m, buckets=None):
    """Ind(chi_lam x chi_mu)(s) = (1/|H|) sum over t in S_m of chi(t^-1 s t),
    with chi the product character on H = S_n x S_{n+1..m} and 0 off H.

    The literal definition, one representative s per class of S_m.
    buckets, if given, memoises per (m, n) how often t^-1 s t lands in H,
    bucketed by the cycle types of the two factors.
    """
    if buckets is None:
        buckets = {}
    if (m, n) not in buckets:
        dist = {}
        for nu in partitions_of(m):
            s = class_representative(nu)
            counts = Counter()
            for t in symmetric_group(m):
                parts = split_product(s.conjugate_by(t.inverse()), n)
                if parts is not None:
                    counts[(parts[0].cycle_type(), parts[1].cycle_type())] += 1
            dist[nu] = counts
        buckets[(m, n)] = dist
    order_h = math.factorial(n) * math.factorial(m - n)
    out = {}
    for nu, counts in buckets[(m, n)].items():
        total = sum(c * mn_character(lam, ct1) * mn_character(mu, ct2)
                    for (ct1, ct2), c in counts.items())
        out[nu] = Fraction(total, order_h)
    return out


def lr_coefficient(nu, lam, mu):
    """c^nu_{lam mu} by enumerating LR skew tableaux of shape nu/lam.

    Semistandard fillings of weight mu whose reverse reading word is a
    lattice word. Independent of the character machinery.
    """
    if len(lam) > len(nu) or any(l > n for l, n in zip(lam, nu)):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    lam_pad = tuple(lam) + (0,) * (rows - len(lam))
    cells = [(r, c) for r in range(rows) for c in range(lam_pad[r], nu[r])]
    if not cells:
        return 1

    counts = [0] * (len(mu) + 1)
    filling = {}
    fillings = []

    def collect(idx):
        if idx == len(cells):
            fillings.append(dict(filling))
            return
        r, c = cells[idx]
        for value in range(1, len(mu) + 1):
            if counts[value] >= mu[value - 1]:
                continue
            left = filling.get((r, c - 1))
            if left is not None and left > value:  # rows weakly increase
                continue
            up = filling.get((r - 1, c))
            if up is not None and up >= value:  # columns strictly increase
                continue
            counts[value] += 1
            filling[(r, c)] = value
            collect(idx + 1)
            del filling[(r, c)]
            counts[value] -= 1

    collect(0)
    good = 0
    for f in fillings:
        word = []
        for r in range(rows):
            for c in range(nu[r] - 1, lam_pad[r] - 1, -1):
                word.append(f[(r, c)])
        seen = [0] * (len(mu) + 2)
        lattice = True
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                lattice = False
                break
        good += lattice
    return good


def test_lr_oracle_pieri_sanity():
    # multiplying by a single row gives 0/1 coefficients on horizontal strips
    assert lr_coefficient((4, 1), (2, 1), (2,)) == 1
    assert lr_coefficient((3, 2), (2, 1), (2,)) == 1
    assert lr_coefficient((2, 2, 1), (2, 1), (2,)) == 1
    assert lr_coefficient((3, 1, 1), (3,), (2,)) == 0  # not a horizontal strip
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2


def test_frobenius_formula_matches_conjugate_average():
    buckets = {}
    checked = 0
    for m in range(0, 7):
        for n in range(0, m + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(m - n):
                    got = induced_character(n, lam, mu, m)
                    want = averaged_induced_character(n, lam, mu, m, buckets)
                    assert list(got) == list(want) and got == want, (n, lam, mu, m)
                    assert all(isinstance(v, Fraction) for v in got.values())
                    checked += 1
    assert checked == 139  # every (m, n, lam, mu) with m <= 6


def test_induced_multiplicities_match_lr():
    for m in range(2, 9):
        for n in range(1, m):
            for lam in partitions_of(n):
                for mu in partitions_of(m - n):
                    got = decompose_induced(n, lam, mu, m)
                    for nu in partitions_of(m):
                        want = lr_coefficient(nu, lam, mu)
                        assert got.get(nu, 0) == want, (nu, lam, mu)


def test_induced_dimension_count():
    # dim Ind = binomial(m, n) d_lam d_mu
    cases = [(2, (2,), (2, 1), 5), (3, (2, 1), (2,), 5), (2, (1, 1), (1, 1), 4)]
    for (n, lam, mu, m) in cases:
        mults = decompose_induced(n, lam, mu, m)
        total = sum(c * hook_dimension(nu) for nu, c in mults.items())
        assert total == math.comb(m, n) * hook_dimension(lam) * hook_dimension(mu)


def test_induced_dimension_count_at_m12():
    n, lam, mu, m = 6, (3, 2, 1), (4, 1, 1), 12
    mults = decompose_induced(n, lam, mu, m)
    total = sum(c * hook_dimension(nu) for nu, c in mults.items())
    assert total == math.comb(m, n) * hook_dimension(lam) * hook_dimension(mu)
    for nu in [(7, 3, 1, 1), (5, 3, 2, 1, 1), (4, 4, 2, 1, 1), (12,)]:
        assert mults.get(nu, 0) == lr_coefficient(nu, lam, mu), nu


def test_induced_character_values_are_integers():
    vals = induced_character(2, (1, 1), (2,), 4)
    assert set(vals) == set(partitions_of(4))
    for v in vals.values():
        assert isinstance(v, Fraction) and v.denominator == 1
    assert vals[(1, 1, 1, 1)] == math.comb(4, 2) * 1 * 1


def test_character_inner_is_exact():
    vals = induced_character(2, (2,), (1,), 3)
    assert character_inner(vals, (3,), 3) == 1
    assert character_inner(vals, (2, 1), 3) == 1
    assert character_inner(vals, (1, 1, 1), 3) == 0
    for lam in [(2,), (2, 1, 1), (1, 2)]:  # no partition of 3
        with pytest.raises(ValueError):
            character_inner(vals, lam, 3)


def test_an_empty_factor_gives_the_other_shape_once():
    # n = 0 or n = m: the same answer as the induced character's inner
    # products and the same input checks, with no Murnaghan-Nakayama value.
    for m in range(8):
        for n in {0, m}:
            for lam in partitions_of(n):
                for mu in partitions_of(m - n):
                    values = induced_character(n, lam, mu, m)
                    inner = {nu: character_inner(values, nu, m) for nu in partitions_of(m)}
                    assert decompose_induced(n, lam, mu, m) == {nu: c for nu, c in inner.items()
                                                                if c}
    for args in [(0, (1,), (2,), 3), (3, (2, 1), (1,), 3), (0, (), (2,), 3), (0, (), (2, 0), 2)]:
        with pytest.raises(ValueError) as got:
            decompose_induced(*args)
        with pytest.raises(ValueError) as want:
            induced_character(*args)
        assert str(got.value) == str(want.value)
    before = _mn.cache_info()
    assert decompose_induced(0, (), (3, 2, 1), 6) == {(3, 2, 1): 1}
    assert decompose_induced(4, (2, 2), (), 4) == {(2, 2): 1}
    after = _mn.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_lr_counts_equal_the_class_by_class_decomposition():
    # Every (n, lam, mu) with m <= 9: the same multiplicities, in the same
    # key order, as the Frobenius character's inner products.  That character
    # is symmetric in its two factors, so it is decomposed once per pair.
    oracle = {}
    for m in range(10):
        for n in range(m + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(m - n):
                    pair = (m, *sorted([lam, mu]))
                    if pair not in oracle:
                        values = induced_character(n, lam, mu, m)
                        oracle[pair] = [(nu, c) for nu in partitions_of(m)
                                        for c in [character_inner(values, nu, m)] if c]
                    got = decompose_induced(n, lam, mu, m)
                    assert list(got.items()) == oracle[pair], (n, lam, mu, m)
                    assert all(type(c) is int for c in got.values())
    assert len(oracle) == 373  # of the 734 cases


def test_lr_counts_take_no_character_value(monkeypatch):
    from stablerep import characters

    want = {args: decompose_induced(*args) for args in
            [(8, (5, 2, 1), (5, 2, 1), 16), (3, (2, 1), (3, 2, 1), 9), (0, (), (4, 2), 6)]}

    def no_mn(*args):
        raise AssertionError("a Murnaghan-Nakayama value was taken")

    monkeypatch.setattr(characters, "_mn", no_mn)
    assert {args: decompose_induced(*args) for args in want} == want
    assert sum(c * hook_dimension(nu) for nu, c in want[8, (5, 2, 1), (5, 2, 1), 16].items()) \
        == math.comb(16, 8) * hook_dimension((5, 2, 1)) ** 2
