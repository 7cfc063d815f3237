"""Reference mathematics for checking stablerep outputs, written apart from it.

Nothing here imports stablerep.  Permutations are lists of disjoint
cycles, partitions are tuples, and every value is an exact Fraction, so a
check compares against a computation that shares no code with the
program under test.

- Canonical state values come from the Thoma power-sum formula times
  hand character values.  Only shapes with a hand character are used:
  every partition of 3 and the trivial and sign shapes of any size.
- Dimensions come from the hook length formula.
- Multiplicities of an induced character are checked by the dimension
  identity and, when one factor has a single row, by the Pieri rule.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# chi_lambda on a class of S_3, keyed by the cycle lengths >= 2 of the class.
HAND_CHARACTERS_S3 = {
    (3,): {(): 1, (2,): 1, (3,): 1},
    (2, 1): {(): 2, (2,): 0, (3,): -1},
    (1, 1, 1): {(): 1, (2,): -1, (3,): 1},
}


def hand_shapes(n):
    """Partitions of n whose characters this module knows by hand."""
    if n == 3:
        return [(3,), (2, 1), (1, 1, 1)]
    if n == 0:
        return [()]
    return sorted({(n,), (1,) * n}, reverse=True)


def cycles_of(word):
    """Disjoint cycles (length >= 2) of the one-line word (w(1), ..., w(n))."""
    seen, out = set(), []
    for start in range(1, len(word) + 1):
        if start in seen:
            continue
        cyc, j = [start], word[start - 1]
        seen.add(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = word[j - 1]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def all_cycles(level):
    """Every element of S_level as a cycle list."""
    return [cycles_of(w) for w in itertools.permutations(range(1, level + 1))]


def power_sum(alpha, beta, k):
    return sum(a**k for a in alpha) + (-1) ** (k + 1) * sum(b**k for b in beta)


def thoma_value(alpha, beta, lengths):
    value = Fraction(1)
    for k in lengths:
        if k >= 2:
            value *= power_sum(alpha, beta, k)
    return value


def hand_character(lam, lengths):
    """chi_lam on the class with the given cycle lengths (>= 2), lam a hand shape."""
    lengths = tuple(sorted((k for k in lengths if k >= 2), reverse=True))
    if lam in HAND_CHARACTERS_S3:
        return HAND_CHARACTERS_S3[lam][lengths]
    if len(lam) <= 1:
        return 1
    if set(lam) == {1}:
        return (-1) ** sum(k - 1 for k in lengths)
    raise ValueError("no hand character for %r" % (lam,))


def hook_dimension(lam):
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def state_value(n, lam, alpha, beta, cycles):
    """Canonical state (n, lam, alpha, beta) at a permutation given by cycles."""
    low = [len(c) for c in cycles if max(c) <= n]
    high = [len(c) for c in cycles if min(c) > n]
    if len(low) + len(high) != len(cycles):
        return Fraction(0)
    finite = Fraction(hand_character(lam, low), hook_dimension(lam))
    return finite * thoma_value(alpha, beta, high)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, largest), 0, -1)
            for rest in partitions(n - p, p)]


def horizontal_strip(lam, nu):
    """True iff nu / lam is a horizontal strip (lam inside nu, no two boxes in a column)."""
    if not len(lam) <= len(nu) <= len(lam) + 1:
        return False
    lam = list(lam) + [0] * (len(nu) - len(lam))
    for i, part in enumerate(nu):
        if part < lam[i] or (i > 0 and part > lam[i - 1]):
            return False
    return True


def check_induced(lam, mu, mults):
    """None if mults (nu -> c) can be Ind(lam x mu), else the reason it cannot."""
    m = sum(lam) + sum(mu)
    if any(c <= 0 or sum(nu) != m for nu, c in mults.items()):
        return "multiplicities must be positive and labelled by partitions of %d" % m
    want = math.comb(m, sum(lam)) * hook_dimension(lam) * hook_dimension(mu)
    got = sum(c * hook_dimension(nu) for nu, c in mults.items())
    if got != want:
        return "sum of c_nu d_nu is %d, expected %d" % (got, want)
    for base, row in ((lam, mu), (mu, lam)):
        if len(row) == 1:
            pieri = {nu: 1 for nu in partitions(m) if horizontal_strip(base, nu)}
            if mults != pieri:
                return "multiplicities break the Pieri rule for %r" % (row,)
    return None


def padded_close(got, want, tol):
    got, want = sorted(got, reverse=True), sorted(want, reverse=True)
    width = max(len(got), len(want))
    got = list(got) + [0.0] * (width - len(got))
    want = list(want) + [0.0] * (width - len(want))
    return all(abs(float(g) - float(w)) <= tol for g, w in zip(got, want))


def self_test():
    """Hand cases for the oracles above; raises AssertionError on a mismatch."""
    assert [hook_dimension(l) for l in partitions(4)] == [1, 3, 2, 3, 1]
    assert sum(hook_dimension(l) ** 2 for l in partitions(6)) == 720
    assert cycles_of((2, 1, 4, 5, 3)) == [[1, 2], [3, 4, 5]]
    # Column orthogonality of the S_3 table: sum over shapes chi(e) chi(g) = 0 for g != e.
    for cls in ((2,), (3,)):
        assert sum(HAND_CHARACTERS_S3[l][()] * HAND_CHARACTERS_S3[l][cls]
                   for l in HAND_CHARACTERS_S3) == 0
    assert hand_character((1, 1, 1, 1), (2, 2)) == 1
    assert hand_character((1, 1, 1, 1), (3,)) == 1 and hand_character((1, 1), (2,)) == -1
    half = (Fraction(1, 2),)
    assert thoma_value(half, half, (2,)) == 0 and thoma_value(half, half, (3,)) == Fraction(1, 4)
    assert state_value(2, (1, 1), half + half, (), [[1, 2], [3, 4]]) == Fraction(-1, 2)
    assert state_value(2, (2,), half, (), [[2, 3]]) == 0
    # Ind from S_2 x S_1 of the trivial character: (3) + (2,1).
    assert check_induced((2,), (1,), {(3,): 1, (2, 1): 1}) is None
    assert check_induced((2,), (1,), {(3,): 1, (1, 1, 1): 1}) is not None
    assert check_induced((1, 1), (2,), {(3, 1): 1, (2, 1, 1): 1}) is None
    # Ind of (2,1) x (1,1) to S_5: add a vertical 2-strip to (2,1).
    lr = {(3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}
    assert check_induced((2, 1), (1, 1), lr) is None
    assert check_induced((2, 1), (1, 1), {**lr, (2, 2, 1): 2}) is not None
    assert padded_close([0.5, 0.25], [0.25, 0.5, 0.0], 1e-12)
