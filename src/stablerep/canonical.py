"""Canonical stable states and their classification data.

A canonical state is labelled by a depth n, a partition of n and a
Thoma parameter pair.  Its value at s factors through the subgroup
product S_n * S_{N minus n}: the normalized finite character of the
partition on the first factor times the infinite character on the
second, and 0 whenever s admits no such factorization.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .characters import hook_dimension, mn_character
from .induction import decompose_induced
from .partitions import check_partition, conjugate_partition, partitions_of
from .permutations import (
    IDENTITY,
    Permutation,
    conjugation_map,
    cut_generators,
    cycle,
    cycle_lengths,
    group_words,
    transposition,
)
from .fourier import Evaluator, as_table, fourier
from .thoma import (RESIDUAL_TOL, FactorType, ThomaParams, recover_params, thoma_character,
                    type_classify)


class ClassificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CanonicalState:
    """The stable state with data (n, partition, params); callable on permutations.

    A state keeps the exact value of each pair of cycle types it has met,
    in a memo that ==, hash and repr ignore.

    >>> from fractions import Fraction
    >>> f = CanonicalState(2, (1, 1), ThomaParams(alpha=(Fraction(1, 2), Fraction(1, 2))))
    >>> f(transposition(1, 2))
    Fraction(-1, 1)
    >>> f(transposition(2, 3))
    0
    """

    n: int
    partition: tuple[int, ...]
    params: ThomaParams
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partition", check_partition(self.partition))
        if sum(self.partition) != self.n:
            raise ValueError(f"partition {self.partition} has weight != {self.n}")
        if self.n < 0:
            raise ValueError("depth must be >= 0")

    @property
    def alpha(self) -> tuple:
        return self.params.alpha

    @property
    def beta(self) -> tuple:
        return self.params.beta

    def __call__(self, s: Permutation):
        types = s.split_types(self.n)
        return 0 if types is None else self._value(*types)

    def _value(self, low: tuple[int, ...], high: tuple[int, ...]):
        """The value at s1 s2 from the cycle types of s1 in S_n and s2 fixing 1..n."""
        value = self._memo.get((low, high))
        if value is None:
            finite = Fraction(mn_character(self.partition, low), hook_dimension(self.partition))
            value = self._memo[low, high] = finite * thoma_character(self.params, high)
        return value

    def evaluate_words(self, words: np.ndarray) -> np.ndarray:
        """complex(self(s)) for the permutation s of each row of an (N, L) word array.

        A value depends only on the pair of cycle types of the split
        s = s1 s2, so each pair met is evaluated once, exactly, and
        gathered.

        >>> from fractions import Fraction
        >>> f = CanonicalState(2, (1, 1), ThomaParams(alpha=(Fraction(1, 2), Fraction(1, 2))))
        >>> f.evaluate_words(np.array([[2, 1, 3, 4], [1, 2, 4, 3], [1, 3, 2, 4]]))
        array([-1. +0.j,  0.5+0.j,  0. +0.j])
        """
        words = np.asarray(words)
        cut = min(self.n, words.shape[1])
        split = np.all(words[:, :cut] <= cut, axis=1)
        lengths = cycle_lengths(words[split])
        # A k-cycle puts k entries equal to k in its block, so the sorted
        # lengths on each side of the cut name the pair of cycle types.
        pairs = np.hstack([np.sort(lengths[:, :cut], axis=1), np.sort(lengths[:, cut:], axis=1)])
        _, first, which = np.unique(_row_codes(pairs, words.shape[1] + 1),
                                    return_index=True, return_inverse=True)
        values = [complex(self._value(_cycle_type(key[:cut]), _cycle_type(key[cut:])))
                  for key in pairs[first].tolist()]
        out = np.zeros(len(words), dtype=complex)
        out[split] = np.array(values, dtype=complex)[which.reshape(-1)]
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda": list(self.partition),
            "alpha": [float(a) for a in self.alpha],
            "beta": [float(b) for b in self.beta],
        }


def block_spectra(state: CanonicalState, m: int) -> dict:
    """Each Fourier block's eigenvalues on S_m, exactly: {shape: {eigenvalue: multiplicity}}.

    On S_n x S_N (N = m - n) the state is chi_mu/d_mu times theta = sum_b s_b chi_b, with
    s_b the Schur function at the Thoma point (Vershik-Kerov 1981), and 0 elsewhere: block
    lam is n! N! s_b/(d_mu^2 d_b) on its c^lam_{mu b} d_mu d_b dimensions of type mu x b, else
    0.  Below the depth, block a is m! <chi_mu, chi_a>/(d_mu d_a), where chi_mu restricted to
    S_m holds chi_a sum_nu c^mu_{a nu} d_nu times.  The c are Littlewood-Richardson counts.

    >>> F = Fraction
    >>> block_spectra(CanonicalState(2, (1, 1), ThomaParams((F(1, 2), F(1, 5)), (F(1, 4),))),
    ...               3)  # doctest: +NORMALIZE_WHITESPACE
    {(3,): {Fraction(0, 1): 1}, (2, 1): {Fraction(0, 1): 1, Fraction(2, 1): 1},
     (1, 1, 1): {Fraction(2, 1): 1}}
    """
    n, mu, d_mu = state.n, state.partition, hook_dimension(state.partition)
    spectra = {lam: Counter() for lam in partitions_of(m)}
    if m < n:  # the state on S_m is chi_mu/d_mu
        for a in partitions_of(m):
            d_a = hook_dimension(a)
            inner = sum(decompose_induced(m, a, nu, n).get(mu, 0) * hook_dimension(nu)
                        for nu in partitions_of(n - m))
            spectra[a][Fraction(math.factorial(m) * inner, d_mu * d_a)] += d_a
    else:
        scale = Fraction(math.factorial(n) * math.factorial(m - n), d_mu ** 2)
        for b, s_b in _schur_values(state.params, m - n).items():
            d_b = hook_dimension(b)
            for lam, c in decompose_induced(n, mu, b, m).items():
                spectra[lam][scale * s_b / d_b] += c * d_mu * d_b
    for lam, spectrum in spectra.items():  # the rest of each block is 0
        spectrum[Fraction(0)] += hook_dimension(lam) - spectrum.total()
    return {lam: dict(sorted((+spectrum).items())) for lam, spectrum in spectra.items()}


def _schur_values(params: ThomaParams, N: int) -> dict:
    """{b: s_b} for every b |- N at the Thoma point, exactly: det(h_{b_i-i+j}) over the rows of
    b, or det(e_{b'_i-i+j}) over those of its conjugate b' when b' has fewer (Jacobi-Trudi), with
    sum_k h_k t^k = e^{gamma t} prod (1 + beta t) / prod (1 - alpha t) and e_k the same with alpha
    and beta swapped.  The parameters are read as the exact rationals they are.

    >>> _schur_values(ThomaParams((Fraction(1, 2),), (Fraction(1, 4),)), 2)
    {(2,): Fraction(19, 32), (1, 1): Fraction(13, 32)}
    """
    alpha, beta = (tuple(map(Fraction, p)) for p in (params.alpha, params.beta))
    gamma = Fraction(1) - sum(alpha) - sum(beta)

    def series(poles, zeros):  # coefficients 0..N of e^{gamma t} prod (1 + z t) / prod (1 - p t)
        c = [gamma ** k / math.factorial(k) for k in range(N + 1)]
        for p in poles:  # times 1/(1 - p t): a running sum
            for k in range(1, N + 1):
                c[k] += p * c[k - 1]
        for z in zeros:  # times 1 + z t
            for k in range(N, 0, -1):
                c[k] += z * c[k - 1]
        return c

    h, e = series(alpha, beta), series(beta, alpha)
    out = {}
    for b in partitions_of(N):
        rows, coeff = (conjugate_partition(b), e) if b and b[0] < len(b) else (b, h)
        out[b] = _det([[coeff[r - i + j] if r - i + j >= 0 else 0 for j in range(len(rows))]
                       for i, r in enumerate(rows)])
    return out


def _det(rows: list) -> Fraction:
    """det of a Jacobi-Trudi matrix at a Thoma point, by elimination with no row swap.  Pivot
    k is a ratio s_c/s_c' >= 0 of Schur values of shapes inside b, and s_c = 0 makes s_b = 0
    (with gamma = 0, a shape off the hook of the nonzero parameters only grows off it)."""
    det = Fraction(1)
    for k, pivot in enumerate(rows):
        if not pivot[k]:
            return Fraction(0)
        det *= pivot[k]
        for i in range(k + 1, len(rows)):
            ratio = rows[i][k] / pivot[k]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], pivot)]
    return det


def _row_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 per row of an array with entries in 0..base-1, equal iff the rows are.

    The code reads the row as a number in base `base`.  Where that would
    overflow int64 (16 columns in base 17) the codes so far are first
    renumbered 0, 1, ... by value, so the rows stay told apart.
    """
    code = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every code so far is below span
    for column in rows.T:
        if span > np.iinfo(np.int64).max // base:
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
            span = len(rows)
        code *= base
        code += column
        span *= base
    return code


def _cycle_type(point_lengths: list[int]) -> tuple[int, ...]:
    """Cycle type (lengths >= 2, decreasing) from the cycle length at each point."""
    lengths = sorted(set(point_lengths) - {1}, reverse=True)
    return tuple(k for k in lengths for _ in range(point_lengths.count(k) // k))


# ---------------------------------------------------------------------------
# Shift sequences: conjugators that push a fixed permutation above every cut.


@dataclass(frozen=True)
class ShiftSequence:
    """Conjugators sigma_m, m0 <= m <= M, relocating supp(g) above each cut m.

    Invariants: sigma_m g sigma_m^-1 fixes 1..m, and consecutive
    conjugators differ by a cycle fixing 1..m, so the sequence witnesses
    the asymptotic character value of g.
    """

    g: Permutation
    m0: int
    sigmas: tuple[Permutation, ...]

    def sigma(self, m: int) -> Permutation:
        if not self.m0 <= m <= self.m0 + len(self.sigmas) - 1:
            raise IndexError(f"m={m} outside [{self.m0}, {self.m0 + len(self.sigmas) - 1}]")
        return self.sigmas[m - self.m0]

    def shifted(self, m: int) -> Permutation:
        s = self.sigma(m)
        return self.g.conjugate_by(s)

    def verify(self) -> bool:
        """Exact check of both defining memberships."""
        last = self.m0 + len(self.sigmas) - 1
        for m in range(self.m0, last + 1):
            if any(p <= m for p in self.shifted(m).support):
                return False
        for m in range(self.m0, last):
            step = self.sigma(m + 1) * self.sigma(m).inverse()
            if any(p <= m for p in step.support):
                return False
        return True


def shift_sequence(g: Permutation, M: int) -> ShiftSequence:
    """Build sigma_m for m0 <= m <= M, with m0 the level of g.

    sigma_m0 relocates the support of g to the block just above m0 by
    disjoint transpositions; each later conjugator prepends the cycle
    (m+1, ..., m+r+1), which fixes 1..m.
    """
    m0 = g.level
    if M < m0:
        raise ValueError("M must be >= m0")
    supp = sorted(g.support)
    r = len(supp)
    sigma = Permutation(
        {p: m0 + i + 1 for i, p in enumerate(supp)}
        | {m0 + i + 1: p for i, p in enumerate(supp)}
    )
    sigmas = [sigma]
    for m in range(m0, M):
        step = cycle(*range(m + 1, m + r + 2)) if r else IDENTITY
        sigma = step * sigma
        sigmas.append(sigma)
    return ShiftSequence(g, m0, tuple(sigmas))


@dataclass(frozen=True)
class AsymptoticResult:
    """Trace of state values along a shift sequence.

    stabilized_at is the smallest m from which consecutive values agree
    within the tolerance, None when the tail still moves; value is the
    final stable value (None when not stabilized).
    """

    values: tuple[tuple[int, complex], ...]
    stabilized_at: Optional[int]
    value: Optional[complex]


# The default largest step between values that asymptotic_character reads as stable.
STABILIZATION_TOL = 1e-12


def asymptotic_character(
    state: Evaluator,
    g: Permutation,
    M: int,
    tol: float = STABILIZATION_TOL,
) -> AsymptoticResult:
    """Evaluate state along a shift sequence of g and report stabilization.

    The state must be defined up to level M + |supp(g)|, and M must
    leave room for at least two values so stabilization is witnessed,
    never guessed.
    """
    seq = shift_sequence(g, M)
    if M < seq.m0 + 1:
        raise ValueError("need M >= m0 + 1 to witness stabilization")
    trace = tuple((m, state(seq.shifted(m))) for m in range(seq.m0, M + 1))
    stabilized = None
    for i in range(len(trace) - 1, 0, -1):
        if abs(complex(trace[i][1]) - complex(trace[i - 1][1])) <= tol:
            stabilized = trace[i - 1][0]
        else:
            break
    if stabilized is None:
        return AsymptoticResult(trace, None, None)
    return AsymptoticResult(trace, stabilized, trace[-1][1])


# ---------------------------------------------------------------------------
# Recovery of the discrete data (depth and partition) from an evaluator.


# Largest value, or change of value under a conjugation, that central_depth
# reads as 0 in a state's table.
CENTRAL_TOL = 1e-10


def central_depth(state: Evaluator, K: int) -> Optional[int]:
    """Smallest n <= K at which the state looks centrally supported.

    Checks, over all of S_K: vanishing off the subgroup product at cut n,
    and invariance under conjugation by generators of both factors, both
    within CENTRAL_TOL.  Returns None when no n <= K passes (reported
    upstream as "> K").
    """
    values = as_table(state, K).vector
    words = group_words(K)
    for n in range(K + 1):
        outside = ~np.all(words[:, :n] <= n, axis=1)
        if np.any(np.abs(values[outside]) > CENTRAL_TOL):
            continue
        if not any(
            np.any(np.abs(values[conjugation_map(K, t)] - values) > CENTRAL_TOL)
            for t in cut_generators(n, K)
        ):
            return n
    return None


# Smallest character projection that recover_lambda counts as surviving.
PROJECTION_TOL = 1e-8


def recover_lambda(state: Evaluator, n: int) -> tuple[int, ...]:
    """Identify the partition by projecting onto each irreducible character.

    Exactly one projection sum_{g in S_n} state(g) chi_mu(g), the trace of
    the state's Fourier block of shape mu, must exceed PROJECTION_TOL;
    anything else raises ClassificationError.
    """
    if n == 0:
        return ()
    blocks = fourier(as_table(state, n))
    survivors = [mu for mu, b in blocks.items() if abs(np.trace(b)) > PROJECTION_TOL]
    if len(survivors) != 1:
        raise ClassificationError(
            f"character projection found {len(survivors)} surviving partitions: {survivors}"
        )
    return survivors[0]


@dataclass(frozen=True)
class ClassificationResult:
    invariant: CanonicalState
    factor_type: FactorType
    residual: float
    asymptotic_values: dict[int, float]
    stabilized_at: dict[int, int]

    def to_json(self) -> dict:
        out = self.invariant.to_json()
        out["factor_type"] = self.factor_type.value
        out["residual"] = self.residual
        out["asymptotic_values"] = {str(k): v for k, v in sorted(self.asymptotic_values.items())}
        out["stabilized_at"] = {str(k): v for k, v in sorted(self.stabilized_at.items())}
        return out


# Largest gap, in any value on S_K, between a classified state and the
# canonical state of its invariant.  RESIDUAL_TOL bounds a sum of squared
# value misfits, so its square root is the matching bound on one value.
REPRODUCTION_TOL = math.sqrt(RESIDUAL_TOL)


def classify(
    state: Evaluator,
    K: int,
    support_bounds: tuple[int, int],
) -> ClassificationResult:
    """Recover the canonical state (n, partition, alpha, beta) of a state.

    Runs central_depth at truncation K, projects onto finite characters,
    reads asymptotic values on k-cycles for k = 2..max(K, r + s + 1), and
    fits Thoma parameters within the support bounds (r, s).  The k-cycle
    is shifted up to level max(k, n) + k + 2, so a bounded table must reach
    level 2 max(K, r + s + 1) + 2; below that ValueError names the first
    permutation past it.  The caller judges the returned residual.  A fit
    within RESIDUAL_TOL must also reproduce the state on S_K to
    REPRODUCTION_TOL: when K is at most the depth, the state on S_K is a
    class function, central_depth reads n = 0 there, and such an invariant
    is refused, not returned.  S_0 and S_1 hold no transposition to read a
    depth from, so K < 2 raises ValueError.
    """
    if K < 2:
        raise ValueError(f"S_{K} holds no transposition, so no depth can be read; "
                         "classify needs level >= 2")
    r, s = support_bounds
    table = as_table(state, K)
    n = central_depth(table, K)
    if n is None:
        raise ClassificationError(f"no central depth found up to truncation {K}")
    lam = recover_lambda(state, n)
    values: dict[int, float] = {}
    stabilized: dict[int, int] = {}
    for k in range(2, max(K, r + s + 1) + 1):
        g = cycle(*range(1, k + 1))
        res = asymptotic_character(state, g, M=max(k, n) + 2)
        if res.stabilized_at is None:
            raise ClassificationError(
                f"asymptotic value of the {k}-cycle did not stabilize: {res.values}"
            )
        values[k] = float(complex(res.value).real)
        stabilized[k] = res.stabilized_at
    rec = recover_params(values, support_bounds)
    invariant = CanonicalState(n, lam, rec.params)
    if rec.residual <= RESIDUAL_TOL:
        gap = float(np.max(np.abs(as_table(invariant, K).vector - table.vector)))
        if gap > REPRODUCTION_TOL:
            raise ClassificationError(
                f"the recovered invariant misses the state on S_{K} by {gap!r}"
            )
    return ClassificationResult(
        invariant, type_classify(rec.params), rec.residual, values, stabilized,
    )


def _padded_close(a: Sequence[float], b: Sequence[float], tol: float) -> bool:
    width = max(len(a), len(b))
    pa = list(a) + [0.0] * (width - len(a))
    pb = list(b) + [0.0] * (width - len(b))
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(pa, pb))


# The default largest parameter gap that quasi_equivalent ignores.
EQUIVALENCE_TOL = 1e-9


def quasi_equivalent(a: CanonicalState, b: CanonicalState, tol: float = EQUIVALENCE_TOL) -> bool:
    """Equality of invariants: same depth, same partition, same parameters.

    Parameter lists are compared entrywise after zero padding, so an
    entry within tol of 0 in one list matches a missing entry in the other.
    """
    return (
        a.n == b.n
        and tuple(a.partition) == tuple(b.partition)
        and _padded_close(a.alpha, b.alpha, tol)
        and _padded_close(a.beta, b.beta, tol)
    )
