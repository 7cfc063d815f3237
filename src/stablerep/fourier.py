"""Noncommutative Fourier analysis on a truncated symmetric group.

A function f on S_n is summarised by its blocks sum_g f(g) rho_lam(g),
one per shape lam of weight n.  One engine computes them, Clausen's
recursion over the cosets of S_1 < ... < S_n (M. Clausen, "Fast
generalized Fourier transforms", TCS 1989), and its transpose inverts
them.  The norm dual to the group C* algebra norm is the weighted sum of
block trace norms; positive definiteness is certified block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from .partitions import hook_dimension, partitions_of
from .permutations import (
    IDENTITY,
    Permutation,
    element_row,
    group_words,
    inverse_map,
    product_table,
    symmetric_group,
    word_ranks,
)
from .yor import branching


class StateFunction:
    """A complex-valued function on S_level, held as one vector of values.

    The vector is indexed like symmetric_group(level), in rank order (see
    permutations.word_ranks): restriction to S_n keeps its first n! values,
    and conjugation and inversion are index maps over it.  Calling it on a
    permutation above its level is an error, not 0: the function carries no
    information out there.
    """

    __slots__ = ("level", "vector")

    def __init__(self, level: int, values: Mapping[Permutation, complex]):
        if level < 0:
            raise ValueError("level must be >= 0")
        for g in values:
            if g.level > level:
                raise ValueError(f"{g} exceeds level {level}")
        vec = np.zeros(math.factorial(level), dtype=complex)
        if values:
            words = np.array([g.one_line(level) for g in values]).reshape(len(values), level)
            vec[word_ranks(words)] = [complex(v) for v in values.values()]
        vec.flags.writeable = False
        self.level = level
        self.vector = vec

    @classmethod
    def from_vector(cls, level: int, vector) -> "StateFunction":
        """The function whose values in symmetric_group(level) order are vector (copied)."""
        if level < 0:
            raise ValueError("level must be >= 0")
        vec = np.array(vector, dtype=complex)
        if vec.shape != (math.factorial(level),):
            raise ValueError(f"level {level} takes {math.factorial(level)} values, got {vec.shape}")
        vec.flags.writeable = False
        f = cls.__new__(cls)
        f.level = level
        f.vector = vec
        return f

    @classmethod
    def from_callable(
        cls, level: int, fn: Callable[[Permutation], complex]
    ) -> "StateFunction":
        """Tabulate fn on S_level.

        An evaluator with an evaluate_words method (a CanonicalState, or
        its conjugate from stability.ad_orbit_state) is tabulated in one
        call on group_words(level); any other callable once per element.
        """
        evaluate_words = getattr(fn, "evaluate_words", None)
        if evaluate_words is not None:
            return cls.from_vector(level, evaluate_words(group_words(level)))
        return cls.from_vector(level, [complex(fn(g)) for g in symmetric_group(level)])

    @classmethod
    def delta(cls, level: int, g: Permutation = IDENTITY) -> "StateFunction":
        return cls(level, {g: 1.0})

    @classmethod
    def from_class_function(
        cls, level: int, fn: Callable[[tuple[int, ...]], complex]
    ) -> "StateFunction":
        return cls.from_callable(level, lambda g: fn(g.cycle_type()))

    def __call__(self, g: Permutation) -> complex:
        if g.level > self.level:
            raise ValueError(f"{g} exceeds level {self.level}")
        return complex(self.vector[element_row(g, self.level)])

    def restrict(self, n: int) -> "StateFunction":
        """Literal restriction to the subgroup S_n: the first n! values."""
        if not 0 <= n <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to level {n}")
        return StateFunction.from_vector(n, self.vector[: math.factorial(n)])

    def __sub__(self, other: "StateFunction") -> "StateFunction":
        if not isinstance(other, StateFunction):
            return NotImplemented
        if other.level != self.level:
            raise ValueError("levels differ; restrict first")
        with np.errstate(over="ignore", invalid="ignore"):  # fourier refuses a non-finite one
            return StateFunction.from_vector(self.level, self.vector - other.vector)

    def __rmul__(self, c: complex) -> "StateFunction":
        return StateFunction.from_vector(self.level, c * self.vector)

    def hermitian_defect(self) -> float:
        """max |f(g^-1) - conj f(g)| over S_level."""
        vec = self.vector
        with np.errstate(over="ignore"):  # a gap past the float range reads inf
            return float(np.max(np.abs(vec[inverse_map(self.level)] - np.conj(vec))))

    def __repr__(self) -> str:
        return f"StateFunction(level={self.level}, support={np.count_nonzero(self.vector)})"


@dataclass(frozen=True)
class FourierBlocks:
    level: int
    blocks: dict[tuple[int, ...], np.ndarray]

    def __getitem__(self, lam: tuple[int, ...]) -> np.ndarray:
        return self.blocks[lam]

    def items(self) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        return iter(self.blocks.items())


@dataclass(frozen=True)
class PsdCertificate:
    positive: bool
    min_eigenvalue: float
    witness: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.positive


# A state to evaluate: a StateFunction table, a CanonicalState, or any
# callable on permutations (a StateFunction is one too).
Evaluator = Callable[[Permutation], complex]


def as_table(f: Evaluator, level: Optional[int] = None) -> StateFunction:
    """Materialize an evaluator as a value table on S_level.

    A table is cut down to the level (None keeps its own), and one that
    stops below it is refused with ValueError.  A CanonicalState, or its
    pullback from stability.ad_orbit_state, is tabulated once per pair of
    cycle types; any other callable is evaluated element by element.
    """
    if isinstance(f, StateFunction):
        if level is None or level == f.level:
            return f
        if f.level < level:
            raise ValueError(
                "state table stops at level %d, below requested level %d" % (f.level, level)
            )
        return f.restrict(level)
    if level is None:
        raise ValueError("a bare callable needs an explicit level")
    return StateFunction.from_callable(level, f)


def check_finite(arrays: Iterable[np.ndarray], what: str) -> None:
    """Refuse, with OverflowError, arrays that hold an inf or a nan (scanned one by one)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise OverflowError(f"{what} holds a number that is not finite")


def _real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real a and a C-contiguous complex z, as one real product."""
    return np.matmul(a, z.view(np.float64)).view(complex)


def fourier(f: StateFunction) -> FourierBlocks:
    """Blocks sum_g f(g) rho_lam(g) for every shape lam of weight f.level.

    Clausen's recursion over S_1 < ... < S_n.  Read backwards, the table
    lists S_n as nested cosets c_{j_n} ... c_{j_1}, c_j = (j j+1 ... k) in
    S_k, with j_n - 1 the top mixed-radix digit of the position.  So S_k is
    the union of the cosets c_j S_{k-1}, and the block of a coset prefix is
    sum_j rho_lam(c_j) (+)_mu B_j(mu), where B_j(mu) is the S_{k-1} block
    of the prefix extended by c_j and (+)_mu places it on mu's rows of
    yor.branching, so its columns there are mu's column block times the
    B_j(mu) stacked over j: one batched matrix product per corner, shape
    and level over all prefixes.
    """
    f = as_table(f)
    n = f.level
    fact = math.factorial(n)
    blocks = {(): np.ascontiguousarray(f.vector[::-1]).reshape(fact, 1, 1)}
    # A sum that overflows leaves an inf or a nan in a final block, and so
    # does a value that is not finite (the trivial block sums them all), so
    # one check after the recursion refuses both and numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            prefixes = fact // math.factorial(k)
            grown = {}
            for lam in partitions_of(k):
                corners, order = branching(lam)
                parts = [_real_matmul(columns, blocks[mu].reshape(prefixes, -1, len(r)))
                         for mu, (r, columns) in corners.items()]
                # One corner holds every column, in basis order already.
                grown[lam] = (parts[0] if len(parts) == 1
                              else np.take(np.concatenate(parts, axis=2), order, axis=2))
            blocks = grown
    check_finite(blocks.values(), "a Fourier block")
    return FourierBlocks(n, {lam: b[0] for lam, b in blocks.items()})


def inverse_fourier(blocks: FourierBlocks) -> StateFunction:
    """f(g) = (1/n!) sum_lam d_lam tr(blocks[lam] rho_lam(g^-1)).

    As rho_lam(g^-1) = rho_lam(g)^T, f(g) = sum_lam <A_lam, rho_lam(g)>
    with A_lam = d_lam blocks[lam] / n! and <X, Y> = sum_ab X_ab Y_ab, so
    this is fourier's recursion transposed, run on the A_lam from S_n
    down.  A shape mu of S_{k-1} sums what every lam containing it hands
    down: mu's column block, transposed, times A_lam's columns on mu's rows.
    """
    n = blocks.level
    fact = math.factorial(n)
    adj = {lam: hook_dimension(lam) / fact * np.asarray(b, dtype=complex)[None]
           for lam, b in blocks.items()}
    for k in range(n, 0, -1):
        down = {}
        for lam in partitions_of(k):
            corners = branching(lam)[0]
            for mu, (r, columns) in corners.items():
                # One corner holds every column, in basis order already.
                a = adj[lam] if len(corners) == 1 else np.take(adj[lam], r, axis=2)
                up = _real_matmul(columns.T, a)
                if mu in down:
                    down[mu] += up
                else:
                    down[mu] = up
        adj = {mu: a.reshape(-1, a.shape[2], a.shape[2]) for mu, a in down.items()}
    return StateFunction.from_vector(n, adj[()].ravel()[::-1])


def dual_norm(f: StateFunction) -> float:
    """Norm of f as a functional on the group C* algebra of S_level: the
    spectral_norm of its blocks sum_g f(g) rho_lam(g^-1)."""
    f = as_table(f)
    with np.errstate(over="ignore"):  # an inf term gives an inf norm, and no warning
        # rho is orthogonal, so the g^-1 block is the transpose; same singular values.
        return spectral_norm(f.level, {lam: np.linalg.svd(block, compute_uv=False)
                                       for lam, block in fourier(f).items()})


def spectral_norm(level: int, spectra: Mapping) -> float:
    """sum_lam (d_lam / level!) sum |x| over spectra[lam], block lam's singular values or
    eigenvalues (a sequence or a dict {x: multiplicity}), summed exactly, divided once."""
    terms = [d * m * abs(x) for lam, s in spectra.items() for d in [hook_dimension(lam)]
             for x, m in (s.items() if isinstance(s, dict) else ((x, 1) for x in s))]
    total = math.fsum(terms) if any(isinstance(t, float) for t in terms) else sum(terms)
    return float(total / math.factorial(level))


# Relative float noise within which two values tie for a witness.
WITNESS_SLACK = 1e-12
# Largest |f(g^-1) - conj f(g)| that is accepted as hermitian.
HERMITIAN_TOL = 1e-8


def check_hermitian(f: StateFunction) -> None:
    """Refuse, with ValueError, an f whose hermitian_defect exceeds HERMITIAN_TOL."""
    defect = f.hermitian_defect()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"input is not hermitian (defect {defect:.3e})")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, computed as m / 2 + m^H / 2.

    The two agree but for subnormals, and this one is finite wherever m is.
    """
    return m / 2 + m.conj().T / 2


# The default largest -lambda_min that is_positive_definite certifies.
PSD_TOL = 1e-9


def is_positive_definite(f: StateFunction, tol: float = PSD_TOL) -> PsdCertificate:
    """Certify positive definiteness via the minimal block eigenvalue.

    Rejects non-hermitian input.  The certificate is equivalent to the
    Gram matrix [f(h^-1 g)] over S_level being positive semidefinite.
    """
    check_hermitian(f)
    spectra = {lam: np.linalg.eigvalsh(hermitian_part(block)) for lam, block in fourier(f).items()}
    return psd_certificate(spectra, float(np.abs(f.vector).sum()), tol)


def psd_certificate(spectra: Mapping, mass: float, tol: float = PSD_TOL) -> PsdCertificate:
    """The certificate from block eigenvalues given as in spectral_norm.  The witness is
    the first shape whose least eigenvalue is within WITNESS_SLACK * mass of the smallest:
    mass = sum_g |f(g)| bounds every block's norm, so shapes that tie in exact arithmetic
    do not pick the witness by their rounding.  Exact spectra tie only when equal, and take
    mass 0: their witness is the first exact argmin."""
    lows = {lam: min(s) for lam, s in spectra.items()}
    worst = min(lows.values())
    slack = WITNESS_SLACK * mass
    witness = next(lam for lam, low in lows.items() if low - worst <= slack)
    return PsdCertificate(bool(worst >= -tol), float(worst), witness)


def gram_matrix(f: StateFunction, n: Optional[int] = None) -> np.ndarray:
    """Matrix [f(g^-1 h)] over S_n in symmetric_group order."""
    n = f.level if n is None else n
    return f.restrict(n).vector[product_table(n)[inverse_map(n)]]
