"""Noncommutative Fourier analysis on a truncated symmetric group.

A function f on S_n is summarised by its blocks sum_g f(g) rho_lam(g),
one per shape lam of weight n.  The norm dual to the group C* algebra
norm is the weighted sum of block trace norms; positive definiteness is
certified block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .partitions import partitions_of
from .permutations import (
    IDENTITY,
    Permutation,
    group_words,
    inverse_map,
    line_adjacent_word,
    product_table,
    restriction_map,
    symmetric_group,
    word_ranks,
)
from .yor import irrep_dimension, irrep_table, yor_generators


class StateFunction:
    """A complex-valued function on S_level, held as one vector of values.

    The vector is indexed like symmetric_group(level), which is Lehmer-rank
    order (see permutations.group_words), so restriction, conjugation and
    inversion are index maps over it.  Calling it on a permutation above
    its level is an error, not 0: the function carries no information out
    there.
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
        return cls.from_vector(
            level, [complex(fn(g.cycle_type())) for g in symmetric_group(level)]
        )

    def __call__(self, g: Permutation) -> complex:
        if g.level > self.level:
            raise ValueError(f"{g} exceeds level {self.level}")
        row = word_ranks(np.array([g.one_line(self.level)]).reshape(1, self.level))[0]
        return complex(self.vector[row])

    def restrict(self, n: int) -> "StateFunction":
        """Literal restriction to the subgroup S_n."""
        if n > self.level:
            raise ValueError(f"cannot restrict level {self.level} to larger level {n}")
        return StateFunction.from_vector(n, self.vector[restriction_map(n, self.level)])

    def __sub__(self, other: "StateFunction") -> "StateFunction":
        if not isinstance(other, StateFunction):
            return NotImplemented
        if other.level != self.level:
            raise ValueError("levels differ; restrict first")
        return StateFunction.from_vector(self.level, self.vector - other.vector)

    def __rmul__(self, c: complex) -> "StateFunction":
        return StateFunction.from_vector(self.level, c * self.vector)

    def hermitian_defect(self) -> float:
        """max |f(g^-1) - conj f(g)| over S_level."""
        vec = self.vector
        return float(np.max(np.abs(vec[inverse_map(self.level)] - np.conj(vec))))

    def to_vector(self) -> np.ndarray:
        """Values in symmetric_group(level) order, as a fresh array."""
        return self.vector.copy()

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


def _as_state(f, level: Optional[int] = None) -> StateFunction:
    if isinstance(f, StateFunction):
        return f if level is None or level == f.level else f.restrict(level)
    if level is None:
        raise ValueError("a bare callable needs an explicit level")
    return StateFunction.from_callable(level, f)


def fourier(f: StateFunction, level: Optional[int] = None) -> FourierBlocks:
    """Blocks sum_g f(g) rho_lam(g) for every shape lam of weight f.level."""
    f = _as_state(f, level)
    n = f.level
    vec = f.vector
    rows = np.flatnonzero(vec)
    blocks = {}
    # Dense support: one tensordot per shape.  Sparse support: the non-zero
    # rows, each matrix the left-to-right product along its adjacent word.
    if len(rows) > len(vec) // 8:
        for lam in partitions_of(n):
            blocks[lam] = np.tensordot(vec, irrep_table(n, lam), axes=1)
        return FourierBlocks(n, blocks)
    words = [line_adjacent_word(w) for w in group_words(n)[rows].tolist()]
    for lam in partitions_of(n):
        gens = yor_generators(lam)
        eye = np.eye(irrep_dimension(lam))
        acc = np.zeros_like(eye, dtype=complex)
        for v, word in zip(vec[rows], words):
            acc += v * reduce(np.matmul, (gens[i - 1] for i in word), eye)
        blocks[lam] = acc
    return FourierBlocks(n, blocks)


def inverse_fourier(blocks: FourierBlocks) -> StateFunction:
    """f(g) = (1/n!) sum_lam d_lam tr(blocks[lam] rho_lam(g^-1))."""
    n = blocks.level
    fact = math.factorial(n)
    vec = np.zeros(fact, dtype=complex)
    for lam, b in blocks.items():
        d = irrep_dimension(lam)
        table = irrep_table(n, lam)
        # tr(B rho(g)^T) summed with weight d/n!; rho(g^-1) = rho(g)^T.
        vec += (d / fact) * np.einsum("ij,gij->g", np.asarray(b), table)
    return StateFunction.from_vector(n, vec)


def dual_norm(f: StateFunction, level: Optional[int] = None) -> float:
    """Norm of f as a functional on the group C* algebra of S_level.

    Equals sum_lam (d_lam / n!) * tracenorm(sum_g f(g) rho_lam(g^-1)).
    """
    f = _as_state(f, level)
    n = f.level
    fact = math.factorial(n)
    total = 0.0
    for lam, block in fourier(f).items():
        # rho is orthogonal, so the g^-1 block is the transpose; same singular values.
        sv = np.linalg.svd(block, compute_uv=False)
        total += irrep_dimension(lam) / fact * float(sv.sum())
    return total


def is_positive_definite(
    f: StateFunction, tol: float = 1e-9, hermitian_tol: float = 1e-8
) -> PsdCertificate:
    """Certify positive definiteness via the minimal block eigenvalue.

    Rejects non-hermitian input.  The certificate is equivalent to the
    Gram matrix [f(h^-1 g)] over S_level being positive semidefinite.
    """
    defect = f.hermitian_defect()
    if defect > hermitian_tol:
        raise ValueError(f"input is not hermitian (defect {defect:.3e})")
    worst = np.inf
    witness: tuple[int, ...] = ()
    for lam, block in fourier(f).items():
        herm = (block + block.conj().T) / 2
        low = float(np.linalg.eigvalsh(herm)[0])
        if low < worst:
            worst, witness = low, lam
    return PsdCertificate(bool(worst >= -tol), worst, witness)


def gram_matrix(f: StateFunction, n: Optional[int] = None) -> np.ndarray:
    """Matrix [f(g^-1 h)] over S_n in symmetric_group order."""
    n = f.level if n is None else n
    return f.restrict(n).vector[product_table(n)[inverse_map(n)]]


def restricted_distance(f: StateFunction, h: StateFunction, n: int) -> float:
    """dual_norm of (f - h) restricted to S_n."""
    return dual_norm(f.restrict(n) - h.restrict(n))
