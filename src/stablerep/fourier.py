"""Noncommutative Fourier analysis on a truncated symmetric group.

A function f on S_n is summarised by its blocks sum_g f(g) rho_lam(g),
one per shape lam of weight n.  The norm dual to the group C* algebra
norm is the weighted sum of block trace norms; positive definiteness is
certified block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .partitions import partitions_of
from .permutations import IDENTITY, Permutation, element_index, symmetric_group
from .yor import irrep_dimension, irrep_matrix, irrep_table

class StateFunction:
    """A complex-valued function on S_level, stored sparsely (default 0).

    Calling it on a permutation above its level is an error, not 0: the
    function carries no information out there.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: Mapping[Permutation, complex]):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level = level
        vals = {}
        for g, v in values.items():
            if g.level > level:
                raise ValueError(f"{g} exceeds level {level}")
            v = complex(v)
            if v != 0:
                vals[g] = v
        self.values = vals

    @classmethod
    def from_callable(
        cls, level: int, fn: Callable[[Permutation], complex]
    ) -> "StateFunction":
        return cls(level, {g: fn(g) for g in symmetric_group(level)})

    @classmethod
    def delta(cls, level: int, g: Permutation = IDENTITY) -> "StateFunction":
        return cls(level, {g: 1.0})

    @classmethod
    def from_class_function(
        cls, level: int, fn: Callable[[tuple[int, ...]], complex]
    ) -> "StateFunction":
        return cls(level, {g: fn(g.cycle_type()) for g in symmetric_group(level)})

    def __call__(self, g: Permutation) -> complex:
        if g.level > self.level:
            raise ValueError(f"{g} exceeds level {self.level}")
        return self.values.get(g, 0.0)

    def restrict(self, n: int) -> "StateFunction":
        """Literal restriction to the subgroup S_n."""
        if n > self.level:
            raise ValueError(f"cannot restrict level {self.level} to larger level {n}")
        return StateFunction(n, {g: v for g, v in self.values.items() if g.level <= n})

    def __sub__(self, other: "StateFunction") -> "StateFunction":
        if not isinstance(other, StateFunction):
            return NotImplemented
        if other.level != self.level:
            raise ValueError("levels differ; restrict first")
        keys = set(self.values) | set(other.values)
        return StateFunction(
            self.level, {g: self.values.get(g, 0.0) - other.values.get(g, 0.0) for g in keys}
        )

    def __rmul__(self, c: complex) -> "StateFunction":
        return StateFunction(self.level, {g: c * v for g, v in self.values.items()})

    def hermitian_defect(self) -> float:
        """max |f(g^-1) - conj f(g)| over the support."""
        return max(
            (abs(self(g.inverse()) - np.conj(v)) for g, v in self.values.items()),
            default=0.0,
        )

    def to_vector(self) -> np.ndarray:
        """Values in symmetric_group(level) order."""
        vec = np.zeros(len(symmetric_group(self.level)), dtype=complex)
        idx = element_index(self.level)
        for g, v in self.values.items():
            vec[idx[g]] = v
        return vec

    def __repr__(self) -> str:
        return f"StateFunction(level={self.level}, support={len(self.values)})"


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
    # Dense support: one tensordot per shape.  Sparse support: per-element words.
    dense = len(f.values) > len(symmetric_group(n)) // 8
    blocks = {}
    if dense:
        vec = f.to_vector()
        for lam in partitions_of(n):
            blocks[lam] = np.tensordot(vec, irrep_table(n, lam), axes=1)
    else:
        for lam in partitions_of(n):
            d = irrep_dimension(lam)
            acc = np.zeros((d, d), dtype=complex)
            for g, v in f.values.items():
                acc += v * irrep_matrix(lam, g)
            blocks[lam] = acc
    return FourierBlocks(n, blocks)


def inverse_fourier(blocks: FourierBlocks) -> StateFunction:
    """f(g) = (1/n!) sum_lam d_lam tr(blocks[lam] rho_lam(g^-1))."""
    n = blocks.level
    fact = math.factorial(n)
    vec = np.zeros(len(symmetric_group(n)), dtype=complex)
    for lam, b in blocks.items():
        d = irrep_dimension(lam)
        table = irrep_table(n, lam)
        # tr(B rho(g)^T) summed with weight d/n!; rho(g^-1) = rho(g)^T.
        vec += (d / fact) * np.einsum("ij,gij->g", np.asarray(b), table)
    idx = element_index(n)
    return StateFunction(n, {g: vec[idx[g]] for g in symmetric_group(n)})


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
    elements = symmetric_group(n)
    inv = [g.inverse() for g in elements]
    return np.array([[f(gi * h) for h in elements] for gi in inv])


def restricted_distance(f: StateFunction, h: StateFunction, n: int) -> float:
    """dual_norm of (f - h) restricted to S_n."""
    return dual_norm(f.restrict(n) - h.restrict(n))
