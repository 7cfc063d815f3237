"""Conjugation orbits and the truncated stability metric.

rho_distance compares two states by the dual norm of their difference at
the truncation level K, which bounds the dual-norm gap of every
restriction to S_n, n <= K; the stability profile measures how far a
state is from being fixed by conjugations living above each cut m.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .fourier import WITNESS_SLACK, Evaluator, StateFunction, as_table, dual_norm
from .permutations import (
    Permutation,
    conjugate_words,
    conjugation_map,
    cut_generators,
    cycle,
    transposition,
)


class _Pullback:
    """s -> f(t s t^-1) for an evaluator f that also tabulates word arrays."""

    __slots__ = ("f", "t")

    def __init__(self, f, t: Permutation):
        self.f = f
        self.t = t

    def __call__(self, s: Permutation):
        return self.f(s.conjugate_by(self.t))

    def evaluate_words(self, words):
        return self.f.evaluate_words(conjugate_words(words, self.t))


def ad_orbit_state(f: Evaluator, t: Permutation) -> Evaluator:
    """The pullback s -> f(t s t^-1).

    For a value table the result is the table gathered through the
    conjugation index map, carried at the same level; that requires
    level(t) <= level(f), so that conjugation by t maps the truncated
    group into itself.  An evaluator that tabulates word arrays keeps
    doing so, on the conjugated words, so t may lie above any level it
    is later tabulated at.
    """
    if isinstance(f, StateFunction):
        if t.level > f.level:
            raise ValueError(
                f"conjugator of level {t.level} leaves the level {f.level} table"
            )
        return StateFunction.from_vector(f.level, f.vector[conjugation_map(f.level, t)])
    if hasattr(f, "evaluate_words"):
        return _Pullback(f, t)
    return lambda s: f(s.conjugate_by(t))


def rho_distance(f: Evaluator, h: Evaluator, K: int) -> float:
    """Dual-norm distance of f and h on S_K.

    This is also sup over n <= K of the distance between the restrictions
    to S_n: C*(S_n) sits isometrically inside C*(S_K), so restricting a
    functional to it never raises its norm, and the sup is the n = K term
    (Eymard 1964; Herz 1973).
    """
    return dual_norm(as_table(f, K) - as_table(h, K))


@dataclass(frozen=True)
class ProfilePoint:
    m: int
    defect: float
    witness: Permutation


@dataclass(frozen=True)
class StabilityProfile:
    truncation: int
    points: tuple[ProfilePoint, ...]

    def defects(self) -> dict[int, float]:
        return {p.m: p.defect for p in self.points}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "defect", "witness"])
        for p in self.points:
            writer.writerow([p.m, repr(p.defect), str(p.witness)])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "points": [
                {"m": p.m, "defect": p.defect, "witness": p.witness.cycles()}
                for p in self.points
            ],
        }


def _conjugation_defects(f: Evaluator, table: StateFunction, probes, K: int) -> list[float]:
    """rho_distance on S_K from f's level-K table to its conjugate by each
    probe: one inside S_K gathers the table, one that leaves it pulls f back.
    A finite table that a gather leaves as it is reads 0.0 with no transform."""
    finite = np.isfinite(table.vector).all()
    defects = []
    for t in probes:
        moved = ad_orbit_state(table if t.level <= K else f, t)
        fixed = finite and t.level <= K and np.array_equal(moved.vector, table.vector)
        defects.append(0.0 if fixed else rho_distance(moved, table, K))
    return defects


def probe_generators(m: int) -> tuple[Permutation, ...]:
    """The probes above cut m: one transposition, one 3-cycle."""
    return (transposition(m + 1, m + 2), cycle(m + 1, m + 2, m + 3))


def stability_profile(f: Evaluator, K: int, M: int, exhaustive: bool = False) -> StabilityProfile:
    """defect(m) for m = 0..M, each the worst rho_distance over probes above m.

    The default probe set is the pair of standard generators above the
    cut; exhaustive=True sweeps every non-identity element of the tail
    group inside S_K instead (small levels only, for auditing the
    generator shortcut).  The witness is the first probe, in probe order,
    whose distance is within WITNESS_SLACK of the worst, so probes that
    tie in exact arithmetic do not pick it by their rounding.

    The generator probes above a cut m >= K fix every point of S_K and so
    measure nothing; M >= K is refused for them.
    """
    if M < 0:
        raise ValueError(f"max shift must be >= 0, got {M}")
    if not exhaustive and M >= K:
        bound = f"max shift must be <= {K - 1}" if K else "S_0 has no point for a probe to move"
        raise ValueError(f"probes above cut {M} fix every point of S_{K}; {bound}")
    table = as_table(f, K)
    points = []
    for m in range(M + 1):
        if exhaustive:
            if K - m < 2:
                raise ValueError(f"exhaustive level {K} leaves no probes above cut {m}")
            # Lexicographic in one-line words, which orders ties; [1:] drops e.
            words = itertools.permutations(range(1, K - m + 1))
            probes = tuple(Permutation.from_one_line(w).shift(m) for w in words)[1:]
        else:
            probes = probe_generators(m)
        dists = _conjugation_defects(f, table, probes, K)
        worst = max(dists)
        witness = next(t for t, d in zip(probes, dists) if d >= worst * (1 - WITNESS_SLACK))
        points.append(ProfilePoint(m, worst, witness))
    return StabilityProfile(K, tuple(points))


def centrality_defect(f: Evaluator, n: int, K: int) -> float:
    """Worst rho_distance under conjugation by generators of the cut-n product group.

    Generators: adjacent transpositions below the cut and above it,
    inside the truncation. Zero certifies invariance under the whole
    product subgroup, since conjugation invariance is multiplicative.
    """
    if n > K - 2:
        raise ValueError("need n <= K - 2 so the tail group is visible")
    if n < 0:
        raise ValueError(f"cut must be >= 0, got {n}")
    return max(_conjugation_defects(f, as_table(f, K), cut_generators(n, K), K))
