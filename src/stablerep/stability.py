"""Conjugation orbits and the truncated stability metric.

rho_distance compares two states by the largest dual-norm gap among all
restrictions up to a truncation level; the stability profile measures
how far a state is from being fixed by conjugations living above each
cut m.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Union

from .fourier import StateFunction, restricted_distance
from .permutations import (
    Permutation,
    conjugate_words,
    conjugation_map,
    cut_generators,
    cycle,
    symmetric_group,
    transposition,
)

Evaluator = Union[StateFunction, Callable[[Permutation], complex]]


def as_table(f: Evaluator, level: int) -> StateFunction:
    """Materialize an evaluator as a value table on S_level.

    A table is cut down to the level, and one that stops below it is
    refused with ValueError.  A CanonicalState, or its pullback from
    ad_orbit_state, is tabulated once per pair of cycle types; any other
    callable is evaluated element by element.
    """
    if isinstance(f, StateFunction):
        if f.level < level:
            raise ValueError(
                "state table stops at level %d, below requested level %d" % (f.level, level)
            )
        return f.restrict(level) if f.level > level else f
    return StateFunction.from_callable(level, f)


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
    """sup over n <= K of the dual-norm distance between restrictions to S_n."""
    ft = as_table(f, K)
    ht = as_table(h, K)
    return max(restricted_distance(ft, ht, n) for n in range(K + 1))


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


# Relative gap below the worst defect within which a probe still ties for witness.
WITNESS_SLACK = 1e-12


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
        raise ValueError(
            f"probes above cut {M} fix every point of S_{K}; max shift must be <= {K - 1}"
        )
    table = as_table(f, K)
    points = []
    for m in range(M + 1):
        if exhaustive:
            if K - m < 2:
                raise ValueError(f"exhaustive level {K} leaves no probes above cut {m}")
            probes = tuple(g.shift(m) for g in symmetric_group(K - m) if not g.is_identity())
        else:
            probes = probe_generators(m)
        dists = [rho_distance(ad_orbit_state(f, t), table, K) for t in probes]
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
    table = as_table(f, K)
    worst = 0.0
    for t in cut_generators(n, K):
        worst = max(worst, rho_distance(ad_orbit_state(table, t), table, K))
    return worst
