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
from typing import Callable, Optional, Sequence, Union

from .fourier import StateFunction, restricted_distance
from .permutations import Permutation, cycle, symmetric_group, transposition

Evaluator = Union[StateFunction, Callable[[Permutation], complex]]


def as_table(f: Evaluator, level: int) -> StateFunction:
    """Materialize an evaluator as a value table on S_level."""
    if isinstance(f, StateFunction):
        if f.level < level:
            raise ValueError(f"table of level {f.level} cannot reach level {level}")
        return f.restrict(level) if f.level > level else f
    return StateFunction.from_callable(level, f)


def ad_orbit_state(f: Evaluator, t: Permutation) -> Evaluator:
    """The pullback s -> f(t s t^-1).

    For a value table the result is carried at the same level, which
    requires level(t) <= level(f): conjugation by t then maps the
    truncated group into itself.
    """
    if isinstance(f, StateFunction):
        if t.level > f.level:
            raise ValueError(
                f"conjugator of level {t.level} leaves the level {f.level} table"
            )
        return StateFunction.from_callable(f.level, lambda s: f(s.conjugate_by(t)))
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
                {"m": p.m, "defect": p.defect, "witness": p.witness.to_cycles()}
                for p in self.points
            ],
        }


def probe_generators(m: int) -> tuple[Permutation, ...]:
    """The probes above cut m: one transposition, one 3-cycle."""
    return (transposition(m + 1, m + 2), cycle(m + 1, m + 2, m + 3))


def stability_profile(
    f: Evaluator,
    K: int,
    M: int,
    exhaustive: bool = False,
    exhaustive_level: Optional[int] = None,
) -> StabilityProfile:
    """defect(m) for m = 0..M, each the worst rho_distance over probes above m.

    The default probe set is the pair of standard generators above the
    cut; exhaustive=True sweeps every non-identity element of the
    truncated tail group instead (small levels only, for auditing the
    generator shortcut).

    The generator probes above a cut m >= K fix every point of S_K and so
    measure nothing; M >= K is refused for them.
    """
    if not exhaustive and M >= K:
        raise ValueError(
            f"probes above cut {M} fix every point of S_{K}; max shift must be <= {K - 1}"
        )
    points = []
    for m in range(M + 1):
        if exhaustive:
            lvl = exhaustive_level if exhaustive_level is not None else K
            if lvl - m < 2:
                raise ValueError(f"exhaustive level {lvl} leaves no probes above cut {m}")
            probes = tuple(
                g.shift(m) for g in symmetric_group(lvl - m) if not g.is_identity()
            )
        else:
            probes = probe_generators(m)
        worst, witness = 0.0, probes[0]
        for t in probes:
            d = rho_distance(ad_orbit_state(f, t), f, K)
            if d > worst:
                worst, witness = d, t
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
    gens = [transposition(i, i + 1) for i in range(1, n)]
    gens += [transposition(i, i + 1) for i in range(n + 1, K)]
    worst = 0.0
    for t in gens:
        worst = max(worst, rho_distance(ad_orbit_state(f, t), f, K))
    return worst
