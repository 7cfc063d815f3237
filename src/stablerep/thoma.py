"""Characters of the infinite symmetric group and their parameters.

An extremal character is determined by two weakly decreasing summable
sequences alpha, beta of positive reals with total mass at most 1.  Its
value on a permutation is a product over cycles: a k-cycle contributes
sum(alpha_i^k) + (-1)^(k+1) sum(beta_j^k).

recover_params fits (alpha, beta) to cycle values with numpy alone: each
root in c = sum(alpha) + sum(beta) of the consistency determinant of a Padé
form of Thoma's formula seeds a start, and a projected Levenberg-Marquardt
polish on the box [0, 1] finishes the start that fits best.
"""

from __future__ import annotations

import enum
import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

SUM_SLACK = 1e-12

# Largest fit residual (sum of squares over the given cycle values) that
# counts as a recovery; RecoveryResult.ok, recover-params and classify all
# judge a fit by it.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ThomaParams:
    """Parameter pair (alpha, beta); entries in (0, 1], sums bounded by 1.

    Entries are sorted into weakly decreasing order on construction and
    may be floats or Fractions; Fraction parameters keep every character
    value exact.
    """

    alpha: tuple = ()
    beta: tuple = ()

    def __post_init__(self):
        for name in ("alpha", "beta"):
            entries = tuple(sorted(getattr(self, name), reverse=True))
            for x in entries:
                if not isinstance(x, numbers.Real):
                    raise ValueError(f"{name} entries must be real numbers")
                if x <= 0 or float(x) > 1 + SUM_SLACK:
                    raise ValueError(f"{name} entries must lie in (0, 1], got {x}")
            object.__setattr__(self, name, entries)
        if float(sum(self.alpha) + sum(self.beta)) > 1 + SUM_SLACK:
            raise ValueError("sum(alpha) + sum(beta) must not exceed 1")

    @property
    def total(self):
        return sum(self.alpha) + sum(self.beta)

    @property
    def gamma(self):
        return 1 - self.total

    def to_json(self) -> dict:
        return {"alpha": [float(a) for a in self.alpha], "beta": [float(b) for b in self.beta]}


class FactorType(enum.Enum):
    II1 = "II_1"
    II_INFINITY = "II_infinity"


def power_sum(params: ThomaParams, k: int):
    """sum(alpha^k) + (-1)^(k+1) sum(beta^k) for k >= 2."""
    if k < 2:
        raise ValueError("power sums are used for cycle lengths >= 2")
    sign = -1 if k % 2 == 0 else 1
    return sum(a**k for a in params.alpha) + sign * sum(b**k for b in params.beta)


def thoma_character(params: ThomaParams, cycle_type: Iterable[int]):
    """Character value on a permutation with the given cycle type.

    Cycle lengths equal to 1 contribute a factor 1 and may be omitted.

    >>> thoma_character(ThomaParams(alpha=(Fraction(1, 2), Fraction(1, 2))), (2,))
    Fraction(1, 2)
    """
    value = 1
    for k in cycle_type:
        if k >= 2:
            value = value * power_sum(params, k)
    return value


# A total mass within this of 1 is full mass: fitted parameters carry the
# rounding of their fit.
MASS_TOL = 1e-9


def type_classify(params: ThomaParams) -> FactorType:
    """Factor type of the generated representation from the total mass.

    Mass 1 (within MASS_TOL) gives II_infinity, strictly smaller gives II_1.
    """
    if abs(float(params.total) - 1) <= MASS_TOL:
        return FactorType.II_INFINITY
    return FactorType.II1


@dataclass(frozen=True)
class RecoveryResult:
    params: ThomaParams
    residual: float

    def ok(self, threshold: float = RESIDUAL_TOL) -> bool:
        return self.residual <= threshold


def _model(x: np.ndarray, r: int, ks: np.ndarray) -> np.ndarray:
    powers = x ** ks[:, None]
    signs = np.where(ks % 2 == 0, -1.0, 1.0)
    return powers[:, :r].sum(axis=1) + signs * powers[:, r:].sum(axis=1)


def _jac(x: np.ndarray, r: int, ks: np.ndarray) -> np.ndarray:
    jac = ks[:, None] * x ** (ks[:, None] - 1)
    jac[:, r:] *= np.where(ks % 2 == 0, -1.0, 1.0)[:, None]
    return jac


# Fitted entries of one block closer than this are refit as one tied entry.
TIE_GAP = 1e-3


def _tied_refit(
    x: np.ndarray, r: int, ks: np.ndarray, target: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """Re-fit with near-equal entries forced equal; None when nothing ties."""

    def clusters(vals: np.ndarray) -> list[list[int]]:
        order = np.argsort(vals)[::-1]
        groups: list[list[int]] = []
        for i in order:
            if groups and abs(vals[groups[-1][-1]] - vals[i]) < TIE_GAP:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

    ga = clusters(x[:r])
    gb = clusters(x[r:])
    if all(len(g) == 1 for g in ga + gb):
        return None
    mult = np.array([len(g) for g in ga + gb])
    starts = np.concatenate([[0], np.cumsum(mult)[:-1]])
    x0 = np.array(
        [np.mean(x[:r][g]) for g in ga] + [np.mean(x[r:][g]) for g in gb]
    )
    y, cost = _polish(
        lambda y: _model(np.repeat(y, mult), r, ks) - target,
        # Chain rule: each tied entry's column is the sum of its copies'.
        lambda y: np.add.reduceat(_jac(np.repeat(y, mult), r, ks), starts, axis=1),
        x0,
    )
    if float(np.sum(mult * y)) > 1 + MASS_TOL:
        return None
    return np.repeat(y, mult), cost


# The damped loop stops once its step is below STEP_TOL relative to x, or
# after MAX_STEPS steps; the undamped steps after it start at most GN_REACH.
STEP_TOL = 1e-15
MAX_STEPS = 200
GN_REACH = 1e-6
# Length of the polish's probes along directions that J does not see.
PROBE_STEP = 1e-4


def _levenberg_marquardt(fun, jac, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Local least-squares minimum of fun on the box [0, 1]^n from x.

    Damped steps (see _step) are accepted when they lower the sum of
    squares, and mu follows Nielsen's gain-ratio rule.  Within about
    sqrt(eps) of the minimum the sum of squares is flat below its own
    rounding error, so the damped loop stops there; the Gauss-Newton step
    still points at the stationary point, and is then taken undamped for
    as long as it halves.  Returns the point and its sum of squares.
    """
    f = fun(x)
    cost = float(f @ f)
    mu, nu = None, 2.0
    for _ in range(MAX_STEPS):
        if cost == 0.0:
            break
        J = jac(x)
        if mu is None:
            mu = 1e-3 * max(float(np.max(np.sum(J * J, axis=0))), 1e-300)
        x_new = _step(x, f, J, mu)
        h = x_new - x
        if np.linalg.norm(h) <= STEP_TOL * (STEP_TOL + np.linalg.norm(x)):
            break
        f_new = fun(x_new)
        cost_new = float(f_new @ f_new)
        predicted = cost - float(np.sum((f + J @ h) ** 2))
        if cost_new < cost and predicted > 0:
            rho = (cost - cost_new) / predicted
            x, f, cost = x_new, f_new, cost_new
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2
    size = GN_REACH
    for _ in range(MAX_STEPS):
        if cost == 0.0:
            break
        x_new = _step(x, f, jac(x), 0.0)
        length = np.linalg.norm(x_new - x)
        if not 0 < length <= size:
            break
        x, f = x_new, fun(x_new)
        cost, size = float(f @ f), length / 2
    return x, cost


def _step(x: np.ndarray, f: np.ndarray, J: np.ndarray, mu: float) -> np.ndarray:
    """x plus the Levenberg-Marquardt step of damping mu, clipped to [0, 1].

    Entries that the gradient pushes against their bound stay; the step of
    the rest solves [J; sqrt(mu) I] h = [-f; 0] by lstsq, so J^T J is never
    formed.
    """
    g = J.T @ f
    free = ~(((x <= 0) & (g > 0)) | ((x >= 1) & (g < 0)))
    n = int(free.sum())
    step = np.linalg.lstsq(
        np.vstack([J[:, free], np.sqrt(mu) * np.eye(n)]),
        np.concatenate([-f, np.zeros(n)]),
        rcond=None,
    )[0]
    x_new = x.copy()
    x_new[free] = np.clip(x[free] + step, 0.0, 1.0)
    return x_new


def _polish(fun, jac, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt from x, restarted while a probe lowers the fit.

    Returns the point and its sum of squares.
    """
    x, cost = _levenberg_marquardt(fun, jac, x)
    for _ in range(x.size):
        probes = _probes(x, jac(x))
        costs = [float(np.sum(fun(p) ** 2)) for p in probes]
        if not costs or min(costs) >= cost:
            break
        x_new, cost_new = _levenberg_marquardt(fun, jac, probes[int(np.argmin(costs))])
        if cost_new >= cost:
            break
        x, cost = x_new, cost_new
    return x, cost


def _probes(x: np.ndarray, jac: np.ndarray) -> list[np.ndarray]:
    """Points PROBE_STEP from x along directions in the null space of J.

    Gauss-Newton never moves along them.  The model has two kinds: an entry
    at 0, whose column vanishes because d(x^k)/dx = 0 there for k >= 2, and
    two equal entries of one block, whose columns coincide, as the real
    parts of a complex pair of Padé roots do.  The first is raised, the
    second split.
    """
    norms = np.linalg.norm(jac, axis=0)
    unit = np.eye(x.size)
    moves = [unit[i] for i in np.flatnonzero(norms == 0)]
    for i, j in itertools.combinations(np.flatnonzero(norms > 0), 2):
        if np.linalg.norm(jac[:, i] - jac[:, j]) <= 1e-8 * norms[i]:
            moves.append(unit[i] - unit[j])
    return [np.clip(x + PROBE_STEP * m, 0.0, 1.0) for m in moves]


# Residuals within this multiple of the values' float noise, sum((eps v_k)^2),
# count as equal in model selection: exact fits land within 1e5 of it, and
# fits that miss an entry of 1/80 lie 1e16 or more above it.
NOISE_SLACK = 1e10


def _pade_equations(cs: np.ndarray, prefix: np.ndarray, r: int, s: int):
    """h_0..h_N of exp(c t + sum_k p_k t^k / k), prefix = (p_2, .., p_N), at each
    c, and m[g, i, l] = h_{j-l} (0 for j < l) on rows j = s+1..N, lags 0..r.

    b + a q = m @ (1, q) = 0 are the [s/r] Padé equations for the denominator
    1 + q_1 t + .. + q_r t^r.
    """
    h = np.empty((len(prefix) + 2, len(cs)))
    h[0], h[1] = 1.0, cs
    # Newton's identities: k h_k = sum_{i=1..k} p_i h_{k-i}, with p_1 = c.
    for k in range(2, len(h)):
        h[k] = (cs * h[k - 1] + prefix[: k - 1] @ h[k - 2 :: -1]) / k
    lags = np.arange(s + 1, len(h))[:, None] - np.arange(r + 1)
    return h.T, np.where(lags >= 0, h.T[:, np.maximum(lags, 0)], 0.0)


def _determinant_roots(prefix: np.ndarray, r: int, s: int) -> np.ndarray:
    """The points of [0, 1] nearest the roots in c of det of the first r + 1 Padé equations.

    Its terms are products of h_{j-l}, of degree j - l in c, over j = s+1..s+r+1
    and l = 0..r, so it has degree (r + 1)(s + 1) at most: it is interpolated at
    Chebyshev nodes and its roots are the eigenvalues of the colleague matrix.
    """
    d = (r + 1) * (s + 1)
    theta = np.pi * (np.arange(d + 1) + 0.5) / (d + 1)
    m = _pade_equations((1 + np.cos(theta)) / 2, prefix[: r + s], r, s)[1]
    coef = np.cos(np.outer(np.arange(d + 1), theta)) @ np.linalg.det(m)
    # Top coefficients that round to 0 lower the degree; below 2, seed from both ends.
    coef = np.trim_zeros(coef * np.where(np.arange(d + 1) == 0, 1.0, 2.0) / (d + 1), "b")
    if len(coef) < 3:
        return np.array([0.0, 1.0])
    # x T_0 = T_1, x T_i = (T_{i-1} + T_{i+1}) / 2, and T_n = -sum(coef T) / coef_n.
    colleague = (np.eye(len(coef) - 1, k=1) + np.eye(len(coef) - 1, k=-1)) / 2
    colleague[0, 1] = 1.0
    colleague[-1] -= coef[:-1] / (2 * coef[-1])
    return np.array(sorted(set(((1 + np.linalg.eigvals(colleague).real) / 2).clip(0.0, 1.0))))


def _pade_starts(prefix: np.ndarray, r: int, s: int) -> list[np.ndarray]:
    """Starting points (alpha, beta) at support (r, s) from Thoma's formula.

    exp(c t + sum_k p_k t^k / k) = prod(1 + beta_j t) / prod(1 - alpha_i t)
    with c = sum(alpha) + sum(beta), so for fixed c the support is an [s/r]
    Padé problem.  Its first r + 1 denominator equations are consistent where
    their determinant, a polynomial in c, vanishes, also at spurious c where a
    root comes out negative and is clipped to 0.  So each root seeds a start
    from the least-squares denominator of all the equations at that c, and the
    caller keeps the start that fits best.
    """
    cs = _determinant_roots(prefix, r, s)
    h, m = _pade_equations(cs, prefix, r, s)
    q = [np.concatenate([[1.0], -np.linalg.lstsq(mi[:, 1:], mi[:, 0], rcond=None)[0]])
         for mi in m]
    x0 = np.array([np.concatenate([np.roots(qi).real,
                                   -np.roots(np.convolve(qi, hi)[: s + 1]).real])
                   for qi, hi in zip(q, h)]).clip(0.0, 1.0)
    return list(x0 / np.maximum(x0.sum(axis=1), 1.0)[:, None])


def _fit_support(
    target: np.ndarray, ks: np.ndarray, prefix: np.ndarray, r: int, s: int
) -> tuple[np.ndarray, float]:
    """Best fit at exactly the support (r, s): best Padé start, then polish."""
    if r + s == 0:
        return np.zeros(0), float(np.sum(target**2))
    starts = _pade_starts(prefix, r, s)
    costs = [float(np.sum((_model(x, r, ks) - target) ** 2)) for x in starts]
    best = int(np.argmin(costs))
    best_x, best_val = starts[best], costs[best]

    x, val = _polish(lambda x: _model(x, r, ks) - target, lambda x: _jac(x, r, ks), best_x)
    if x.sum() <= 1 + MASS_TOL and val <= best_val:
        best_x, best_val = x, val

    # Ties flatten the objective to quartic order and stall Gauss-Newton a
    # few digits out; refitting with detected multiplicities restores full
    # conditioning.  Kept only when it does not worsen the fit.
    snapped = _tied_refit(best_x, r, ks, target)
    if snapped is not None and snapped[1] <= best_val + 1e-18:
        best_x, best_val = snapped
    return best_x, best_val


# Fitted entries at or below this count as 0 and are dropped, since
# ThomaParams takes positive entries only.
DROP_FLOOR = 1e-8


def recover_params(
    values: Mapping[int, float], support_bounds: tuple[int, int]
) -> RecoveryResult:
    """Fit (alpha, beta) with bounded supports to observed cycle values.

    values maps cycle lengths k >= 2 to the character value on a single
    k-cycle; it must hold every k in 2..r+s+1 for bounds (r, s), and every
    value must lie in [-1, 1].  Each support inside the bounds starts from the
    roots of Padé approximants built from the values p_2, p_3, ... up to the
    first missing k, one start per root in c of their consistency determinant
    (_pade_starts).  The start that fits all given values best is finished by
    a numpy projected Levenberg-Marquardt polish on the box [0, 1].  Among
    fits of equal quality, up to the float noise of the values, the smallest
    support wins, which keeps padded bounds from leaving near-cancelling junk
    entries.  The caller judges the returned residual; it is never hidden.
    """
    r, s = support_bounds
    if r < 0 or s < 0:
        raise ValueError("support bounds must be >= 0")
    try:
        ks = np.array(sorted(int(k) for k in values), dtype=np.int64)
    except OverflowError:
        raise ValueError("cycle lengths must be below 2**63")
    if len(ks) == 0 or ks[0] < 2:
        raise ValueError("values must be keyed by cycle lengths >= 2")
    # ks is sorted and distinct, so ks[i] == i + 2 exactly on the run 2, 3, ...
    run = ks == np.arange(2, len(ks) + 2)
    first_missing = int(np.count_nonzero(run)) + 2
    if first_missing <= r + s + 1:
        count = r + s - int(np.count_nonzero(ks <= r + s + 1))
        more = f" and {count - 1} more" if count > 1 else ""
        raise ValueError(f"need cycle values for every k in 2..{r + s + 1} for bounds "
                         f"({r}, {s}); missing [{first_missing}]{more}")
    target = np.array([float(values[k]) for k in ks])
    # |value| <= 1 holds for every character; it also keeps h_k bounded.
    if not np.all(np.abs(target) <= 1 + SUM_SLACK):
        raise ValueError("cycle values must be finite and lie in [-1, 1]")
    prefix = target[run]

    fits = {(r2, s2): _fit_support(target, ks, prefix, r2, s2)
            for r2 in range(r + 1) for s2 in range(s + 1)}
    best_residual = min(v for _, v in fits.values())
    # Fits that differ only by the float noise of the values are equally
    # good, and the smallest support among them wins.
    noise = float(np.sum((np.finfo(float).eps * target) ** 2))
    slack = max(NOISE_SLACK * noise, 1e-9 * best_residual)
    candidates = [key for key, (_, v) in fits.items() if v <= best_residual + slack]
    r2, s2 = min(candidates, key=lambda key: (key[0] + key[1], key))
    best_x = fits[(r2, s2)][0]

    alpha = tuple(float(a) for a in sorted(best_x[:r2], reverse=True) if a > DROP_FLOOR)
    beta = tuple(float(b) for b in sorted(best_x[r2:], reverse=True) if b > DROP_FLOOR)
    scale = sum(alpha) + sum(beta)
    if 1 < scale <= 1 + MASS_TOL:
        alpha = tuple(a / scale for a in alpha)
        beta = tuple(b / scale for b in beta)
    params = ThomaParams(alpha, beta)
    fitted = np.array([float(thoma_character(params, (int(k),))) for k in ks])
    return RecoveryResult(params, float(np.sum((fitted - target) ** 2)))
