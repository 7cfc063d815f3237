"""Seeded inputs, job lists and output checks for the three workloads.

Every expected value comes from oracle.py, never from stablerep.  The CLI
workloads are lists of Jobs run one at a time as fresh processes; the
session workload is a pass of direct library calls made through the
`stablerep` package attributes, so a tracer installed on the package sees
them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle

TOL = 1e-9

# Levels and sizes; "smoke" runs every workload end to end in seconds.  A
# recovery job plants `planted` entries under the bounds `recover` and gives
# cycle values up to r + s + 4: a full (3, 3) support, or values only up to
# r + s + 2, is not recovered on every seed (see CHANGES.md).
SIZES = {
    "full": dict(
        dense=7, sparse=8, nonpositive=7, central=7, gns=4, classify=6, induce=(7, 8),
        recover=((2, 1), (2, 2), (3, 3)), planted=((2, 1), (2, 2), (3, 2)),
        grid=((0, ()), (1, (1,)), (2, (2,)), (2, (1, 1)), (3, (3,)), (3, (2, 1)),
              (3, (1, 1, 1))),
        evals=64, eval_level=7, table=6, shift=3, cycles=(2, 3, 4, 5, 6),
        session_induce=((3, 6), (3, 7))),
    "smoke": dict(
        dense=4, sparse=6, nonpositive=4, central=5, gns=3, classify=5, induce=(5, 6),
        recover=((1, 1), (2, 1)), planted=((1, 1), (2, 1)),
        grid=((0, ()), (1, (1,)), (2, (1, 1))),
        evals=8, eval_level=5, table=4, shift=2, cycles=(2, 3),
        session_induce=((2, 4), (2, 5))),
}


def draw_params(rng, na, nb):
    """alpha, beta with na and nb entries from the grid k/40, all spaced >= 1/20, mass <= 0.9.

    The spacing holds across alpha and beta too: recover_params does not
    reliably separate entries closer than that (see CHANGES.md).
    """
    while True:
        vals = rng.sample(range(2, 25), na + nb)
        spaced = sorted(vals)
        if sum(vals) <= 36 and all(b - a >= 2 for a, b in zip(spaced, spaced[1:])):
            return (tuple(Fraction(v, 40) for v in sorted(vals[:na], reverse=True)),
                    tuple(Fraction(v, 40) for v in sorted(vals[na:], reverse=True)))


@dataclass(frozen=True)
class Spec:
    n: int
    lam: tuple
    alpha: tuple
    beta: tuple

    def to_json(self):
        return {"n": self.n, "lambda": list(self.lam), "alpha": [str(a) for a in self.alpha],
                "beta": [str(b) for b in self.beta]}

    def value(self, cycles):
        return oracle.state_value(self.n, self.lam, self.alpha, self.beta, cycles)

    def same_invariant(self, other):
        return (self.n == other.n and self.lam == other.lam
                and oracle.padded_close(self.alpha, other.alpha, TOL)
                and oracle.padded_close(self.beta, other.beta, TOL))


def draw_spec(rng, n, na=2, nb=1):
    return Spec(n, rng.choice(oracle.hand_shapes(n)), *draw_params(rng, na, nb))


def random_cycles(rng, level, cut=None):
    """A random element of S_level; with a cut, one that preserves {1..cut}."""
    if cut is None:
        word = rng.sample(range(1, level + 1), level)
    else:
        word = rng.sample(range(1, cut + 1), cut) + rng.sample(range(cut + 1, level + 1),
                                                               level - cut)
    return oracle.cycles_of(word)


def nonidentity_cycles(rng, level):
    while True:
        cycles = random_cycles(rng, level)
        if cycles:
            return cycles


# ---------------------------------------------------------------------------
# CLI jobs


@dataclass
class Job:
    """One `stablerep` invocation and the check of its exit code and report.

    check(exit_code, stdout) returns None when the output is right, else
    the reason.  A kept fault is a job the program gets wrong today on
    seed-independent input; it counts as failed without making the run
    incorrect.
    """

    name: str
    argv: list
    check: Callable[[int, str], Optional[str]]
    kept_fault: bool = False


class CheckFailed(Exception):
    pass


def _report(rc, out, want_rc):
    if rc != want_rc:
        raise CheckFailed("exit %d, expected %d" % (rc, want_rc))
    return json.loads(out)


def checked(fn):
    """A check that raises CheckFailed, or trips on a malformed report, as one returning why."""
    def check(rc, out):
        try:
            fn(rc, out)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return "unreadable report: %r" % (exc,)
        return None
    return check


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def dual_norm_one(rc, out):
    value = _report(rc, out, 0)["dual_norm"]
    expect(abs(value - 1) <= TOL, "dual norm %r, expected 1" % value)


def positive(rc, out):
    rep = _report(rc, out, 0)
    expect(rep["positive_definite"] is True and rep["min_eigenvalue"] >= -TOL,
           "no positivity certificate: %r" % rep)


def not_positive(rc, out):
    rep = _report(rc, out, 1)
    expect(rep["positive_definite"] is False and rep["min_eigenvalue"] < -TOL,
           "f(e)=0 table was not refused with a negative eigenvalue: %r" % rep)


def defect_zero(rc, out):
    rep = _report(rc, out, 0)
    expect(rep["defect"] <= TOL, "defect %r at the state's cut, expected 0" % rep["defect"])


def defect_positive(rc, out):
    rep = _report(rc, out, 0)
    expect(rep["defect"] > 1e-6, "defect %r below the state's cut, expected > 0" % rep["defect"])


def profile_zero_from(n):
    def check(rc, out):
        points = _report(rc, out, 0)["points"]
        expect(len(points) > n, "profile stops before the cut %d" % n)
        bad = [p for p in points if p["m"] >= n and p["defect"] > TOL]
        expect(not bad, "profile defect nonzero at m >= %d: %r" % (n, bad))
    return check


def gns_ok(rc, out):
    rep = _report(rc, out, 0)
    expect(rep["ok"] is True, "gns-verify not ok: %r" % rep)


def params_recovered(alpha, beta):
    def check(rc, out):
        rep = _report(rc, out, 0)
        expect(rep["residual"] <= 1e-10, "residual %r" % rep["residual"])
        got = rep["params"]
        expect(oracle.padded_close(got["alpha"], alpha, 1e-6)
               and oracle.padded_close(got["beta"], beta, 1e-6),
               "recovered %r, planted %r %r" % (got, [str(a) for a in alpha],
                                                [str(b) for b in beta]))
    return check


def classified(spec):
    def check(rc, out):
        rep = _report(rc, out, 0)
        expect(rep["n"] == spec.n and tuple(rep["lambda"]) == spec.lam,
               "classified as (%r, %r), planted (%d, %r)" % (rep["n"], rep["lambda"],
                                                             spec.n, spec.lam))
    return check


def induced(lam, mu):
    def check(rc, out):
        mults = {tuple(json.loads(k)): c for k, c in _report(rc, out, 0)["multiplicities"].items()}
        reason = oracle.check_induced(lam, mu, mults)
        expect(reason is None, reason)
    return check


def exact_value(expected):
    def check(rc, out):
        rep = _report(rc, out, 0)
        if expected == 0:
            expect(rep["value"] == 0, "value %r, expected 0" % rep["value"])
        else:
            expect(rep["rational"] == str(expected),
                   "value %r, expected %s" % (rep["rational"], expected))
    return check


def asymptotic(expected):
    def check(rc, out):
        rep = _report(rc, out, 0)
        expect(rep["stabilized_at"] is not None, "did not stabilize")
        expect(rep["rational"] == str(expected),
               "value %r, expected %s" % (rep["rational"], expected))
    return check


def character(lam, cycles):
    def check(rc, out):
        rep = _report(rc, out, 0)
        want = oracle.hand_character(lam, [len(c) for c in cycles])
        expect(rep["character"] == want and rep["dimension"] == oracle.hook_dimension(lam),
               "chi=%r d=%r, expected %d %d" % (rep["character"], rep["dimension"], want,
                                                oracle.hook_dimension(lam)))
    return check


def quasi(same):
    def check(rc, out):
        rep = _report(rc, out, 0 if same else 1)
        expect(rep["quasi_equivalent"] is same, "quasi_equivalent %r" % rep["quasi_equivalent"])
    return check


def exit_code(want):
    def check(rc, out):
        expect(rc == want, "exit %d, expected %d" % (rc, want))
    return check


class Inputs:
    """Writes input files into the work directory and remembers their paths."""

    def __init__(self, workdir):
        self.workdir = workdir

    def write(self, name, payload):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def spec(self, name, spec):
        return self.write(name, spec.to_json())

    def table(self, name, spec, level, zero_at_identity=False):
        rows = []
        for cycles in oracle.all_cycles(level):
            value = 0 if zero_at_identity and not cycles else spec.value(cycles)
            rows.append([cycles, float(value)])
        return self.write(name, {"level": level, "values": rows})


def job(name, argv, check, kept_fault=False):
    return Job(name, [str(a) for a in argv], checked(check), kept_fault)


def spectral_jobs(rng, inputs, size):
    """Fourier-heavy subcommands: dense and sparse norms and certificates, defects, GNS."""
    z = SIZES[size]
    dense = draw_spec(rng, 0)
    table = inputs.table("dense_table.json", draw_spec(rng, 0), z["dense"])
    spec = inputs.spec("dense_spec.json", dense)
    sparse4 = inputs.spec("sparse4.json", draw_spec(rng, 4))
    # (2,1) is left out here: its character vanishes on transpositions, which
    # halves the support and would make this job's cost depend on the seed.
    sparse3 = inputs.spec("sparse3.json", Spec(3, rng.choice([(3,), (1, 1, 1)]),
                                               *draw_params(rng, 2, 1)))
    # A full-level table like the dense ones.  With it five jobs take longer
    # than gns-verify and five shorter, so op_p50_s reads that one job (steady
    # to a few per cent here) instead of whichever of two close ones wins.
    nonpos = inputs.table("nonpositive.json", draw_spec(rng, 0), z["nonpositive"],
                          zero_at_identity=True)
    cut2 = inputs.spec("cut2.json", draw_spec(rng, 2))
    d, s, c = z["dense"], z["sparse"], z["central"]
    return [
        job("dual-norm dense spec L%d" % d, ["dual-norm", spec, "--level", d], dual_norm_one),
        job("dual-norm dense table L%d" % d, ["dual-norm", table, "--level", d], dual_norm_one),
        job("psd-check dense spec L%d" % d, ["psd-check", spec, "--level", d], positive),
        job("psd-check dense table L%d" % d, ["psd-check", table, "--level", d], positive),
        job("dual-norm cut-4 spec L%d" % s, ["dual-norm", sparse4, "--level", s], dual_norm_one),
        job("psd-check cut-3 spec L%d" % s, ["psd-check", sparse3, "--level", s], positive),
        job("psd-check f(e)=0 table L%d" % z["nonpositive"],
            ["psd-check", nonpos, "--level", z["nonpositive"]], not_positive),
        job("centrality-defect cut-2 spec at cut 2 L%d" % c,
            ["centrality-defect", cut2, "--cut", 2, "--level", c], defect_zero),
        job("centrality-defect cut-2 spec at cut 1 L%d" % c,
            ["centrality-defect", cut2, "--cut", 1, "--level", c], defect_positive),
        job("stability-profile cut-2 spec L%d" % c, ["stability-profile", cut2, "--level", c],
            profile_zero_from(2)),
        job("gns-verify cut-2 spec k=%d" % z["gns"], ["gns-verify", cut2, "--level", z["gns"]],
            gns_ok),
    ]


def invariants_jobs(rng, inputs, size):
    """Exact and fitting subcommands: recovery, classification, induction, exact values."""
    z = SIZES[size]
    jobs = []
    for (r, s), planted in zip(z["recover"], z["planted"]):
        alpha, beta = draw_params(rng, *planted)
        values = {str(k): float(oracle.power_sum(alpha, beta, k)) for k in range(2, r + s + 5)}
        path = inputs.write("values_%d_%d.json" % (r, s), values)
        jobs.append(job("recover-params bounds (%d,%d)" % (r, s),
                        ["recover-params", path, "--support-bounds", "%d,%d" % (r, s)],
                        params_recovered(alpha, beta)))
    for n, (r, s) in ((2, (2, 1)), (3, (1, 1))):
        spec = draw_spec(rng, n, r, s)
        path = inputs.spec("classify_%d.json" % n, spec)
        jobs.append(job("classify cut-%d spec L%d" % (n, z["classify"]),
                        ["classify", path, "--level", z["classify"],
                         "--support-bounds", "%d,%d" % (r, s)], classified(spec)))
    for m in z["induce"]:
        n = m // 2
        lam = rng.choice(oracle.partitions(n))
        mu = rng.choice(oracle.partitions(m - n))
        jobs.append(job("induce-char m=%d" % m,
                        ["induce-char", "--partition", json.dumps(list(lam)),
                         "--mu", json.dumps(list(mu)), "--level", m], induced(lam, mu)))
    for i in range(4):
        spec = draw_spec(rng, rng.randrange(4))
        path = inputs.spec("eval_%d.json" % i, spec)
        cycles = random_cycles(rng, 8, spec.n if i < 3 else None)
        jobs.append(job("eval-state", ["eval-state", path, "--perm", json.dumps(cycles)],
                        exact_value(spec.value(cycles))))
    for size_ in (3, rng.randrange(4, 9), rng.randrange(4, 9)):
        lam = rng.choice(oracle.hand_shapes(size_))
        cycles = nonidentity_cycles(rng, sum(lam))
        jobs.append(job("char-finite", ["char-finite", "--partition", json.dumps(list(lam)),
                                        "--perm", json.dumps(cycles)], character(lam, cycles)))
    for i in range(3):
        spec = draw_spec(rng, 0)
        path = inputs.write("thoma_%d.json" % i, {"alpha": spec.to_json()["alpha"],
                                                   "beta": spec.to_json()["beta"]})
        cycles = nonidentity_cycles(rng, 8)
        want = oracle.thoma_value(spec.alpha, spec.beta, [len(c) for c in cycles])
        jobs.append(job("char-thoma", ["char-thoma", path, "--perm", json.dumps(cycles)],
                        exact_value(want)))
    for i in range(3):
        spec = draw_spec(rng, rng.randrange(4))
        path = inputs.spec("asym_%d.json" % i, spec)
        cycles = nonidentity_cycles(rng, 5)
        want = oracle.thoma_value(spec.alpha, spec.beta, [len(c) for c in cycles])
        jobs.append(job("asymptotic-char",
                        ["asymptotic-char", path, "--perm", json.dumps(cycles)], asymptotic(want)))
    first = draw_spec(rng, rng.randrange(4))
    twin = dict(first.to_json(), alpha=[float(a) for a in reversed(first.alpha)],
                beta=[float(b) for b in first.beta])
    other = draw_spec(rng, first.n)
    if first.same_invariant(other):
        other = Spec(first.n, first.lam, first.alpha + (Fraction(1, 40),), first.beta)
    a, b, c = (inputs.spec("quasi_a.json", first), inputs.write("quasi_b.json", twin),
               inputs.spec("quasi_c.json", other))
    jobs.append(job("quasi-equivalent same", ["quasi-equivalent", a, b], quasi(True)))
    jobs.append(job("quasi-equivalent different", ["quasi-equivalent", a, c], quasi(False)))

    # Kept faults: fixed inputs, wrong exit code today.
    bad = inputs.write("float_lambda.json",
                       {"n": 1, "lambda": [1.0], "alpha": ["1/2"], "beta": []})
    jobs.append(job("eval-state lambda [1.0] must exit 2",
                    ["eval-state", bad, "--perm", "[[1,2]]"], exit_code(2), kept_fault=True))
    cut3 = inputs.write("cut3_fixed.json", {"n": 3, "lambda": [2, 1], "alpha": ["1/2"],
                                            "beta": ["1/4"]})
    jobs.append(job("stability-profile --level 4 --max-shift 5 must exit 3",
                    ["stability-profile", cut3, "--level", 4, "--max-shift", 5], exit_code(3),
                    kept_fault=True))
    return jobs


# ---------------------------------------------------------------------------
# Library session


class Recorder:
    """Times each library call and checks its result."""

    def __init__(self):
        self.times = []
        self.failures = []

    def call(self, check, fn, *args):
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.times.append(time.perf_counter() - start)
            self.failures.append("%s raised %r" % (getattr(fn, "__name__", fn), exc))
            return None
        self.times.append(time.perf_counter() - start)
        reason = check(result)
        if reason:
            self.failures.append("%s: %s" % (getattr(fn, "__name__", fn), reason))
        return result


def _reason(cond, message):
    return None if cond else message


def session_pass(sr, rng, size, rec):
    """One scan of a seeded grid of canonical specs, as a researcher would run it."""
    z = SIZES[size]
    K, M = z["table"], z["shift"]
    specs, states = [], []
    for i, (n, lam) in enumerate(z["grid"]):
        spec = Spec(n, lam, *draw_params(rng, 1, i % 2))
        state = sr.CanonicalState(n, spec.lam, sr.ThomaParams(spec.alpha, spec.beta))
        specs.append(spec)
        states.append(state)
        for _ in range(z["evals"]):
            cycles = random_cycles(rng, z["eval_level"], n if rng.random() < 0.75 else None)
            want = spec.value(cycles)
            rec.call(lambda v: _reason(v == want, "value %r, expected %s" % (v, want)),
                     state, sr.Permutation.from_cycles(cycles))
        values = {}
        for k in z["cycles"]:
            want = oracle.thoma_value(spec.alpha, spec.beta, (k,))
            res = rec.call(lambda r: _reason(r.stabilized_at is not None and r.value == want,
                                             "asymptotic %r, expected %s" % (r.value, want)),
                           sr.asymptotic_character, state, sr.cycle(*range(1, k + 1)),
                           max(k, n) + 2)
            if res is not None and res.value is not None:
                values[k] = float(res.value)
        table = rec.call(lambda t: None, sr.StateFunction.from_callable, K, state)
        rec.call(lambda v: _reason(abs(v - 1) <= TOL, "dual norm %r" % v), sr.dual_norm, table)
        rec.call(lambda c: _reason(c.positive, "not certified: %r" % (c,)),
                 sr.is_positive_definite, table)
        rec.call(lambda p: _reason(all(d <= TOL for m, d in p.defects().items() if m >= n),
                                   "defects %r" % p.defects()),
                 sr.stability_profile, state, K, M)
        fit = {k: values[k] for k in (2, 3) if k in values}
        rec.call(lambda r: _reason(r.residual <= 1e-10
                                   and oracle.padded_close(r.params.alpha, spec.alpha, 1e-6)
                                   and oracle.padded_close(r.params.beta, spec.beta, 1e-6),
                                   "recovered %r residual %r" % (r.params, r.residual)),
                 sr.recover_params, fit, (1, 1))
    for n, m in z["session_induce"]:
        for lam in oracle.partitions(n):
            for mu in oracle.partitions(m - n):
                rec.call(lambda c: oracle.check_induced(lam, mu, c),
                         sr.decompose_induced, n, lam, mu, m)
    twins = [sr.CanonicalState(s.n, s.lam, sr.ThomaParams(tuple(map(float, s.alpha)),
                                                          tuple(map(float, s.beta))))
             for s in specs]
    for i, a in enumerate(states):
        rec.call(lambda q: _reason(q, "twin not quasi-equivalent"),
                 sr.quasi_equivalent, a, twins[i])
        for j in range(i + 1, len(states)):
            same = specs[i].same_invariant(specs[j])
            rec.call(lambda q: _reason(q == same, "quasi_equivalent %r" % q),
                     sr.quasi_equivalent, a, states[j])
