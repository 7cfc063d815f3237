"""Batch command line interface.

Subcommands evaluate states, certify positivity, classify, profile
stability, verify GNS output, and decompose induced characters.  This
module owns the file formats: JSON in, JSON or CSV out.

Reports are deterministic: keys sorted, no timestamps, floats emitted
with repr precision, rationals as "p/q" strings.  Exit codes:

    0  success
    1  certificate failure (not positive, residual over threshold,
       states not quasi-equivalent, stabilization not witnessed)
    2  malformed input (message includes file and location)
    3  infeasible job (level above the hard cap without --allow-large,
       a table that stops below the requested level, bad support bounds,
       a --cut or --max-shift outside the truncation, values whose
       results overflow, memory exhausted while running)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .canonical import (
    CanonicalState,
    ClassificationError,
    asymptotic_character,
    classify,
    quasi_equivalent,
    shift_sequence,
)
from .characters import mn_character
from .fourier import StateFunction, dual_norm, is_positive_definite
from .gns import biregular, central_support, gns_standard_pipeline, project_to_span
from .induction import decompose_induced
from .partitions import check_partition, hook_dimension
from .permutations import IDENTITY, Permutation, cycle, symmetric_group, transposition
from .stability import as_table, centrality_defect, stability_profile
from .thoma import ThomaParams, recover_params, thoma_character, type_classify

HARD_CAP = 8  # 8! value tables are desk scale, 9! is not

EXIT_OK = 0
EXIT_CERT = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


class InputError(Exception):
    """Malformed input file or flag value. Carries a location string."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class InfeasibleError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(str(exc), location=path)
    except json.JSONDecodeError as exc:
        loc = "%s:%d:%d" % (path, exc.lineno, exc.colno)
        raise InputError("invalid JSON: %s" % exc.msg, location=loc)


def _parse_json_flag(text, flag):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (flag, exc.msg), location=flag)


def _perm_from_cycles(data, where):
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise InputError("permutation must be a list of cycles", location=where)
    if not all(isinstance(p, int) and not isinstance(p, bool) for c in data for p in c):
        raise InputError("cycle points must be integers, got %r" % (data,), location=where)
    try:
        return Permutation.from_cycles([tuple(c) for c in data])
    except (ValueError, TypeError) as exc:
        raise InputError("bad permutation: %s" % exc, location=where)


def _partition_from(data, where):
    if not isinstance(data, list):
        raise InputError("partition must be a list", location=where)
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in data):
        raise InputError("partition entries must be integers, got %r" % (data,),
                         location=where)
    lam = tuple(data)
    try:
        check_partition(lam)
    except ValueError as exc:
        raise InputError(str(exc), location=where)
    return lam


def _number_from(value, where):
    """A finite int or float, or a 'p/q' string with a nonzero denominator."""
    number = None
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = value
    try:
        finite = number is not None and math.isfinite(number)
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        raise InputError("expected a finite number or 'p/q' string, got %r" % (value,),
                         location=where)
    return number


def _params_from(data, where):
    if not isinstance(data, dict):
        raise InputError("expected a JSON object", location=where)
    for key in ("alpha", "beta"):
        if not isinstance(data.get(key, []), list):
            raise InputError("%s must be a list of numbers" % key, location=where)
    alpha, beta = (
        tuple(_number_from(v, "%s %s[%d]" % (where, key, i))
              for i, v in enumerate(data.get(key, [])))
        for key in ("alpha", "beta"))
    try:
        return ThomaParams(alpha=alpha, beta=beta)
    except ValueError as exc:
        raise InputError(str(exc), location=where)


def _spec_from(data, where):
    if not isinstance(data, dict) or not all(key in data for key in ("n", "lambda")):
        raise InputError("state spec needs keys n, lambda, alpha, beta",
                         location=where)
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("n must be an integer, got %r" % (n,), location=where)
    params = _params_from(data, where)
    try:
        return CanonicalState(n, _partition_from(data["lambda"], where), params)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc), location=where)


def _table_from(data, where):
    level = data.get("level")
    if not isinstance(level, int) or isinstance(level, bool) or level < 0:
        raise InputError("state file needs an integer 'level'", location=where)
    rows = data.get("values")
    if not isinstance(rows, list):
        raise InputError("state file needs a 'values' list of [cycles, value] pairs",
                         location=where)
    values = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise InputError("values[%d] is not a [cycles, value] pair" % i,
                             location=where)
        g = _perm_from_cycles(row[0], "%s values[%d]" % (where, i))
        if g in values:
            raise InputError("the permutation of an earlier row is given again",
                             location="%s values[%d]" % (where, i))
        if g.level > level:
            raise InputError("values[%d] moves a point above level %d" % (i, level),
                             location=where)
        values[g] = _number_from(row[1], "%s values[%d]" % (where, i))
    return StateFunction(level, values)


def _load_state(path):
    """State table file or canonical spec file, by key sniffing.

    Tables come back as StateFunction (bounded level); specs come back
    as CanonicalState, which evaluates at any level.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("expected a JSON object", location=path)
    if "values" in data:
        return _table_from(data, path)
    return _spec_from(data, path)


def _check_level(level, allow_large):
    if level > HARD_CAP and not allow_large:
        raise InfeasibleError(
            "level %d exceeds the hard cap %d (pass --allow-large to override)"
            % (level, HARD_CAP))
    if level < 0:
        raise InfeasibleError("level must be nonnegative")


def _support_bounds(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InfeasibleError("--support-bounds wants 'r,s'")
    try:
        r, s = int(parts[0]), int(parts[1])
    except ValueError:
        raise InfeasibleError("--support-bounds wants integers 'r,s'")
    if r < 0 or s < 0:
        raise InfeasibleError("support bounds must be nonnegative")
    return r, s


# ---------------------------------------------------------------------------
# report plumbing


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else int(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(payload, args):
    try:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise InfeasibleError("the report holds a number that is not finite: "
                              "the input's values overflow double precision")
    _write(text + "\n", args)


def _write(text, args):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _value_field(v):
    """A result as a float, and as an exact string when it is a Fraction or an int."""
    exact = isinstance(v, (Fraction, int)) and not isinstance(v, bool)
    return {"value": float(v), "rational": str(v) if exact else None}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval_state(args):
    state = _spec_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    report = {"spec": state.to_json(), "perm": g.cycles()}
    report.update(_value_field(state(g)))
    _emit(report, args)
    return EXIT_OK


def _cmd_char_finite(args):
    lam = _partition_from(_parse_json_flag(args.partition, "--partition"),
                          "--partition")
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    n = sum(lam)
    _check_level(n, args.allow_large)
    if g.level > n:
        raise InputError("permutation moves a point above n = %d" % n,
                         location="--perm")
    chi = mn_character(lam, g.cycle_partition(n))
    dim = hook_dimension(lam)
    report = {
        "partition": list(lam),
        "perm": g.cycles(),
        "character": chi,
        "dimension": dim,
        "normalized": str(Fraction(chi, dim)),
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_char_thoma(args):
    params = _params_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    report = {"params": params.to_json(), "perm": g.cycles(),
              "cycle_type": list(g.cycle_type())}
    report.update(_value_field(thoma_character(params, g.cycle_type())))
    report["factor_type"] = type_classify(params).value
    _emit(report, args)
    return EXIT_OK


def _tabulate(state, level):
    """stability.as_table, with a table that stops below the level mapped to exit 3."""
    try:
        return as_table(state, level)
    except ValueError as exc:
        raise InfeasibleError(str(exc))


def _cmd_dual_norm(args):
    _check_level(args.level, args.allow_large)
    table = _tabulate(_load_state(args.input), args.level)
    value = dual_norm(table)
    report = {"dual_norm": value, "level": args.level}
    _emit(report, args)
    return EXIT_OK


def _cmd_psd_check(args):
    _check_level(args.level, args.allow_large)
    table = _tabulate(_load_state(args.input), args.level)
    try:
        cert = is_positive_definite(table, tol=args.tol)
    except ValueError as exc:  # a non-hermitian function is not a state
        raise InputError(str(exc), location=args.input)
    report = {
        "positive_definite": cert.positive,
        "min_eigenvalue": cert.min_eigenvalue,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "level": args.level,
        "tol": args.tol,
    }
    _emit(report, args)
    return EXIT_OK if cert.positive else EXIT_CERT


def _cmd_asymptotic_char(args):
    state = _spec_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    m0 = max(g.level, state.n)
    M = args.max_shift if args.max_shift is not None else m0 + 4
    if M <= m0:
        raise InfeasibleError("--max-shift must exceed max(level(g), n) = %d" % m0)
    seq = shift_sequence(g, M)
    result = asymptotic_character(state, g, M, tol=args.tol)
    report = {
        "perm": g.cycles(),
        "shift_memberships": seq.verify(),
        "values": [dict(_value_field(v), m=m) for m, v in result.values],
        "stabilized_at": result.stabilized_at,
    }
    report.update(_value_field(result.value) if result.stabilized_at is not None
                  else {"value": None, "rational": None})
    _emit(report, args)
    return EXIT_OK if result.stabilized_at is not None else EXIT_CERT


def _cmd_recover_params(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise InputError("values file must map cycle length to character value",
                         location=args.input)
    values = {}
    for key, val in data.items():
        try:
            k = int(key)
        except ValueError:
            raise InputError("cycle length key %r is not an integer" % key,
                             location=args.input)
        values[k] = _number_from(val, "%s key %r" % (args.input, key))
    bounds = _support_bounds(args.support_bounds)
    try:
        result = recover_params(values, bounds)
    except ValueError as exc:
        raise InputError(str(exc), location=args.input)
    report = {
        "params": result.params.to_json(),
        "residual": result.residual,
        "ok": result.ok(args.tol),
        "tol": args.tol,
    }
    _emit(report, args)
    return EXIT_OK if result.ok(args.tol) else EXIT_CERT


def _cmd_classify(args):
    _check_level(args.level, args.allow_large)
    state = _load_state(args.input)
    bounds = _support_bounds(args.support_bounds)
    try:
        result = classify(state, args.level, bounds)
    except ClassificationError as exc:
        _emit({"failure": "classification failed: %s" % exc, "level": args.level,
               "support_bounds": list(bounds)}, args)
        return EXIT_CERT
    except ValueError as exc:
        # A bounded table can run out of room for the shift probes.
        raise InfeasibleError(str(exc))
    report = result.to_json()
    _emit(report, args)
    return EXIT_OK


def _cmd_quasi_equivalent(args):
    a = _spec_from(_load_json(args.input), args.input)
    b = _spec_from(_load_json(args.other), args.other)
    same = quasi_equivalent(a, b, tol=args.tol)
    report = {
        "quasi_equivalent": same,
        "first": a.to_json(),
        "second": b.to_json(),
        "tol": args.tol,
    }
    _emit(report, args)
    return EXIT_OK if same else EXIT_CERT


def _cmd_stability_profile(args):
    _check_level(args.level, args.allow_large)
    state = _load_state(args.input)
    # Probes above cut m reach level m + 3; a bounded table caps the sweep.
    M = args.max_shift if args.max_shift is not None else max(args.level - 3, 0)
    try:
        profile = stability_profile(state, args.level, M,
                                    exhaustive=args.exhaustive_sweep)
    except ValueError as exc:
        raise InfeasibleError(str(exc))
    if args.format == "csv":
        _write(profile.to_csv(), args)
        return EXIT_OK
    report = profile.to_json()
    _emit(report, args)
    return EXIT_OK


def _cmd_centrality_defect(args):
    _check_level(args.level, args.allow_large)
    state = _load_state(args.input)
    try:
        defect = centrality_defect(state, args.cut, args.level)
    except ValueError as exc:
        raise InfeasibleError(str(exc))
    report = {"defect": defect, "cut": args.cut, "level": args.level}
    _emit(report, args)
    return EXIT_OK


def _cmd_gns_verify(args):
    k = args.level
    _check_level(k, args.allow_large)
    if k > 4:
        raise InfeasibleError("gns-verify sweeps pairs from S_k x S_k; "
                              "k > 4 is not desk scale")
    f = _tabulate(_load_state(args.input), k)

    try:
        triple, _, sf = gns_standard_pipeline(k, f)
    except ValueError as exc:
        _emit({"failure": "standard form failed: %s" % exc, "level": k, "ok": False,
               "tol": args.tol}, args)
        return EXIT_CERT
    bireg = biregular(sf, triple.rep)
    group = symmetric_group(k)
    if k <= 3:
        pairs = [(g, h) for g in group for h in group]
    else:
        small = (IDENTITY, transposition(1, 2), cycle(*range(1, k + 1)))
        pairs = [(g, h) for g in small for h in small]

    two_n = sf.j_real.shape[0]
    j_sq = float(np.linalg.norm(sf.j_real @ sf.j_real - np.eye(two_n)))

    jmj = 0.0
    comm = sf.commutant_basis
    for x in sf.algebra:
        jx = sf.conjugate_by_j(x)
        jmj = max(jmj, project_to_span(comm, jx)[1])

    hom = 0.0
    for g1, h1 in pairs:
        for g2, h2 in pairs:
            lhs = bireg(g1 * g2, h1 * h2)
            rhs = bireg(g1, h1) @ bireg(g2, h2)
            hom = max(hom, float(np.linalg.norm(lhs - rhs)))

    ad = 0.0
    for g in group:
        a = bireg.ad(g)
        a_inv = np.linalg.inv(a)
        for x in group:
            lhs = a @ bireg.pi[x] @ a_inv
            rhs = bireg.pi[g * x * g.inverse()]
            ad = max(ad, float(np.linalg.norm(lhs - rhs)))

    worst = max(j_sq, jmj, hom, ad)
    report = {
        "level": k,
        "gns_dim": triple.dimension,
        "algebra_dim": len(sf.basis),
        "central_support": sorted(list(lam) for lam in central_support(triple.rep, k)),
        "j_squared_residual": j_sq,
        "j_commutant_residual": jmj,
        "homomorphism_residual": hom,
        "ad_residual": ad,
        "tol": args.tol,
        "ok": worst <= args.tol,
    }
    _emit(report, args)
    return EXIT_OK if worst <= args.tol else EXIT_CERT


def _cmd_induce_char(args):
    lam = _partition_from(_parse_json_flag(args.partition, "--partition"),
                          "--partition")
    mu = _partition_from(_parse_json_flag(args.mu, "--mu"), "--mu")
    m = args.level
    _check_level(m, args.allow_large)
    if sum(lam) + sum(mu) != m:
        raise InfeasibleError("|lambda| + |mu| must equal --level (got %d + %d != %d)"
                              % (sum(lam), sum(mu), m))
    mults = decompose_induced(sum(lam), lam, mu, m)
    report = {
        "partition": list(lam),
        "mu": list(mu),
        "level": m,
        "multiplicities": {json.dumps(list(nu)): c for nu, c in sorted(mults.items())},
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument("--allow-large", action="store_true",
                        help="override the hard level cap %d" % HARD_CAP)

    parser = argparse.ArgumentParser(
        prog="stablerep",
        description="evaluate, certify, classify, and profile states of "
                    "nested symmetric groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval-state", parents=[common],
                       help="evaluate a canonical state spec at a permutation")
    p.add_argument("input", help="spec JSON: {n, lambda, alpha, beta}")
    p.add_argument("--perm", required=True, help="cycles JSON, e.g. '[[1,2]]'")
    p.set_defaults(func=_cmd_eval_state)

    p = sub.add_parser("char-finite", parents=[common],
                       help="irreducible character value by partition")
    p.add_argument("--partition", required=True, help="partition JSON, e.g. '[2,1]'")
    p.add_argument("--perm", required=True, help="cycles JSON")
    p.set_defaults(func=_cmd_char_finite)

    p = sub.add_parser("char-thoma", parents=[common],
                       help="extreme character value from parameters")
    p.add_argument("input", help="params JSON: {alpha, beta}")
    p.add_argument("--perm", required=True, help="cycles JSON")
    p.set_defaults(func=_cmd_char_thoma)

    p = sub.add_parser("dual-norm", parents=[common],
                       help="dual norm of a state at a truncation level")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_dual_norm)

    p = sub.add_parser("psd-check", parents=[common],
                       help="positive definiteness certificate")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_psd_check)

    p = sub.add_parser("asymptotic-char", parents=[common],
                       help="stabilized value along the shift sequence")
    p.add_argument("input", help="spec JSON: {n, lambda, alpha, beta}")
    p.add_argument("--perm", required=True, help="cycles JSON")
    p.add_argument("--max-shift", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_asymptotic_char)

    p = sub.add_parser("recover-params", parents=[common],
                       help="fit parameters to cycle character values")
    p.add_argument("input", help="values JSON: {\"2\": v2, ...}")
    p.add_argument("--support-bounds", required=True, help="'r,s'")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="residual threshold for exit 0")
    p.set_defaults(func=_cmd_recover_params)

    p = sub.add_parser("classify", parents=[common],
                       help="full invariant from a state: (n, lambda, alpha, beta)")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--support-bounds", required=True, help="'r,s'")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("quasi-equivalent", parents=[common],
                       help="compare two spec files up to quasi-equivalence")
    p.add_argument("input", help="first spec JSON")
    p.add_argument("other", help="second spec JSON")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_quasi_equivalent)

    p = sub.add_parser("stability-profile", parents=[common],
                       help="conjugation defect against shifted probes")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-shift", type=int, default=None)
    p.add_argument("--exhaustive-sweep", action="store_true",
                   help="probe every group element at each shift, not just "
                       "short cycles")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_stability_profile)

    p = sub.add_parser("centrality-defect", parents=[common],
                       help="deviation from centrality across a cut")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_centrality_defect)

    p = sub.add_parser("gns-verify", parents=[common],
                       help="standard form residuals at a truncation level")
    p.add_argument("input", help="state table or spec JSON")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_gns_verify)

    p = sub.add_parser("induce-char", parents=[common],
                       help="decompose the induced product character")
    p.add_argument("--partition", required=True, help="partition JSON for the "
                   "finite factor")
    p.add_argument("--mu", required=True, help="partition JSON for the tail factor")
    p.add_argument("--level", type=int, required=True, help="target group size")
    p.set_defaults(func=_cmd_induce_char)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        loc = " [%s]" % exc.location if exc.location else ""
        print("error: %s%s" % (exc, loc), file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        detail = ": %s" % exc if str(exc) else ""
        print("infeasible: out of memory%s" % detail, file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
