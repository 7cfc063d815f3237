"""Batch command line interface.

Subcommands evaluate states, certify positivity, classify, profile
stability, verify GNS output, and decompose induced characters.  This
module owns the file formats: JSON in, JSON or CSV out.

`COMMANDS` is the table that defines the subcommands: one row each, with
its handler, help line, arguments and level cap.  `--allow-large` appears
exactly on the rows with a cap that it can lift.  A plain job (every flag
spelled in full, once) is read without argparse; any other job, help and
usage errors go to the full tree of subcommands.

Reports are deterministic: keys sorted, no timestamps, floats emitted
with repr precision, rationals as "p/q" strings.  Exit codes:

    0  success
    1  certificate failure (not positive, residual over threshold,
       states not quasi-equivalent, stabilization not witnessed)
    2  malformed input (message includes file and location), or an
       --output that cannot be opened
    3  infeasible job (level above the hard cap without --allow-large,
       a table that stops below the requested level, negative support bounds,
       a --cut or --max-shift outside the truncation, values whose
       results overflow, memory exhausted while running)
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import sys
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .canonical import (EQUIVALENCE_TOL, STABILIZATION_TOL, CanonicalState, ClassificationError,
                        asymptotic_character, block_spectra, classify, quasi_equivalent,
                        shift_sequence)
from .characters import mn_character
from .fourier import (PSD_TOL, StateFunction, as_table, check_hermitian, dual_norm,
                      is_positive_definite, psd_certificate, spectral_norm)
from .gns import gns_certificate
from .induction import decompose_induced
from .partitions import check_partition, hook_dimension
from .permutations import Permutation, cycle_words, word_ranks
from .stability import centrality_defect, stability_profile
from .thoma import RESIDUAL_TOL, ThomaParams, recover_params, thoma_character, type_classify

# A cold dual-norm of a dense table, start, import and read included, takes
# 0.33-0.36 s at 72 MB at level 8 and 2.3-2.5 s at 438 MB at level 9 (2-CPU
# Xeon VM, one BLAS thread; the host's speed drifts by a third between runs);
# the cap stays at 8.  A spec's dual-norm and psd-check build no table, yet the
# cap holds them too: main checks it before the input is read.
HARD_CAP = 8

# A table holds level! complex values: 20! of them overflow numpy's array
# sizes (and 21! an int64 rank), so no level above 19 can be read at all.
MAX_TABLE_LEVEL = 19

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
    collecting = gc.isenabled()
    gc.disable()  # parsed JSON holds no reference cycles to collect
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(str(exc), location=path)
    except json.JSONDecodeError as exc:
        loc = "%s:%d:%d" % (path, exc.lineno, exc.colno)
        raise InputError("invalid JSON: %s" % exc.msg, location=loc)
    finally:
        if collecting:
            gc.enable()


def _parse_json_flag(text, flag):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (flag, exc.msg), location=flag)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_cycles(data):
    """True when data is a list of lists of integers."""
    return isinstance(data, list) and all(
        isinstance(c, list) and all(map(_is_int, c)) for c in data)


def _perm_from_cycles(data, where):
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise InputError("permutation must be a list of cycles", location=where)
    if not _is_cycles(data):
        raise InputError("cycle points must be integers, got %r" % (data,), location=where)
    try:
        return Permutation.from_cycles([tuple(c) for c in data])
    except (ValueError, TypeError) as exc:
        raise InputError("bad permutation: %s" % exc, location=where)


def _partition_from(data, where):
    if not isinstance(data, list):
        raise InputError("partition must be a list", location=where)
    if not all(map(_is_int, data)):
        raise InputError("partition entries must be integers, got %r" % (data,), location=where)
    lam = tuple(data)
    try:
        check_partition(lam)
    except ValueError as exc:
        raise InputError(str(exc), location=where)
    return lam


def _number(value):
    """A finite int or float, or a 'p/q' string with a nonzero denominator; else None."""
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
    return number if finite else None


def _number_from(value, where):
    number = _number(value)
    if number is None:
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
        raise InputError("state spec needs keys n, lambda, alpha, beta", location=where)
    n = data["n"]
    if not _is_int(n):
        raise InputError("n must be an integer, got %r" % (n,), location=where)
    params = _params_from(data, where)
    try:
        return CanonicalState(n, _partition_from(data["lambda"], where), params)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc), location=where)


def _table_from(data, where):
    level = data.get("level")
    if not _is_int(level) or level < 0:
        raise InputError("state file needs an integer 'level'", location=where)
    rows = data.get("values")
    if not isinstance(rows, list):
        raise InputError("state file needs a 'values' list of [cycles, value] pairs",
                         location=where)
    if level > MAX_TABLE_LEVEL:
        raise InfeasibleError("a level %d table has %d! values, more than an array can hold"
                              % (level, level))
    # Rows are read in bulk up to the first that is not a pair of a list of
    # lists of integers and a value; the first bad row is then read alone
    # for its error, checked in the order that one row's checks are made.
    head = rows if _well_formed(rows) else list(itertools.takewhile(
        lambda row: isinstance(row, list) and len(row) == 2 and _is_cycles(row[0]), rows))
    cycles = list(map(itemgetter(0), head))
    flat = list(itertools.chain.from_iterable(cycles))
    words, valid = cycle_words(list(itertools.chain.from_iterable(flat)),
                               list(map(len, flat)), list(map(len, cycles)), level)
    ranks = word_ranks(words[valid])
    # The valid rows whose rank an earlier row already has give it again.
    given_again = np.delete(np.flatnonzero(valid), np.unique(ranks, return_index=True)[1])
    bad = ~valid
    bad[given_again] = True
    values = list(map(itemgetter(1), head))
    numbers = _floats(values)
    if numbers is None:  # a string, a bool, or a number that is no finite float
        parsed = {v: _number(v) for v in {v for v in values if type(v) is str}}  # once per string
        numbers = [parsed[v] if type(v) is str else _number(v) for v in values]
        bad[[v is None for v in numbers]] = True
    first = int(np.argmax(bad)) if bad.any() else len(head)
    if first < len(rows):
        _row_error(rows[first], first, where, level, given_again=first in given_again)
        raise AssertionError("values[%d] was flagged but reads clean" % first)
    vector = np.zeros(math.factorial(level), dtype=complex)
    vector[ranks] = numbers
    return StateFunction.from_vector(level, vector)


def _well_formed(rows):
    """True when every row is a pair of a list of lists of integers and a
    value, by type and length scans in C: JSON yields no subclass of int or
    list, so `type(x) is int` is _is_int here."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {2}):
        return False
    cycles, chain = list(map(itemgetter(0), rows)), itertools.chain.from_iterable
    return (set(map(type, cycles)) <= {list} and set(map(type, chain(cycles))) <= {list}
            and set(map(type, chain(chain(cycles)))) <= {int})


def _floats(values):
    """The values as one float array when all are finite non-bool ints and
    floats, as _number reads them; else None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        floats = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return floats if np.isfinite(floats).all() else None


def _row_error(row, i, where, level, given_again):
    """Raise the error of values[i], the first bad row of a table; given_again
    says whether an earlier row has the same permutation."""
    loc = "%s values[%d]" % (where, i)
    if not isinstance(row, list) or len(row) != 2:
        raise InputError("values[%d] is not a [cycles, value] pair" % i, location=loc)
    g = _perm_from_cycles(row[0], loc)
    if given_again:
        raise InputError("the permutation of an earlier row is given again", location=loc)
    if g.level > level:
        raise InputError("moves a point above level %d" % level, location=loc)
    _number_from(row[1], loc)


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError("--tol must be a finite number >= 0, got %r" % tol, location="--tol")


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
        raise InfeasibleError("level %d exceeds the hard cap %d (pass --allow-large to "
                              "override)" % (level, HARD_CAP))
    if level < 0:
        raise InfeasibleError("level must be nonnegative")


def _support_bounds(text):
    try:
        r, s = (int(part) for part in text.split(","))
    except ValueError:  # not two parts, or a part that is not an integer
        raise InputError("--support-bounds wants two integers 'r,s', got %r" % text,
                         location="--support-bounds")
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


def _write(payload, args):
    """Write a report as sorted JSON, or CSV text as it is, to --output or stdout.

    A report that holds a number that is not finite is refused before
    anything is written.
    """
    if not isinstance(payload, str):
        try:
            payload = json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                                 allow_nan=False) + "\n"
        except ValueError:
            raise OverflowError("the report holds a number that is not finite")
    if args.output:
        try:
            fh = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(str(exc), location="--output")
        with fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _value_field(v):
    """A result as a float, and as an exact string when it is a Fraction or an int."""
    exact = isinstance(v, (Fraction, int)) and not isinstance(v, bool)
    return {"value": float(v), "rational": str(v) if exact else None}


# ---------------------------------------------------------------------------
# subcommands
#
# Each handler returns its payload, a report dict (or CSV text), and its
# verdict; main writes the payload and turns the verdict into exit 0 or 1.


def _cmd_eval_state(args):
    state = _spec_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    report = {"spec": state.to_json(), "perm": g.cycles()}
    report.update(_value_field(state(g)))
    return report, True


def _cmd_char_finite(args):
    lam = _partition_from(_parse_json_flag(args.partition, "--partition"), "--partition")
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    n = sum(lam)
    _check_level(n, args.allow_large)
    if g.level > n:
        raise InputError("permutation moves a point above n = %d" % n, location="--perm")
    chi = mn_character(lam, g.cycle_partition(n))
    dim = hook_dimension(lam)
    return {"partition": list(lam), "perm": g.cycles(), "character": chi, "dimension": dim,
            "normalized": str(Fraction(chi, dim))}, True


def _cmd_char_thoma(args):
    params = _params_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    report = {"params": params.to_json(), "perm": g.cycles(),
              "cycle_type": list(g.cycle_type())}
    report.update(_value_field(thoma_character(params, g.cycle_type())))
    report["factor_type"] = type_classify(params).value
    return report, True


def _tabulate(state, level):
    """fourier.as_table, with a table that stops below the level mapped to exit 3."""
    try:
        return as_table(state, level)
    except ValueError as exc:
        raise InfeasibleError(str(exc))


def _cmd_dual_norm(args):
    state = _load_state(args.input)
    norm = (spectral_norm(args.level, block_spectra(state, args.level))  # exact: no table
            if isinstance(state, CanonicalState) else dual_norm(_tabulate(state, args.level)))
    return {"dual_norm": norm, "level": args.level}, True


def _cmd_psd_check(args):
    state = _load_state(args.input)
    if isinstance(state, CanonicalState):  # exact spectra, hermitian by construction
        cert = psd_certificate(block_spectra(state, args.level), 0, args.tol)
    else:
        try:
            cert = is_positive_definite(_tabulate(state, args.level), tol=args.tol)
        except ValueError as exc:  # a non-hermitian function is not a state
            raise InputError(str(exc), location=args.input)
    return {"positive_definite": cert.positive, "min_eigenvalue": cert.min_eigenvalue,
            "witness": list(cert.witness), "level": args.level, "tol": args.tol}, cert.positive


def _cmd_asymptotic_char(args):
    state = _spec_from(_load_json(args.input), args.input)
    g = _perm_from_cycles(_parse_json_flag(args.perm, "--perm"), "--perm")
    m0 = max(g.level, state.n)
    M = args.max_shift if args.max_shift is not None else m0 + 4
    if M <= m0:
        raise InfeasibleError("--max-shift must exceed max(level(g), n) = %d" % m0)
    seq = shift_sequence(g, M)
    result = asymptotic_character(state, g, M, tol=args.tol)
    report = {"perm": g.cycles(), "shift_memberships": seq.verify(),
              "values": [dict(_value_field(v), m=m) for m, v in result.values],
              "stabilized_at": result.stabilized_at}
    report.update(_value_field(result.value) if result.stabilized_at is not None
                  else {"value": None, "rational": None})
    return report, result.stabilized_at is not None


def _cmd_recover_params(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise InputError("values file must map cycle length to character value",
                         location=args.input)
    values = {}
    for key, val in data.items():
        # One spelling per length: "02", "+2", " 2" and "1_0" would each
        # pass int(), and "02" would overwrite the value of "2".
        try:
            k = int(key)
        except ValueError:
            k = None
        if str(k) != key:
            raise InputError("cycle length key %r is not a decimal integer" % key,
                             location=args.input)
        values[k] = _number_from(val, "%s key %r" % (args.input, key))
    bounds = _support_bounds(args.support_bounds)
    try:
        result = recover_params(values, bounds)
    except ValueError as exc:
        raise InputError(str(exc), location=args.input)
    ok = result.ok(args.tol)
    return {"params": result.params.to_json(), "residual": result.residual, "ok": ok,
            "tol": args.tol}, ok


def _cmd_classify(args):
    state = _load_state(args.input)
    bounds = _support_bounds(args.support_bounds)
    try:
        result = classify(state, args.level, bounds)
    except ClassificationError as exc:
        failure = str(exc)
    except ValueError as exc:
        # A bounded table can run out of room for the shift probes.
        raise InfeasibleError(str(exc))
    else:
        if result.residual <= RESIDUAL_TOL:
            return result.to_json(), True
        failure = "Thoma fit residual %r exceeds %r" % (result.residual, RESIDUAL_TOL)
    return {"failure": "classification failed: " + failure, "level": args.level,
            "support_bounds": list(bounds)}, False


def _cmd_quasi_equivalent(args):
    a = _spec_from(_load_json(args.input), args.input)
    b = _spec_from(_load_json(args.other), args.other)
    same = quasi_equivalent(a, b, tol=args.tol)
    return {"quasi_equivalent": same, "first": a.to_json(), "second": b.to_json(),
            "tol": args.tol}, same


def _cmd_stability_profile(args):
    state = _load_state(args.input)
    # Probes above cut m reach level m + 3; a bounded table caps the sweep.
    M = args.max_shift if args.max_shift is not None else max(args.level - 3, 0)
    try:
        profile = stability_profile(state, args.level, M,
                                    exhaustive=args.exhaustive_sweep)
    except ValueError as exc:
        raise InfeasibleError(str(exc))
    return profile.to_csv() if args.format == "csv" else profile.to_json(), True


def _cmd_centrality_defect(args):
    state = _load_state(args.input)
    try:
        defect = centrality_defect(state, args.cut, args.level)
    except ValueError as exc:
        raise InfeasibleError(str(exc))
    return {"defect": defect, "cut": args.cut, "level": args.level}, True


def _cmd_gns_verify(args):
    k = args.level
    f = _tabulate(_load_state(args.input), k)
    try:
        check_hermitian(f)
    except ValueError as exc:  # a non-hermitian function is not a state
        raise InputError(str(exc), location=args.input)
    try:
        cert = gns_certificate(k, f)
    except ValueError as exc:
        return {"failure": "standard form failed: %s" % exc, "level": k, "ok": False,
                "tol": args.tol}, False
    ok = max(value for key, value in cert.items() if key.endswith("_residual")) <= args.tol
    return dict(cert, level=k, tol=args.tol, ok=ok), ok


def _cmd_induce_char(args):
    lam = _partition_from(_parse_json_flag(args.partition, "--partition"), "--partition")
    mu = _partition_from(_parse_json_flag(args.mu, "--mu"), "--mu")
    m = args.level
    if sum(lam) + sum(mu) != m:
        raise InfeasibleError("|lambda| + |mu| must equal --level (got %d + %d != %d)"
                              % (sum(lam), sum(mu), m))
    mults = decompose_induced(sum(lam), lam, mu, m)
    return {"partition": list(lam), "mu": list(mu), "level": m,
            "multiplicities": {json.dumps(list(nu)): c for nu, c in sorted(mults.items())}}, True


# ---------------------------------------------------------------------------
# the table of subcommands
#
# One row per subcommand: its handler, its help line, its arguments after
# --output, and the cap that main holds its --level to before any input is
# read.  A row with a cap takes --allow-large, which lifts it; char-finite
# has no --level, and its handler holds the weight of its partition to the
# same cap.

_Command = namedtuple("_Command", "func help arguments cap", defaults=(None,))


def _arg(*flags, **options):
    return flags, options


_SPEC = _arg("input", help="spec JSON: {n, lambda, alpha, beta}")
_STATE = _arg("input", help="state table or spec JSON")
_PERM = _arg("--perm", required=True, help="cycles JSON")
_LEVEL = _arg("--level", type=int, required=True)
_MAX_SHIFT = _arg("--max-shift", type=int, default=None)
_SUPPORT_BOUNDS = _arg("--support-bounds", required=True, help="'r,s'")

COMMANDS = {
    "eval-state": _Command(_cmd_eval_state, "evaluate a canonical state spec at a permutation", [
        _SPEC, _arg("--perm", required=True, help="cycles JSON, e.g. '[[1,2]]'")]),
    "char-finite": _Command(_cmd_char_finite, "irreducible character value by partition", [
        _arg("--partition", required=True, help="partition JSON, e.g. '[2,1]'"), _PERM],
        HARD_CAP),
    "char-thoma": _Command(_cmd_char_thoma, "extreme character value from parameters", [
        _arg("input", help="params JSON: {alpha, beta}"), _PERM]),
    "dual-norm": _Command(_cmd_dual_norm, "dual norm of a state at a truncation level",
                          [_STATE, _LEVEL], HARD_CAP),
    "psd-check": _Command(_cmd_psd_check, "positive definiteness certificate", [
        _STATE, _LEVEL, _arg("--tol", type=float, default=PSD_TOL)], HARD_CAP),
    "asymptotic-char": _Command(
        _cmd_asymptotic_char, "stabilized value along the shift sequence",
        [_SPEC, _PERM, _MAX_SHIFT, _arg("--tol", type=float, default=STABILIZATION_TOL)]),
    "recover-params": _Command(_cmd_recover_params, "fit parameters to cycle character values", [
        _arg("input", help="values JSON: {\"2\": v2, ...}"), _SUPPORT_BOUNDS,
        _arg("--tol", type=float, default=RESIDUAL_TOL, help="residual threshold for exit 0")]),
    "classify": _Command(_cmd_classify, "full invariant from a state: (n, lambda, alpha, beta)", [
        _STATE, _arg("--level", type=int, default=6), _SUPPORT_BOUNDS], HARD_CAP),
    "quasi-equivalent": _Command(
        _cmd_quasi_equivalent, "compare two spec files up to quasi-equivalence",
        [_arg("input", help="first spec JSON"), _arg("other", help="second spec JSON"),
         _arg("--tol", type=float, default=EQUIVALENCE_TOL)]),
    "stability-profile": _Command(
        _cmd_stability_profile, "conjugation defect against shifted probes",
        [_STATE, _LEVEL, _MAX_SHIFT,
         _arg("--exhaustive-sweep", action="store_true",
              help="probe every group element at each shift, not just short cycles"),
         _arg("--format", choices=("json", "csv"), default="json")], HARD_CAP),
    "centrality-defect": _Command(
        _cmd_centrality_defect, "deviation from centrality across a cut",
        [_STATE, _arg("--cut", type=int, required=True), _LEVEL], HARD_CAP),
    "gns-verify": _Command(
        _cmd_gns_verify, "standard form residuals at a truncation level",
        [_STATE, _arg("--level", type=int, default=3), _arg("--tol", type=float, default=1e-8)],
        HARD_CAP),
    "induce-char": _Command(_cmd_induce_char, "decompose the induced product character", [
        _arg("--partition", required=True, help="partition JSON for the finite factor"),
        _arg("--mu", required=True, help="partition JSON for the tail factor"),
        _arg("--level", type=int, required=True, help="target group size")], HARD_CAP),
}


def _row_arguments(row):
    """--output, --allow-large where the row has a cap to lift, then the row's arguments."""
    allow_large = _arg("--allow-large", action="store_true",
                       help="override the hard level cap %d" % HARD_CAP)
    return ([_arg("--output", help="write the report here instead of stdout")]
            + [allow_large] * (row.cap is not None) + row.arguments)


def _build_parser():
    """The full tree of subcommands: it reads every job that _plain does not, and
    prints every help text and usage error."""
    parser = argparse.ArgumentParser(prog="stablerep", description="evaluate, certify, "
                                     "classify, and profile states of nested symmetric groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in COMMANDS.items():
        command = sub.add_parser(name, help=row.help)
        for flags, options in _row_arguments(row):
            command.add_argument(*flags, **options)
    return parser


def _plain(argv):
    """argparse's namespace of a plain job, read without argparse; None for any other.  A
    plain job names a row and gives each flag once, in full, as "--flag value" or "--flag=value";
    no value or positional starts with "-", each value converts to its type and holds its
    choices, and every required argument is there."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = _row_arguments(COMMANDS[argv[0]])
    flags = {spelled[0]: options for spelled, options in arguments if spelled[0][0] == "-"}
    given, loose, words = {}, [], iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        options = flags.get(flag, {}) if word[:1] == "-" else None
        if options is None:
            loose.append(word)
        elif not options or flag in given or (eq and options.get("action")):
            return None
        elif options.get("action"):  # store_true
            given[flag] = True
        else:
            value = value if eq else next(words, "-")  # a missing value reads as a flag
            try:
                given[flag] = options.get("type", str)(value)
            except ValueError:
                return None
            if value[:1] == "-" or given[flag] not in options.get("choices", (given[flag],)):
                return None
    names = [spelled[0] for spelled, _ in arguments if spelled[0][0] != "-"]
    if len(loose) != len(names) or any(options.get("required") and flag not in given
                                       for flag, options in flags.items()):
        return None
    args = argparse.Namespace(subcommand=argv[0], **dict(zip(names, loose)))
    for flag, options in flags.items():
        default = options.get("default", False if options.get("action") else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse(argv):
    """The arguments of argv.  A plain job is read without argparse; anything
    else goes to the full tree, which reads it or prints its help or usage error."""
    plain = _plain(argv)
    return plain if plain is not None else _build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    row = COMMANDS[args.subcommand]
    try:
        if "tol" in args:
            _check_tol(args.tol)
        if row.cap is not None and "level" in args:
            _check_level(args.level, args.allow_large)
        payload, verdict = row.func(args)
        _write(payload, args)
        return EXIT_OK if verdict else EXIT_CERT
    except InputError as exc:
        loc = " [%s]" % exc.location if exc.location else ""
        print("error: %s%s" % (exc, loc), file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except OverflowError as exc:
        print("infeasible: %s: the input's values overflow double precision" % exc,
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        detail = ": %s" % exc if str(exc) else ""
        print("infeasible: out of memory%s" % detail, file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
