"""Subcommand behavior: reports, exit codes, determinism, refusals."""

import argparse
import contextlib
import gc
import inspect
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerep import cli
from stablerep.cli import main
from stablerep.fourier import as_table
from stablerep.partitions import hook_dimension, partitions_of
from stablerep.permutations import Permutation, symmetric_group


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def spec_a(tmp_path):
    return write(
        tmp_path / "a.json",
        {"n": 2, "lambda": [1, 1], "alpha": ["1/2", "1/2"], "beta": []},
    )


@pytest.fixture
def spec_b(tmp_path):
    return write(
        tmp_path / "b.json",
        {"n": 2, "lambda": [2], "alpha": ["1/2", "1/2"], "beta": []},
    )


@pytest.fixture
def delta_table(tmp_path):
    return write(tmp_path / "delta.json", {"level": 4, "values": [[[], 1]]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("switch", [gc.enable, gc.disable], ids=["gc-on", "gc-off"])
def test_reading_json_restores_the_collector(tmp_path, delta_table, switch):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    outcomes = [(delta_table, None), (str(bad), cli.InputError),
                (str(tmp_path / "missing.json"), cli.InputError)]
    restore = gc.enable if gc.isenabled() else gc.disable
    try:
        for path, error in outcomes:
            switch()
            with pytest.raises(error) if error else contextlib.nullcontext():
                assert cli._load_json(path) == {"level": 4, "values": [[[], 1]]}
            assert gc.isenabled() is (switch is gc.enable), path
    finally:
        restore()


def test_psd_check_pinned_example(capsys, delta_table):
    code, out, _ = run(capsys, "psd-check", delta_table, "--level", "4")
    assert code == 0
    report = json.loads(out)
    assert report["positive_definite"] is True
    assert report["min_eigenvalue"] == pytest.approx(1.0)


def test_dual_norm_pinned_example(capsys, tmp_path):
    spec = write(
        tmp_path / "chi.json", {"n": 3, "lambda": [2, 1], "alpha": [], "beta": []}
    )
    code, out, _ = run(capsys, "dual-norm", spec, "--level", "3")
    assert code == 0
    assert json.loads(out)["dual_norm"] == pytest.approx(1.0, abs=1e-9)


def test_eval_state_exact_rational(capsys, spec_a):
    code, out, _ = run(capsys, "eval-state", spec_a, "--perm", "[[1,2]]")
    assert code == 0
    report = json.loads(out)
    assert report["rational"] == "-1"
    assert report["value"] == -1.0


def test_char_finite(capsys):
    code, out, _ = run(
        capsys, "char-finite", "--partition", "[2,1]", "--perm", "[[1,2,3]]"
    )
    assert code == 0
    report = json.loads(out)
    assert report["character"] == -1
    assert report["dimension"] == 2


def test_char_thoma(capsys, tmp_path):
    params = write(tmp_path / "p.json", {"alpha": ["1/2", "1/4"], "beta": ["1/8"]})
    code, out, _ = run(capsys, "char-thoma", params, "--perm", "[[1,2,3],[4,5]]")
    assert code == 0
    report = json.loads(out)
    assert report["rational"] == "1387/32768"
    assert report["factor_type"] == "II_1"


def test_classify_round_trips_the_spec(capsys, spec_a):
    code, out, _ = run(
        capsys, "classify", spec_a, "--level", "5", "--support-bounds", "2,0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 2
    assert report["lambda"] == [1, 1]
    assert report["alpha"] == pytest.approx([0.5, 0.5], abs=1e-6)
    assert report["beta"] == []
    assert report["factor_type"] == "II_infinity"


def test_quasi_equivalent_exit_codes(capsys, spec_a, spec_b):
    code, out, _ = run(capsys, "quasi-equivalent", spec_a, spec_b)
    assert code == 1
    assert json.loads(out)["quasi_equivalent"] is False
    code, out, _ = run(capsys, "quasi-equivalent", spec_a, spec_a)
    assert code == 0
    assert json.loads(out)["quasi_equivalent"] is True


def test_recover_params_certificate(capsys, tmp_path):
    good = write(
        tmp_path / "v.json",
        {str(k): 2.0 ** (1 - k) for k in range(2, 9)},
    )
    code, out, _ = run(capsys, "recover-params", good, "--support-bounds", "2,0")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["alpha"] == pytest.approx([0.5, 0.5], abs=1e-6)
    # inconsistent values cannot be fit below threshold: certificate failure
    bad = write(tmp_path / "w.json", {"2": 0.9, "3": 0.0, "4": 0.9, "5": 0.0})
    code, out, _ = run(capsys, "recover-params", bad, "--support-bounds", "1,1")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_asymptotic_char(capsys, spec_a):
    code, out, _ = run(capsys, "asymptotic-char", spec_a, "--perm", "[[1,2,3]]")
    assert code == 0
    report = json.loads(out)
    assert report["shift_memberships"] is True
    assert report["stabilized_at"] == 3
    assert report["rational"] == "1/4"


def test_stability_profile_csv(capsys, spec_a):
    code, out, _ = run(
        capsys,
        "stability-profile", spec_a,
        "--level", "4", "--max-shift", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,defect,witness"
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert last[0] == "3" and float(last[1]) == 0.0


def test_centrality_defect(capsys, spec_a):
    code, out, _ = run(capsys, "centrality-defect", spec_a, "--cut", "2", "--level", "5")
    assert code == 0
    assert json.loads(out)["defect"] == 0.0


def test_gns_verify(capsys, spec_a):
    code, out, _ = run(capsys, "gns-verify", spec_a, "--level", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["central_support"] == [[1, 1, 1], [2, 1]]
    for key in ("homomorphism_residual", "state_residual"):
        assert report[key] < 1e-8


def _tol_argv(command, tmp_path, spec_a, spec_b):
    values = write(tmp_path / "v.json", {str(k): 2.0 ** (1 - k) for k in range(2, 9)})
    return {
        "psd-check": [spec_a, "--level", "3"],
        "asymptotic-char": [spec_a, "--perm", "[[1,2,3]]"],
        "recover-params": [values, "--support-bounds", "2,0"],
        "quasi-equivalent": [spec_a, spec_b],
        "gns-verify": [spec_a, "--level", "3"],
    }[command]


TOL_COMMANDS = ["psd-check", "asymptotic-char", "recover-params", "quasi-equivalent",
                "gns-verify"]


def test_tol_commands_are_every_subcommand_with_tol():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(TOL_COMMANDS) == sorted(
        name for name, p in sub.choices.items()
        if any("--tol" in a.option_strings for a in p._actions))


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_tol_that_is_not_finite_or_is_negative_exits_2(capsys, tmp_path, spec_a, spec_b,
                                                         command, tol):
    argv = _tol_argv(command, tmp_path, spec_a, spec_b)
    code, out, err = run(capsys, command, *argv, "--tol=" + tol)
    assert code == 2 and out == ""
    assert "--tol must be a finite number >= 0" in err and "[--tol]" in err


@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_tol_zero_is_accepted(capsys, tmp_path, spec_a, spec_b, command):
    argv = _tol_argv(command, tmp_path, spec_a, spec_b)
    code, out, err = run(capsys, command, *argv, "--tol=0")
    assert code in (0, 1) and json.loads(out) and err == ""


def test_gns_verify_above_the_hard_cap_is_infeasible(capsys, spec_a):
    code, out, err = run(capsys, "gns-verify", spec_a, "--level", "9")
    assert code == 3
    assert out == "" and "hard cap" in err


@pytest.mark.parametrize("level", ["9", "20"])
def test_gns_verify_over_the_hard_cap_never_reads_its_input(capsys, tmp_path, level):
    # The common cap of the capped rows: the input file is never opened.
    code, out, err = run(capsys, "gns-verify", str(tmp_path / "missing.json"), "--level", level)
    assert (code, out) == (3, "")
    assert err == ("infeasible: level %s exceeds the hard cap 8 (pass --allow-large to "
                   "override)\n" % level)


def test_gns_verify_at_level_8_runs_under_1_gib(tmp_path):
    # The point mass at k = 8: the regular representation, the largest
    # carrier (40320) that level 8 can have.
    table = write(tmp_path / "t.json", {"level": 8, "values": [[[], 1]]})
    proc = subprocess.run([sys.executable, "-m", "stablerep.cli", "gns-verify", table,
                           "--level", "8"], env=_child_env(**ONE_BLAS_THREAD),
                          capture_output=True, text=True,  # 1 GiB, in the child only
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (1 << 30, 1 << 30)))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True and report["gns_dim"] == report["algebra_dim"] == 40320


def test_induce_char(capsys):
    code, out, _ = run(
        capsys, "induce-char", "--partition", "[2,1]", "--mu", "[2]", "--level", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["multiplicities"] == {
        "[2, 2, 1]": 1,
        "[3, 1, 1]": 1,
        "[3, 2]": 1,
        "[4, 1]": 1,
    }


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, ')
    code, _, err = run(capsys, "psd-check", str(bad), "--level", "3")
    assert code == 2
    assert "bad.json:1" in err  # location is reported
    code, _, err = run(capsys, "eval-state", str(bad), "--perm", "[[1,2]]")
    assert code == 2


def test_bad_perm_flag_exits_2(capsys, spec_a):
    code, _, err = run(capsys, "eval-state", spec_a, "--perm", "[[1,2")
    assert code == 2
    code, _, err = run(capsys, "eval-state", spec_a, "--perm", "[[1,1]]")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["eval-state", "SPEC", "--perm", "[[1,2.9]]"],
    ["eval-state", "SPEC", "--perm", "[[1,2.0]]"],
    ["char-finite", "--partition", "[3]", "--perm", "[[true,2]]"],
    ["char-thoma", "SPEC", "--perm", "[[1,\"2\"]]"],
], ids=["float", "integral-float", "bool", "string"])
def test_non_integer_perm_point_exits_2(capsys, spec_a, argv):
    # These used to be coerced by int(), so [[1,2.9]] silently ran on (1 2).
    argv = [spec_a if a == "SPEC" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "cycle points must be integers" in err and "[--perm]" in err


@pytest.mark.parametrize("rows, bad_row", [
    ([[[], 1.0], [[[1, 2.0]], 0.25]], 1),
    ([[[], 1.0], [[[True, 2]], 0.25]], 1),
    ([[[], 1.0], [[[1, 2]], 0.25], [[[2, 1]], 0.7]], 2),
    ([[[], 1.0], [[], 0.5]], 1),
    ([[[], 1.0], [[[1, 4]], 0.5]], 1),
    ([[[[9]], 1.0], [[[1, 10 ** 21]], 0.5]], 1),
    ([[[[2 ** 65]], 1.0], [[[0]], 0.5]], 1),
    ([[[], 1.0], [[[1, 2]], 0.5, 7]], 1),
], ids=["float-point", "bool-point", "repeated-transposition", "repeated-identity",
        "above-level", "far-above-level", "zero-point", "not-a-pair"])
def test_bad_table_row_exits_2(capsys, tmp_path, rows, bad_row):
    # A later row for the same permutation used to overwrite the earlier one.
    table = write(tmp_path / "t.json", {"level": 3, "values": rows})
    code, out, err = run(capsys, "dual-norm", table, "--level", "3")
    assert code == 2 and out == ""
    assert "[%s values[%d]]" % (table, bad_row) in err


def test_table_of_a_level_no_array_can_hold_exits_3(capsys, tmp_path):
    table = write(tmp_path / "t.json", {"level": 20, "values": [[[], 1.0]]})
    code, out, err = run(capsys, "dual-norm", table, "--level", "3")
    assert code == 3 and out == ""
    assert "level 20 table" in err


def test_dense_table_is_read_without_a_permutation_per_row(capsys, monkeypatch, tmp_path):
    rows = [[g.cycles(), 1.0 if g.is_identity() else 0.0] for g in symmetric_group(7)]
    table = write(tmp_path / "t.json", {"level": 7, "values": rows})

    def refuse(*args, **kwargs):
        raise AssertionError("a table row was read through Permutation")

    monkeypatch.setattr(Permutation, "from_cycles", refuse)
    code, out, _ = run(capsys, "dual-norm", table, "--level", "7")
    assert code == 0 and json.loads(out)["dual_norm"] == 1.0
    monkeypatch.setattr(Permutation, "__init__", refuse)
    assert np.array_equal(cli._load_state(table).vector, np.eye(1, 5040)[0])


def test_rational_is_set_for_exact_values_only(capsys, tmp_path):
    # (1 2) straddles the cut of a depth-1 state, which vanishes there.
    spec = write(tmp_path / "s.json", {"n": 1, "lambda": [1], "alpha": ["1/2"], "beta": []})
    code, out, _ = run(capsys, "eval-state", spec, "--perm", "[[1,2]]")
    assert code == 0
    report = json.loads(out)
    assert (report["value"], report["rational"]) == (0.0, "0")
    params = write(tmp_path / "p.json", {"alpha": [], "beta": []})
    code, out, _ = run(capsys, "char-thoma", params, "--perm", "[]")
    assert code == 0
    report = json.loads(out)
    assert (report["value"], report["rational"]) == (1.0, "1")
    # a float parameter gives a float value, which is not exact
    spec = write(tmp_path / "f.json", {"n": 0, "lambda": [], "alpha": [0.5], "beta": []})
    code, out, _ = run(capsys, "eval-state", spec, "--perm", "[[1,2]]")
    assert code == 0
    report = json.loads(out)
    assert (report["value"], report["rational"]) == (0.25, None)


@pytest.mark.parametrize("spec", [
    {"n": 1, "lambda": [1.0], "alpha": ["1/2"], "beta": []},
    {"n": 1, "lambda": [True], "alpha": ["1/2"], "beta": []},
    {"n": [1], "lambda": [1], "alpha": [], "beta": []},
    5,
], ids=["float-part", "bool-part", "list-n", "not-object"])
def test_malformed_spec_exits_2(capsys, tmp_path, spec):
    bad = write(tmp_path / "spec.json", spec)
    code, out, err = run(capsys, "eval-state", bad, "--perm", "[[1,2]]")
    assert code == 2
    assert out == ""
    assert "spec.json" in err


@pytest.mark.parametrize("n", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_non_integer_n_exits_2(capsys, tmp_path, n):
    bad = write(tmp_path / "spec.json",
                {"n": n, "lambda": [1], "alpha": ["1/2"], "beta": []})
    code, out, err = run(capsys, "eval-state", bad, "--perm", "[[1,2]]")
    assert code == 2
    assert out == ""
    assert "n must be an integer" in err and "spec.json" in err


def test_memory_error_exits_3(capsys, monkeypatch):
    def exhausted(table):
        raise MemoryError("Unable to allocate 2.94 GiB for an array")

    # A table: a spec takes the spectral path, which never calls dual_norm.
    monkeypatch.setattr(cli, "dual_norm", exhausted)
    code, out, err = run(capsys, "dual-norm", str(GOLDEN / "table_cut1_l6.json"), "--level", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: out of memory: Unable to allocate")


def test_string_alpha_exits_2_naming_the_key(capsys, tmp_path):
    bad = write(tmp_path / "alpha.json",
                {"n": 1, "lambda": [1], "alpha": "0.5", "beta": []})
    code, _, err = run(capsys, "eval-state", bad, "--perm", "[[1,2]]")
    assert code == 2
    assert "alpha must be a list" in err and "alpha.json" in err


# Values the CLI must refuse as numbers: each exits 2 naming file and key.
BAD_NUMBERS = {"null": None, "list": [0.5], "zero-denominator": "1/0", "bool": True,
               "nan": float("nan"), "infinity": float("inf"),
               "minus-infinity": float("-inf")}


@pytest.mark.parametrize("value", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_recover_params_bad_number_exits_2(capsys, tmp_path, value):
    values = {str(k): 2.0 ** (1 - k) for k in range(2, 6)}
    values["3"] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(values))  # writes NaN and Infinity literals
    code, out, err = run(capsys, "recover-params", str(path), "--support-bounds", "1,0")
    assert code == 2
    assert out == ""
    assert "[%s key '3']" % path in err


@pytest.mark.parametrize("key", ["alpha", "beta"])
@pytest.mark.parametrize("value", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_spec_bad_parameter_exits_2(capsys, tmp_path, key, value):
    spec = {"n": 1, "lambda": [1], "alpha": [], "beta": []}
    spec[key] = ["1/4", value]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "eval-state", str(path), "--perm", "[[1,2]]")
    assert code == 2
    assert out == ""
    assert "[%s %s[1]]" % (path, key) in err


def test_stability_profile_past_truncation_exits_3(capsys, tmp_path):
    cut3 = write(tmp_path / "cut3.json",
                 {"n": 3, "lambda": [2, 1], "alpha": ["1/2"], "beta": ["1/4"]})
    code, out, err = run(capsys, "stability-profile", cut3, "--level", "4",
                         "--max-shift", "5")
    assert code == 3
    assert out == ""
    assert "S_4" in err


def test_stability_profile_at_level_0_exits_3_without_a_negative_bound(capsys, spec_a):
    code, out, err = run(capsys, "stability-profile", spec_a, "--level", "0",
                         "--max-shift", "0")
    assert code == 3
    assert out == ""
    assert "S_0" in err and "-1" not in err


def test_state_above_level_exits_2(capsys, tmp_path):
    bad = write(tmp_path / "s.json", {"level": 2, "values": [[[[1, 4]], 0.5]]})
    code, _, err = run(capsys, "psd-check", bad, "--level", "2")
    assert code == 2


def test_bool_table_level_exits_2(capsys, tmp_path):
    bad = write(tmp_path / "s.json", {"level": True, "values": [[[], 1]]})
    code, out, err = run(capsys, "psd-check", bad, "--level", "1")
    assert code == 2
    assert out == "" and "integer 'level'" in err


def test_table_below_requested_level_exits_3(capsys, delta_table):
    code, out, err = run(capsys, "dual-norm", delta_table, "--level", "5")
    assert code == 3 and out == ""
    assert "state table stops at level 4, below requested level 5" in err


def test_non_hermitian_table_exits_2(capsys, tmp_path):
    # gns-verify used to certify the hermitian part (f + f*)/2 of the second table.
    tables = [write(tmp_path / "t.json", {"level": 3, "values": [[[[1, 2, 3]], 1]]}),
              write(tmp_path / "u.json", {"level": 3, "values": [[[], 1.0], [[[1, 2, 3]], 0.5]]})]
    for table in tables:
        for command in ("psd-check", "gns-verify"):
            code, out, err = run(capsys, command, table, "--level", "3")
            assert code == 2 and out == ""
            assert "not hermitian" in err and table in err


def test_overflowing_table_exits_3(capsys, tmp_path):
    # Each value is finite, but their block sums overflow to inf.
    table = write(tmp_path / "t.json",
                  {"level": 2, "values": [[[], 1e308], [[[1, 2]], 1e308]]})
    code, out, err = run(capsys, "dual-norm", table, "--level", "2")
    assert code == 3 and out == ""
    assert "not finite" in err


# Tables whose values are finite but whose sums overflow: each job exits 3
# with one "infeasible:" line, before LAPACK runs on an inf, and prints no
# numpy warning.
OVERFLOW_JOBS = {
    "psd-check-min-overflow": (["psd-check", "--level", "2"],
                               [[[], -1e308], [[[1, 2]], -1e308]], 2),
    "dual-norm-fsum": (["dual-norm", "--level", "2"], [[[], 1.5e308]], 2),
    # 4e307 times the standard character: a 2 x 2 block of singular values 1.2e308.
    "dual-norm-weighted-term": (["dual-norm", "--level", "3"],
                                [[[], 8e307], [[[1, 2, 3]], -4e307], [[[1, 3, 2]], -4e307]], 3),
    "centrality-defect-level-4": (
        ["centrality-defect", "--cut", "1", "--level", "4"],
        [[[], 1e308], [[[1, 2]], -1e308], [[[3, 4]], 1e308], [[[2, 3]], 1e308]], 4),
    "centrality-defect-level-3": (["centrality-defect", "--cut", "1", "--level", "3"],
                                  [[[], 1], [[[1, 2]], 1e308], [[[1, 3]], -1e308]], 3),
    "psd-check-max-overflow": (["psd-check", "--level", "2"],
                               [[[], 1e308], [[[1, 2]], 1e308]], 2),
    "gns-verify": (["gns-verify", "--level", "2"], [[[], 1e308], [[[1, 2]], 1e308]], 2),
}


@pytest.mark.parametrize("name", OVERFLOW_JOBS)
def test_overflow_exits_3_before_any_solver(capfd, tmp_path, name):
    # capfd sees what LAPACK writes to the file descriptors themselves.
    argv, rows, level = OVERFLOW_JOBS[name]
    table = write(tmp_path / "t.json", {"level": level, "values": rows})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capfd, argv[0], table, *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith("infeasible: ") and err.count("\n") == 1
    assert err.endswith(": the input's values overflow double precision\n")


@pytest.mark.parametrize("command", ["psd-check", "gns-verify"])
def test_hermitian_part_of_a_block_near_the_float_range_is_finite(capfd, tmp_path, command):
    # 4e307 times the standard character is positive.  Its blocks are finite
    # (at most 1.2e308), and so are their Hermitian parts, halved before the sum.
    table = write(tmp_path / "t.json",
                  {"level": 3, "values": [[[], 8e307], [[[1, 2, 3]], -4e307],
                                          [[[1, 3, 2]], -4e307]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capfd, command, table, "--level", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["positive_definite" if command == "psd-check" else "ok"] is True


@pytest.mark.parametrize("scale", [1e-100, 1e-12, 1e4, 1e8, 1e10])
def test_gns_verify_verdict_does_not_depend_on_the_scale_of_the_state(capsys, tmp_path, scale):
    # The cut-2 spec's table on S_5, times scale, is positive at every scale.
    # The Gram eigenvalue cut and the faithful state of the standard form
    # used to be absolute: x1e4 missed --tol, x1e8 and x1e10 read as not
    # positive, and x1e-12 read as a state with an empty carrier.
    f = as_table(cli._load_state(str(GOLDEN / "spec_cut2.json")), 5)
    rows = [[g.cycles(), scale * v.real] for g, v in zip(symmetric_group(5), f.vector)]
    table = write(tmp_path / "t.json", {"level": 5, "values": rows})
    code, out, err = run(capsys, "gns-verify", table, "--level", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_gns_verify_rejects_a_small_state_that_is_not_positive(capsys, tmp_path):
    # Gram eigenvalues 1e-300 +- 5e-10: negative far beyond the scale f(e)
    # of the state, although within an absolute 1e-9.
    table = write(tmp_path / "t.json", {"level": 2, "values": [[[], 1e-300], [[[1, 2]], 5e-10]]})
    code, out, _ = run(capsys, "gns-verify", table, "--level", "2")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and "not positive definite" in report["failure"]


def test_hermitian_gap_past_the_float_range_exits_2_without_a_warning(capsys, tmp_path):
    # f((1 2 3)) = 1e308 and f((1 3 2)) = -1e308: the gap is inf, over the tolerance.
    table = write(tmp_path / "t.json",
                  {"level": 3, "values": [[[[1, 2, 3]], 1e308], [[[1, 3, 2]], -1e308]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "psd-check", table, "--level", "3")
    assert (code, out) == (2, "")
    assert err == "error: input is not hermitian (defect inf) [%s]\n" % table


def test_hard_cap_exits_3(capsys, spec_a):
    code, _, err = run(capsys, "dual-norm", spec_a, "--level", "9")
    assert code == 3
    assert "hard cap" in err
    # --allow-large lifts the cap; keep it cheap with char-finite
    code, _, _ = run(
        capsys, "char-finite", "--partition", "[9]", "--perm", "[[1,2]]"
    )
    assert code == 3
    code, out, _ = run(
        capsys,
        "char-finite", "--partition", "[9]", "--perm", "[[1,2]]", "--allow-large",
    )
    assert code == 0
    assert json.loads(out)["character"] == 1


# One cheap job over the cap for each subcommand that takes --allow-large,
# and what it meets once the flag lifts the cap: a level-2 table fed at
# level 9 stops at level 2, and the exact subcommands answer.
CAPPED_JOBS = {
    "char-finite": (["--partition", "[9]", "--perm", "[[1,2]]"], None),
    "induce-char": (["--partition", "[5]", "--mu", "[4]", "--level", "9"], None),
    "dual-norm": (["TABLE", "--level", "9"], "stops at level 2"),
    "psd-check": (["TABLE", "--level", "9"], "stops at level 2"),
    "classify": (["TABLE", "--level", "9", "--support-bounds", "1,0"], "stops at level 2"),
    "stability-profile": (["TABLE", "--level", "9"], "stops at level 2"),
    "centrality-defect": (["TABLE", "--cut", "1", "--level", "9"], "stops at level 2"),
    "gns-verify": (["TABLE", "--level", "9"], "stops at level 2"),
}
UNCAPPED_JOBS = {
    "eval-state": ["SPEC", "--perm", "[]"],
    "char-thoma": ["SPEC", "--perm", "[]"],
    "asymptotic-char": ["SPEC", "--perm", "[[1,2]]"],
    "recover-params": ["VALUES", "--support-bounds", "1,0"],
    "quasi-equivalent": ["SPEC", "SPEC"],
}


def _files(argv, tmp_path, spec_a):
    files = {"TABLE": write(tmp_path / "t.json", {"level": 2, "values": [[[], 1]]}),
             "SPEC": spec_a, "VALUES": write(tmp_path / "v.json", {"2": 0.5, "3": 0.25})}
    return [files.get(a, a) for a in argv]


def test_allow_large_is_on_exactly_the_capped_subcommands():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(CAPPED_JOBS) == sorted(
        name for name, p in sub.choices.items()
        if any("--allow-large" in a.option_strings for a in p._actions))
    assert sorted(UNCAPPED_JOBS) == sorted(set(sub.choices) - set(CAPPED_JOBS))


@pytest.mark.parametrize("command", CAPPED_JOBS)
def test_every_allow_large_lifts_the_cap(capsys, tmp_path, spec_a, command):
    argv, after = CAPPED_JOBS[command]
    argv = _files(argv, tmp_path, spec_a)
    code, out, err = run(capsys, command, *argv)
    assert code == 3 and out == ""
    assert "hard cap" in err
    code, out, err = run(capsys, command, *argv, "--allow-large")
    assert "hard cap" not in err
    if after is None:
        assert code == 0 and json.loads(out)
    else:
        assert code == 3 and after in err


@pytest.mark.parametrize("command", UNCAPPED_JOBS)
def test_allow_large_is_refused_where_no_cap_applies(capsys, tmp_path, spec_a, command):
    argv = _files(UNCAPPED_JOBS[command], tmp_path, spec_a)
    assert run(capsys, command, *argv)[0] in (0, 1)
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--allow-large"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


# One BLAS thread: a pool per core would reserve address space that measures
# the machine, not the job, and BLAS rounding changes with the thread count.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env(**extra):
    """The environment of a child python that imports this source tree."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


def _limit_address_space():
    # Runs in the child only, between fork and exec.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


DENSE_PARAMS = {"alpha": ["1/2", "1/5"], "beta": ["1/4"]}


@pytest.fixture(scope="module")
def dense_level_eight_table(tmp_path_factory):
    """The cut-0 spec of DENSE_PARAMS as a table file: 8! rows, all nonzero."""
    spec = cli._spec_from({"n": 0, "lambda": [], **DENSE_PARAMS}, "cut0")
    values = as_table(spec, 8).vector.real
    rows = [[g.cycles(), float(v)] for g, v in zip(symmetric_group(8), values)]
    return write(tmp_path_factory.mktemp("dense") / "table.json", {"level": 8, "values": rows})


@pytest.mark.parametrize("argv", [
    ["dual-norm", "cut0"], ["psd-check", "cut0"], ["stability-profile", "cut1", "--max-shift", "1"],
    ["dual-norm", "table"], ["psd-check", "table"],
])
def test_dense_level_eight_runs_in_two_gib(tmp_path, dense_level_eight_table, argv):
    # The documented cap: a dense level-8 job within 2 GiB of address space.
    # The specs take the exact spectral path; the table runs the transform.
    states = {"cut0": write(tmp_path / "cut0.json", {"n": 0, "lambda": [], **DENSE_PARAMS}),
              "cut1": write(tmp_path / "cut1.json", {"n": 1, "lambda": [1], **DENSE_PARAMS}),
              "table": dense_level_eight_table}
    command, state, *rest = argv
    proc = subprocess.run(
        [sys.executable, "-m", "stablerep.cli", command, states[state], "--level", "8", *rest],
        env=_child_env(**ONE_BLAS_THREAD), capture_output=True, text=True,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr


def _jacobi_trudi(shape, h):
    """det(h_{shape_i - i + j}), the Schur function from the complete ones h,
    by exact Gaussian elimination."""
    rows = [[h(shape[i] - i + j) for j in range(len(shape))] for i in range(len(shape))]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            ratio = rows[r][c] / rows[c][c]
            rows[r] = [x - ratio * y for x, y in zip(rows[r], rows[c])]
    return det


def _complete(alpha, beta, degree):
    """h_0..h_degree: coefficients of e^(gamma t) prod(1 + b t) / prod(1 - a t)."""
    gamma = 1 - sum(alpha) - sum(beta)
    series = [gamma ** k / math.factorial(k) for k in range(degree + 1)]
    for a in alpha:  # times 1 / (1 - a t)
        for k in range(1, degree + 1):
            series[k] += a * series[k - 1]
    for b in beta:  # times (1 + b t)
        series = [series[0]] + [series[k] + b * series[k - 1] for k in range(1, degree + 1)]
    return series


def _spec_job_in_512_mib(tmp_path, command, state, level):
    """Run a spec's dual-norm or psd-check at a level far above any table, under a
    512 MiB RLIMIT_AS, and check its report: the norm is 1, and the cut-0 spec's
    min_eigenvalue is the least of level! s_lam / d_lam, its witness the first shape
    that takes it: exact spectra tie only when they are equal."""
    alpha, beta = [Fraction(1, 2), Fraction(1, 5)], [Fraction(1, 4)]  # gamma = 1/20
    paths = {"spec_cut2": str(GOLDEN / "spec_cut2.json"),
             "cut0": write(tmp_path / "cut0.json", {"n": 0, "lambda": [], **DENSE_PARAMS})}
    proc = subprocess.run(
        [sys.executable, "-m", "stablerep.cli", command, paths[state], "--level", str(level),
         "--allow-large"], env=_child_env(**ONE_BLAS_THREAD), capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if command == "dual-norm":
        assert report == {"dual_norm": 1.0, "level": level}
    else:
        assert report["positive_definite"] is True
    if command == "psd-check" and state == "cut0":
        # Block lam of a cut-0 spec is level! s_lam / d_lam times the identity,
        # and gamma > 0 makes every s_lam positive.
        h = _complete(alpha, beta, level)
        lows = {lam: math.factorial(level) * _jacobi_trudi(lam, lambda k: h[k] if k >= 0 else 0)
                / hook_dimension(lam) for lam in partitions_of(level)}
        worst = min(lows.values())
        assert worst > 0
        assert report["min_eigenvalue"] == float(worst)
        assert report["witness"] == list(min(lows, key=lows.get))


@pytest.mark.parametrize("command", ["dual-norm", "psd-check"])
@pytest.mark.parametrize("state", ["spec_cut2", "cut0"])
def test_specs_at_level_twelve_build_no_table(tmp_path, command, state):
    # A 12! table alone is 7.7 GB; the spectral path stays under 512 MiB.
    _spec_job_in_512_mib(tmp_path, command, state, 12)


@pytest.mark.parametrize("command", ["dual-norm", "psd-check"])
@pytest.mark.parametrize("state", ["spec_cut2", "cut0"])
def test_specs_at_level_twenty_take_no_character_table(tmp_path, command, state):
    # Jacobi-Trudi and Littlewood-Richardson counts in place of the p(20)^2
    # Murnaghan-Nakayama values that took 181 MB.
    _spec_job_in_512_mib(tmp_path, command, state, 20)


def test_jobs_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: neither the import nor the jobs
    # that fit parameters or build a standard form may load scipy.  Nor may
    # they load numpy.polynomial, whose import costs every cold fitting job
    # milliseconds and most of a megabyte.
    spec = write(tmp_path / "spec.json",
                 {"n": 2, "lambda": [1, 1], "alpha": ["1/2", "1/5"], "beta": ["1/4"]})
    values = write(tmp_path / "values.json", {str(k): 2.0 ** (1 - k) for k in range(2, 9)})
    script = """
import contextlib, io, json, sys
import stablerep.cli
def banned_modules():
    return sorted(m for m in sys.modules if m.startswith(("scipy", "numpy.polynomial")))
loaded = {"import": banned_modules()}
jobs = {"recover-params": ["recover-params", sys.argv[2], "--support-bounds", "2,0"],
        "classify": ["classify", sys.argv[1], "--level", "5", "--support-bounds", "2,1"],
        "gns-verify": ["gns-verify", sys.argv[1], "--level", "4"]}
codes = {}
for name, argv in jobs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = stablerep.cli.main(argv)
loaded["jobs"] = banned_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    proc = subprocess.run([sys.executable, "-c", script, spec, values],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {"recover-params": 0, "classify": 0, "gns-verify": 0}
    assert result["loaded"] == {"import": [], "jobs": []}


def test_gns_verify_of_zero_state_fails_with_report(capsys, tmp_path):
    # The zero functional has an empty GNS carrier; this used to raise an
    # IndexError traceback from the commutant of 0 x 0 matrices.
    zero = write(tmp_path / "z.json", {"level": 3, "values": []})
    code, out, _ = run(capsys, "gns-verify", zero, "--level", "2")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "carrier is empty" in report["failure"]


def test_gns_verify_of_a_table_with_f_e_zero_fails_with_report(capsys, tmp_path):
    # The Gram eigenvalues are +-5e-10, within the tolerances, but a positive
    # definite f with f(e) = 0 is 0, and the standard form's state divides by f(e).
    table = write(tmp_path / "t.json", {"level": 2, "values": [[[], 0], [[[1, 2]], 5e-10]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "gns-verify", table, "--level", "2")
    assert code == 1
    assert "carrier is empty" in json.loads(out)["failure"]


def test_classify_failure_writes_a_report(capsys, tmp_path):
    # Exit 1 comes with a report, as for every other certificate failure.
    table = write(tmp_path / "c.json", {"level": 3, "values": [[[], 1], [[[1, 2]], 0.3]]})
    code, out, _ = run(capsys, "classify", table, "--level", "3", "--support-bounds", "1,0")
    assert code == 1
    report = json.loads(out)
    assert report["failure"].startswith("classification failed: ")
    assert (report["level"], report["support_bounds"]) == (3, [1, 0])


def test_classify_refuses_a_fit_over_the_residual_threshold(capsys, tmp_path):
    # Bounds (0, 0) cannot fit alpha = (1/2): the residual is 0.078, far over 1e-10.
    spec = write(tmp_path / "s.json", {"n": 1, "lambda": [1], "alpha": ["1/2"], "beta": []})
    code, out, _ = run(capsys, "classify", spec, "--level", "3", "--support-bounds", "0,0")
    assert code == 1
    report = json.loads(out)
    assert "residual 0.078125 exceeds 1e-10" in report["failure"]
    assert (report["level"], report["support_bounds"]) == (3, [0, 0])
    code, out, _ = run(capsys, "classify", spec, "--level", "3", "--support-bounds", "1,0")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == [pytest.approx(0.5)] and report["residual"] <= 1e-10


@pytest.mark.parametrize("n, lam, level", [(2, [1, 1], "2"), (3, [2, 1], "3")])
def test_classify_refuses_an_invariant_that_misses_the_state(capsys, tmp_path, n, lam,
                                                               level):
    # At a level no higher than the depth the state on S_K is a normalised
    # character restricted to S_K, a class function, so the depth reads 0
    # there.  The fit is exact, but the invariant (0, (), alpha, beta) does
    # not give back the state on S_K, and is refused.
    spec = write(tmp_path / "s.json",
                 {"n": n, "lambda": lam, "alpha": ["1/2", "1/5"], "beta": ["1/4"]})
    code, out, _ = run(capsys, "classify", spec, "--level", level, "--support-bounds", "2,1")
    assert code == 1
    report = json.loads(out)
    assert report["failure"].startswith(
        "classification failed: the recovered invariant misses the state on S_%s by " % level)
    assert (report["level"], report["support_bounds"]) == (int(level), [2, 1])


@pytest.mark.parametrize("key", ["02", "1_0", " 2", "+3"])
def test_recover_params_key_is_a_decimal_integer(capsys, tmp_path, key):
    # int() reads each of these keys; "02" would overwrite the value of "2".
    path = write(tmp_path / "values.json", {"2": 0.3, key: 0.1, "3": 0.05})
    code, out, err = run(capsys, "recover-params", path, "--support-bounds", "1,0")
    assert code == 2 and out == ""
    assert err == "error: cycle length key %r is not a decimal integer [%s]\n" % (key, path)


def test_fit_threshold_has_one_home():
    # classify's gate and recover-params' default read thoma's threshold,
    # the default of RecoveryResult.ok; every other --tol default is the
    # named default of the library call it is passed to.
    from stablerep import thoma
    from stablerep.canonical import (EQUIVALENCE_TOL, STABILIZATION_TOL,
                                     asymptotic_character, quasi_equivalent)
    from stablerep.fourier import PSD_TOL, is_positive_definite

    assert cli.RESIDUAL_TOL is thoma.RESIDUAL_TOL
    parse = cli._build_parser().parse_args
    assert parse(["recover-params", "v.json", "--support-bounds", "1,0"]).tol is thoma.RESIDUAL_TOL
    assert parse(["psd-check", "s.json", "--level", "2"]).tol is PSD_TOL
    assert parse(["asymptotic-char", "s.json", "--perm", "[]"]).tol is STABILIZATION_TOL
    assert parse(["quasi-equivalent", "a.json", "b.json"]).tol is EQUIVALENCE_TOL
    for fn, tol in [(is_positive_definite, PSD_TOL), (asymptotic_character, STABILIZATION_TOL),
                    (quasi_equivalent, EQUIVALENCE_TOL)]:
        assert inspect.signature(fn).parameters["tol"].default is tol


@pytest.mark.parametrize("bounds", ["2", "abc", "1,x", "1,2,3"])
def test_malformed_support_bounds_exit_2(capsys, tmp_path, spec_a, bounds):
    values = write(tmp_path / "v.json", {"2": 0.5, "3": 0.25})
    for argv in (["classify", spec_a, "--level", "5"], ["recover-params", values]):
        code, out, err = run(capsys, *argv, "--support-bounds=" + bounds)
        assert (code, out) == (2, "")
        assert err.endswith(" [--support-bounds]\n")


def test_negative_support_bounds_exit_3(capsys, spec_a):
    code, _, err = run(
        capsys, "classify", spec_a, "--level", "5", "--support-bounds=-1,0"
    )
    assert code == 3


def test_reports_are_byte_identical(capsys, tmp_path, spec_a):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(
            ["classify", spec_a, "--level", "5", "--support-bounds", "2,0",
             "--output", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


GOLDEN = pathlib.Path(__file__).parent / "golden"


SPECTRAL_COMMANDS, SPECTRAL_STATES = ["dual-norm", "psd-check"], ["spec_cut2", "table_cut1_l6"]


@pytest.mark.parametrize("command", SPECTRAL_COMMANDS)
@pytest.mark.parametrize("state", SPECTRAL_STATES)
def test_reports_match_golden_files(capsys, command, state):
    # The golden reports pin the reports byte for byte.  The psd-check
    # witnesses are the first shape within float noise of the minimal
    # eigenvalue.  The cut-2 spec's block spectra are exact rationals from
    # its characters, summed exactly, so its dual norm is exactly f(e) = 1.
    code, out, _ = run(capsys, command, str(GOLDEN / (state + ".json")), "--level", "6")
    assert code == 0
    assert out == (GOLDEN / ("%s_%s.json" % (command, state))).read_text()


INVARIANT_GOLDENS = [
    ("classify_spec_cut2", ["classify", "spec_cut2", "--level", "6", "--support-bounds", "2,2"]),
    ("stability-profile_spec_cut2", ["stability-profile", "spec_cut2", "--level", "6"]),
    ("stability-profile_table_cut1_l6", ["stability-profile", "table_cut1_l6", "--level", "6"]),
    ("stability-profile-max-shift-5_spec_cut2",
     ["stability-profile", "spec_cut2", "--level", "6", "--max-shift", "5"]),
    ("stability-profile-exhaustive-sweep_spec_cut2",
     ["stability-profile", "spec_cut2", "--level", "5", "--exhaustive-sweep"]),
    ("centrality-defect_spec_cut2", ["centrality-defect", "spec_cut2", "--cut", "1", "--level", "6"]),
    ("centrality-defect_table_cut1_l6",
     ["centrality-defect", "table_cut1_l6", "--cut", "1", "--level", "6"]),
    ("gns-verify-level-3_spec_cut2", ["gns-verify", "spec_cut2", "--level", "3"]),
    ("gns-verify-level-4_spec_cut2", ["gns-verify", "spec_cut2", "--level", "4"]),
    ("gns-verify-level-3_table_cut1_l6", ["gns-verify", "table_cut1_l6", "--level", "3"]),
    ("gns-verify-level-4_table_cut1_l6", ["gns-verify", "table_cut1_l6", "--level", "4"]),
]


@pytest.mark.parametrize("name, argv", INVARIANT_GOLDENS)
def test_invariant_and_stability_reports_match_golden_files(capsys, name, argv):
    # Pinned byte for byte: the classified invariant, the stability
    # defects and the GNS certificates.  Probes inside S_6 gather the
    # level-6 table; from (5 6 7) at cut 4 on, the probes of --max-shift 5
    # leave S_6 and pull the spec back.  The level-4 GNS residuals carry
    # BLAS rounding: they change in their last digits with the thread count,
    # so those jobs run in a child with one BLAS thread, as the benchmark's do.
    argv = [str(GOLDEN / (a + ".json")) if a in ("spec_cut2", "table_cut1_l6") else a
            for a in argv]
    if name.startswith("gns-verify-level-4"):
        code, out, _ = _run_one_blas_thread(*argv)
    else:
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / (name + ".json")).read_text()


EXACT_GOLDENS = [
    ("eval-state_spec_cut2", 0, ["eval-state", "spec_cut2", "--perm", "[[1,2],[3,4,5]]"]),
    ("char-finite", 0, ["char-finite", "--partition", "[4,2,1]", "--perm", "[[1,2],[3,4,5]]"]),
    ("char-thoma_spec_cut2", 0, ["char-thoma", "spec_cut2", "--perm", "[[1,2,3],[4,5]]"]),
    ("asymptotic-char_spec_cut2", 0, ["asymptotic-char", "spec_cut2", "--perm", "[[1,2,3]]"]),
    ("recover-params_values_cut2", 0,
     ["recover-params", "values_cut2", "--support-bounds", "2,1"]),
    ("quasi-equivalent_spec_cut2_spec_cut3", 1, ["quasi-equivalent", "spec_cut2", "spec_cut3"]),
    ("induce-char", 0, ["induce-char", "--partition", "[2,1]", "--mu", "[2]", "--level", "5"]),
]


@pytest.mark.parametrize("name, code, argv", EXACT_GOLDENS)
def test_exact_and_fit_reports_match_golden_files(capsys, name, code, argv):
    # Pinned byte for byte: the reports of the subcommands that build no
    # Fourier transform.  values_cut2 holds the cycle values of spec_cut2's
    # parameters, and its fit reads the same under one and two BLAS threads.
    inputs = ("spec_cut2", "spec_cut3", "values_cut2")
    argv = [str(GOLDEN / (a + ".json")) if a in inputs else a for a in argv]
    assert run(capsys, *argv)[:2] == (code, (GOLDEN / (name + ".json")).read_text())


# The job of every golden report above, input files by name.
GOLDEN_JOBS = ([[command, state, "--level", "6"] for command in SPECTRAL_COMMANDS
                for state in SPECTRAL_STATES]
               + [argv for _, argv in INVARIANT_GOLDENS] + [argv for *_, argv in EXACT_GOLDENS])


def _run_one_blas_thread(*argv, script=None):
    """A cold CLI job with one BLAS thread, or script run on argv in its place."""
    head = ["-m", "stablerep.cli"] if script is None else ["-c", script]
    proc = subprocess.run([sys.executable, *head, *argv], env=_child_env(**ONE_BLAS_THREAD),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


_NO_PERMUTATION_PRODUCTS = """
import sys
from stablerep import cli, permutations

def refuse(*args):
    raise AssertionError("a Permutation product or symmetric_group on the gns-verify path")

permutations.Permutation.__mul__ = refuse
for name, module in list(sys.modules.items()):
    if name.startswith("stablerep") and getattr(module, "symmetric_group", None) is not None:
        module.symmetric_group = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


def test_gns_verify_runs_on_the_index_layer():
    # No Permutation product and no walk over symmetric_group: the links of
    # the certificate are rows of permutations.product_table.
    code, out, err = _run_one_blas_thread("gns-verify", str(GOLDEN / "spec_cut2.json"),
                                          "--level", "4", script=_NO_PERMUTATION_PRODUCTS)
    assert code == 0, err
    assert out == (GOLDEN / "gns-verify-level-4_spec_cut2.json").read_text()


def test_cache_dir_flag_is_gone(capsys, spec_a):
    # The generator disk cache was write-only and has been removed; its
    # flag is now an unknown argument, which argparse refuses with exit 2.
    with pytest.raises(SystemExit) as exc:
        main(["dual-norm", spec_a, "--level", "3", "--cache-dir", "x"])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_output_flag_writes_file(tmp_path, spec_a):
    out = tmp_path / "report.json"
    code = main(["eval-state", spec_a, "--perm", "[]", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["value"] == 1.0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 13) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_partitions = st.integers(0, 12).flatmap(lambda k: st.sampled_from(partitions_of(k)))
_flag_text = st.one_of(
    _partitions.map(lambda p: json.dumps(list(p))),
    st.lists(st.integers(-2, 12), max_size=5).map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=6),
)


@st.composite
def _induce_argv(draw):
    if draw(st.booleans()):
        # a well-formed job: |lambda| + |mu| = level <= 12
        lam = draw(_partitions)
        mu = draw(st.integers(0, 12 - sum(lam))
                  .flatmap(lambda k: st.sampled_from(partitions_of(k))))
        partition, tail, level = json.dumps(list(lam)), json.dumps(list(mu)), sum(lam + mu)
    else:
        partition, tail = draw(_flag_text), draw(_flag_text)
        level = draw(st.integers(-2, 12))
    argv = ["induce-char", "--partition=" + partition, "--mu=" + tail,
            "--level=%d" % level]
    return argv + (["--allow-large"] if draw(st.booleans()) else [])


@settings(max_examples=150, deadline=None)
@given(argv=_induce_argv())
def test_induce_char_fuzz_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects text it cannot parse
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["multiplicities"]


_number_leaves = (st.none() | st.booleans() | st.integers(-3, 13) | st.floats()
                  | st.sampled_from(["1/2", "-3/4", "1/0", "2/3x"]) | st.text(max_size=4))


@st.composite
def _recover_job(draw):
    if draw(st.booleans()):
        # a well-formed job: keys 2..k with k <= 12 and bounds r, s <= 2
        kmax = draw(st.integers(2, 12))
        value = st.floats(-1, 1) | _number_leaves
        values = {str(k): draw(value) for k in range(2, kmax + 1)}
        bounds = "%d,%d" % (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    else:
        values = draw(st.dictionaries(st.text(max_size=3), _number_leaves, max_size=5)
                      | _json_values)
        bounds = draw(st.text(max_size=6))
    return values, bounds


def _strict_json(text):
    def refuse(constant):
        raise ValueError("%s is not JSON" % constant)
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, deadline=None)
@given(job=_recover_job())
def test_recover_params_fuzz_never_crashes(tmp_path_factory, job):
    values, bounds = job
    path = tmp_path_factory.getbasetemp() / "fuzz_values.json"
    path.write_text(json.dumps(values))
    argv = ["recover-params", str(path), "--support-bounds=" + bounds]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, values, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert _strict_json(out.getvalue())["ok"] is (code == 0)


@st.composite
def _state_file(draw):
    """A canonical spec, a value table, or arbitrary JSON, all at small levels."""
    kind = draw(st.sampled_from(["spec", "table", "json"]))
    if kind == "spec":
        n = draw(st.integers(0, 4))
        lam = draw(st.sampled_from(partitions_of(n)))
        entry = st.sampled_from(["1/2", "1/4", "1/8", "1/5"]) | _number_leaves
        data = {"n": n, "lambda": list(lam),
                "alpha": draw(st.lists(entry, max_size=2)),
                "beta": draw(st.lists(entry, max_size=2))}
    elif kind == "table":
        level = draw(st.integers(0, 4))
        point = st.integers(1, level + 2)
        cycles = st.lists(st.lists(point, min_size=2, max_size=3, unique=True), max_size=2)
        number = st.floats(-2, 2) | st.sampled_from([1, 0, "1/3"]) | _number_leaves
        data = {"level": draw(st.integers(-1, 4) | st.just(level)),
                "values": draw(st.lists(st.tuples(cycles, number).map(list), max_size=6))}
    else:
        data = draw(_json_values)
    return data


@st.composite
def _state_job(draw):
    command = draw(st.sampled_from(
        ["dual-norm", "psd-check", "centrality-defect", "stability-profile"]))
    argv = [command, "--level=%d" % draw(st.integers(-2, 5))]
    if command == "centrality-defect":
        argv.append("--cut=%d" % draw(st.integers(-2, 6)))
    elif command == "stability-profile" and draw(st.booleans()):
        argv.append("--max-shift=%d" % draw(st.integers(-2, 6)))
    return draw(_state_file()), argv


@settings(max_examples=120, deadline=None)
@given(job=_state_job())
def test_state_subcommands_fuzz_never_crash(tmp_path_factory, job):
    data, argv = job
    path = tmp_path_factory.getbasetemp() / "fuzz_state.json"
    path.write_text(json.dumps(data))
    argv = [argv[0], str(path)] + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, data, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert _strict_json(out.getvalue())


def _perm_text(draw):
    if draw(st.booleans()):
        # a well-formed small permutation, at most 6 points
        points = draw(st.permutations(range(1, 7)))
        cuts = sorted(draw(st.lists(st.integers(0, 6), max_size=3)))
        cycles = [list(points[a:b]) for a, b in zip([0] + cuts, cuts + [6])]
        return json.dumps([c for c in cycles if len(c) >= 2])
    return draw(_flag_text | st.lists(st.lists(_number_leaves, max_size=3), max_size=2)
                .map(json.dumps))


@st.composite
def _spec_or_json(draw):
    if draw(st.booleans()):
        return draw(_state_file())
    n = draw(st.integers(0, 4))
    entry = st.sampled_from(["1/2", "1/4", "1/8", "1/5", 0.25])
    return {"n": n, "lambda": list(draw(st.sampled_from(partitions_of(n)))),
            "alpha": draw(st.lists(entry, max_size=2)), "beta": draw(st.lists(entry, max_size=2))}


@st.composite
def _small_job(draw):
    """One of the seven subcommands the other fuzz tests leave out, with its files."""
    command = draw(st.sampled_from(["eval-state", "char-finite", "char-thoma", "asymptotic-char",
                                    "classify", "quasi-equivalent", "gns-verify"]))
    files, argv = [], [command]
    if command == "char-finite":
        partition = draw(st.integers(0, 4).flatmap(lambda k: st.sampled_from(partitions_of(k)))
                         .map(lambda p: json.dumps(list(p))) | _flag_text)
        argv += ["--partition=" + partition, "--perm=" + _perm_text(draw)]
    elif command == "char-thoma":
        spec = draw(_spec_or_json())
        files.append({k: v for k, v in spec.items() if k in ("alpha", "beta")}
                     if isinstance(spec, dict) and draw(st.booleans()) else spec)
        argv.append("--perm=" + _perm_text(draw))
    elif command == "quasi-equivalent":
        files += [draw(_spec_or_json()), draw(_spec_or_json())]
    else:
        files.append(draw(_spec_or_json()))
        if command in ("eval-state", "asymptotic-char"):
            argv.append("--perm=" + _perm_text(draw))
        if command == "asymptotic-char" and draw(st.booleans()):
            argv.append("--max-shift=%d" % draw(st.integers(-2, 12)))
        if command == "classify":
            bounds = "%d,%d" % (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            argv += ["--level=%d" % draw(st.integers(-2, 4)),
                     "--support-bounds=" + draw(st.just(bounds) | st.text(max_size=4))]
        if command == "gns-verify":
            # k < 0 and k = 9, above the hard cap, are refused before the state is read
            argv.append("--level=%d" % draw(st.integers(-2, 6) | st.just(9)))
    return files, argv


@settings(max_examples=150, deadline=None)
@given(job=_small_job())
def test_remaining_subcommands_fuzz_never_crash(tmp_path_factory, job):
    files, argv = job
    paths = []
    for i, data in enumerate(files):
        path = tmp_path_factory.getbasetemp() / ("fuzz_input_%d.json" % i)
        path.write_text(json.dumps(data))
        paths.append(str(path))
    argv = argv[:1] + paths + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects flag text it cannot parse
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, files, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert _strict_json(out.getvalue())
