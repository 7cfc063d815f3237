"""Subcommand behavior: reports, exit codes, determinism, refusals."""

import contextlib
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerep import cli
from stablerep.cli import main
from stablerep.partitions import partitions_of


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
    for key in ("j_squared_residual", "homomorphism_residual", "ad_residual"):
        assert report[key] < 1e-8


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
], ids=["float-point", "bool-point", "repeated-transposition", "repeated-identity"])
def test_bad_table_row_exits_2(capsys, tmp_path, rows, bad_row):
    # A later row for the same permutation used to overwrite the earlier one.
    table = write(tmp_path / "t.json", {"level": 3, "values": rows})
    code, out, err = run(capsys, "dual-norm", table, "--level", "3")
    assert code == 2 and out == ""
    assert "[%s values[%d]]" % (table, bad_row) in err


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


def test_memory_error_exits_3(capsys, monkeypatch, spec_a):
    def exhausted(table):
        raise MemoryError("Unable to allocate 2.94 GiB for an array")

    monkeypatch.setattr(cli, "dual_norm", exhausted)
    code, out, err = run(capsys, "dual-norm", spec_a, "--level", "3")
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
    table = write(tmp_path / "t.json", {"level": 3, "values": [[[[1, 2, 3]], 1]]})
    code, out, err = run(capsys, "psd-check", table, "--level", "3")
    assert code == 2 and out == ""
    assert "not hermitian" in err and table in err


def test_overflowing_table_exits_3(capsys, tmp_path):
    # Each value is finite, but their block sums overflow to inf.
    table = write(tmp_path / "t.json",
                  {"level": 2, "values": [[[], 1e308], [[[1, 2]], 1e308]]})
    code, out, err = run(capsys, "dual-norm", table, "--level", "2")
    assert code == 3 and out == ""
    assert "not finite" in err


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


def test_gns_verify_of_zero_state_fails_with_report(capsys, tmp_path):
    # The zero functional has an empty GNS carrier; this used to raise an
    # IndexError traceback from the commutant of 0 x 0 matrices.
    zero = write(tmp_path / "z.json", {"level": 3, "values": []})
    code, out, _ = run(capsys, "gns-verify", zero, "--level", "2")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "carrier is empty" in report["failure"]


def test_classify_failure_writes_a_report(capsys, tmp_path):
    # Exit 1 comes with a report, as for every other certificate failure.
    table = write(tmp_path / "c.json", {"level": 3, "values": [[[], 1], [[[1, 2]], 0.3]]})
    code, out, _ = run(capsys, "classify", table, "--level", "3", "--support-bounds", "1,0")
    assert code == 1
    report = json.loads(out)
    assert report["failure"].startswith("classification failed: ")
    assert (report["level"], report["support_bounds"]) == (3, [1, 0])


def test_bad_support_bounds_exit_3(capsys, spec_a):
    code, _, err = run(
        capsys, "classify", spec_a, "--level", "5", "--support-bounds", "2"
    )
    assert code == 3
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


@pytest.mark.parametrize("command", ["dual-norm", "psd-check"])
@pytest.mark.parametrize("state", ["spec_cut2", "table_cut1_l6"])
def test_reports_match_golden_files(capsys, command, state):
    # The golden reports were written by the per-element implementation
    # that held values in a dict; the vector one must match them byte for
    # byte.  The cut-2 spec takes the sparse Fourier branch, the table the
    # dense one.
    code, out, _ = run(capsys, command, str(GOLDEN / (state + ".json")), "--level", "6")
    assert code == 0
    assert out == (GOLDEN / ("%s_%s.json" % (command, state))).read_text()


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
            # k = 4 costs seconds per example; the CLI tests cover it once
            argv.append("--level=%d" % draw(st.integers(-2, 3)))
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
