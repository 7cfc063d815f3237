"""Subcommand behavior: reports, exit codes, determinism, the cache."""

import json

import numpy as np
import pytest

from stablerep.cli import main
from stablerep.yor import read_generator_file, yor_generators


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


def test_string_alpha_exits_2_naming_the_key(capsys, tmp_path):
    bad = write(tmp_path / "alpha.json",
                {"n": 1, "lambda": [1], "alpha": "0.5", "beta": []})
    code, _, err = run(capsys, "eval-state", bad, "--perm", "[[1,2]]")
    assert code == 2
    assert "alpha must be a list" in err and "alpha.json" in err


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
             "--seed", "3", "--output", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cache_roundtrip_and_digest(capsys, tmp_path, spec_a):
    cache = tmp_path / "cache"
    code, out, _ = run(
        capsys,
        "dual-norm", spec_a, "--level", "3", "--cache-dir", str(cache),
    )
    assert code == 0
    digest = json.loads(out)["cache_hash"]
    assert isinstance(digest, str) and len(digest) == 64
    # cached matrices reload bit-exactly
    for path in sorted(cache.glob("yor_*.bin")):
        lam, mats = read_generator_file(path)
        for a, b in zip(mats, yor_generators(lam)):
            assert a.tobytes() == b.tobytes()
    # second run: same digest, still byte-identical report
    code, out2, _ = run(
        capsys,
        "dual-norm", spec_a, "--level", "3", "--cache-dir", str(cache),
    )
    assert out2 == out


def test_output_flag_writes_file(tmp_path, spec_a):
    out = tmp_path / "report.json"
    code = main(["eval-state", spec_a, "--perm", "[]", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["value"] == 1.0
