import ast
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC
from sklab import mukai, residues
from sklab.cli import run
from sklab.theta import ThetaBasis


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

# Verbatim stdout of commands whose outputs are exact (integers,
# Fractions, words), as the hand-written JSON emitter printed them before
# json.dumps took over; the serializer must not change a byte of them.
EXACT_OUTPUTS = {
    "tensor solve --case gsp:4": (
        '{"case": "gsp:4", "dim": 1, "basis": [[["0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "2/1", "0/1", "0/1", "0/1", "0/1"], ["0/1", '
        '"0/1", "0/1", "2/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1"], ["0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1", '
        '"0/1", "0/1", "0/1"], ["0/1", "2/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1", '
        '"1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1", "0/1", "0/1"], '
        '["2/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1", "0/1"], ["0/1", "0/1", "1/1", "0/1", "0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1", "0/1", '
        '"1/1", "0/1", "0/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1", "0/1"], ["0/1", '
        '"0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", "0/1", '
        '"-1/1"]]]}\n'
    ),
    "walls --r1 2 --r2 1 --d1 3 --d2 0 --lo 0 --hi 3": (
        '{"walls": [{"tau": "1/2", "witnesses": [[0, 1, 2], [2, 0, 1]]}, '
        '{"tau": "1/1", "witnesses": [[0, 1, 1], [1, 0, 1], [1, 1, 2], [2, '
        '0, 2]]}, {"tau": "3/2", "witnesses": [[0, 1, 0], [2, 0, 3]]}, '
        '{"tau": "2/1", "witnesses": [[0, 1, -1], [1, 0, 2], [1, 1, 1], '
        '[2, 0, 4]]}, {"tau": "5/2", "witnesses": [[0, 1, -2], [2, 0, '
        '5]]}], "degenerations": []}\n'
    ),
    "mukai solve-tr --r 2 --d 7": (
        '{"word": "S S S S R R S- R- R- R- S- S-", "r_prime": 3}\n'
    ),
    "s3 orbits --d 13": (
        '{"d": 13, "members": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], '
        '"orbits": [[1, 6, 11], [2, 4, 5, 7, 8, 10], [3, 9]], '
        '"phi_fixed": [3, 9], "phibeta_fixed": [11]}\n'
    ),
}


def test_theta_eval_json(capsys):
    code, out, _ = run_cli(capsys, "theta", "eval", "--d", "5", "--m", "1",
                           "--z", "0.13,0.21")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 5
    assert doc["value_re"] == pytest.approx(-0.355941628487690, rel=1e-12)
    assert all(row["pass"] for row in doc["residuals"])


def test_theta_check_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "theta", "check", "--d", "3",
                             "--trials", "20", "--seed", "4")
    code2, out2, _ = run_cli(capsys, "theta", "check", "--d", "3",
                             "--trials", "20", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_iso_pass_and_usage_error(capsys):
    code, out, _ = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "3", "--x", "0.11,0.17")
    assert code == 0
    assert json.loads(out)["residuals"][0]["pass"]

    code, _, err = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "2", "--x", "0.11,0.17")
    assert code == 2
    assert "not 1 mod" in err


def test_check_iso_failing_tolerance_is_exit_one(capsys):
    code, out, _ = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "3", "--x", "0.11,0.17",
                           "--iso-tol", "1e-20")
    assert code == 1
    assert not json.loads(out)["residuals"][0]["pass"]


def test_sklyanin_relations_dump_roundtrip(capsys, tmp_path):
    dump = tmp_path / "coeffs.json"
    code, out, _ = run_cli(capsys, "sklyanin", "relations", "--d", "4",
                           "--r", "3", "--x", "0.11,0.17",
                           "--dump", str(dump))
    assert code == 0
    assert json.loads(out)["rank"] == 6
    doc = json.loads(dump.read_text())
    assert doc["d"] == 4 and doc["r"] == 3 and doc["rank"] == 6
    assert len(doc["rows"]) == 16
    for row in doc["rows"]:
        for term in row["terms"]:
            assert set(term) == {"n", "a", "b", "coeff_re", "coeff_im"}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_sklyanin_relations_without_gap_report_null(capsys, fmt):
    # rank 0 at d = 1: no singular-value gap exists, which is not an error
    code, out, _ = run_cli(capsys, "sklyanin", "relations", "--d", "1",
                           "--r", "0", "--x", "0.11,0.17", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["gap"] is None
    else:
        assert "gap: null" in out.splitlines()


def test_poisson_extract_then_jacobi(capsys, tmp_path):
    dump = tmp_path / "pi.json"
    code, out, _ = run_cli(capsys, "poisson", "extract", "--d", "3",
                           "--r", "1", "--dump", str(dump))
    assert code == 0
    assert json.loads(out)["richardson_error"] < 1e-6

    code, out, _ = run_cli(capsys, "poisson", "jacobi", "--in", str(dump),
                           "--trials", "40", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_jacobi"] < 1e-6
    assert all(row["pass"] for row in doc["residuals"])


def test_poisson_extract_rejects_nonpositive_h(capsys):
    for flag in ("--h=0", "--h=-3e-5"):
        code, _, err = run_cli(capsys, "poisson", "extract", "--d", "3",
                               "--r", "1", flag)
        assert code == 2
        assert "h must be positive" in err


@pytest.mark.parametrize("argv", [
    ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "nan"),
    ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "inf,0"),
    ("sklyanin", "check-iso", "--d", "5", "--r", "2", "--rprime", "3",
     "--x", "0.11,-inf"),
    ("poisson", "extract", "--d", "3", "--r", "1", "--h", "inf"),
])
def test_non_finite_x_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: x must be finite" in err


def test_no_generic_x_is_exit_one_without_traceback(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "sklab.cli", "theta", "check", "--d", "3",
         "--zero-tol", "0.9"],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "verification failed: no generic x found" in proc.stderr
    assert "zero_tol=0.9" in proc.stderr


def test_mukai_act_and_invariants(capsys):
    code, out, _ = run_cli(capsys, "mukai", "act", "--object", "torsion",
                           "--word", "S")
    assert code == 0
    assert json.loads(out) == {"class": "bundle:1,0", "shift": 0}

    code, out, _ = run_cli(capsys, "mukai", "invariants",
                           "--v1", "1,0", "--v2", "2,7")
    assert code == 0
    assert json.loads(out) == {"det": 7, "alpha": 4}


def test_mukai_solvers(capsys):
    code, out, _ = run_cli(capsys, "mukai", "solve-tr", "--r", "2", "--d", "7")
    assert code == 0
    assert json.loads(out)["r_prime"] == 3

    code, out, _ = run_cli(capsys, "mukai", "solve-ur", "--r", "2", "--d", "7")
    assert code == 0
    assert json.loads(out)["r_prime"] == 4

    code, _, err = run_cli(capsys, "mukai", "solve-tr", "--r", "2", "--d", "4")
    assert code == 2


def test_s3_orbits_output(capsys):
    code, out, _ = run_cli(capsys, "s3", "orbits", "--d", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [1, 2, 3, 4, 5]
    assert doc["orbits"] == [[1, 3, 5], [2, 4]]
    assert doc["phi_fixed"] == [2, 4]
    assert doc["phibeta_fixed"] == [5]


def test_walls_output_rationals(capsys):
    code, out, _ = run_cli(capsys, "walls", "--r1", "2", "--r2", "1",
                           "--d1", "3", "--d2", "0", "--lo", "0/1",
                           "--hi", "3/1")
    assert code == 0
    doc = json.loads(out)
    assert [w["tau"] for w in doc["walls"]] == \
        ["1/2", "1/1", "3/2", "2/1", "5/2"]
    assert doc["degenerations"] == []


def test_walls_bad_rational_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "walls", "--r1", "2", "--r2", "1",
                           "--d1", "3", "--d2", "0", "--lo", "1/0",
                           "--hi", "3/1")
    assert code == 2


def test_tensor_check_and_solve(capsys):
    code, out, _ = run_cli(capsys, "tensor", "check", "--case", "gl:2,1")
    assert code == 0
    assert all(row["pass"] for row in json.loads(out)["residuals"])

    code, out, _ = run_cli(capsys, "tensor", "solve", "--case", "gsp:4")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_format_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("SKLAB_FORMAT", "table")
    code, out, _ = run_cli(capsys, "s3", "fixed", "--d", "7")
    assert code == 0
    assert "phi_fixed: [2, 4]" in out

    code, out, _ = run_cli(capsys, "s3", "fixed", "--d", "7",
                           "--format", "json")
    assert code == 0
    json.loads(out)


def test_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("SKLAB_SEED", "99")
    code1, out1, _ = run_cli(capsys, "theta", "check", "--d", "3",
                             "--trials", "10")
    monkeypatch.setenv("SKLAB_SEED", "100")
    code2, out2, _ = run_cli(capsys, "theta", "check", "--d", "3",
                             "--trials", "10")
    assert code1 == code2 == 0
    assert out1 != out2


def test_unknown_subcommand_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_check_all_quick(capsys):
    code, out, _ = run_cli(capsys, "check", "--all", "--dmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert all(row["pass"] for row in doc["residuals"])


@pytest.mark.parametrize("seed", ["0", "7"])
def test_check_all_theta_rows_are_theta_check_rows(capsys, seed):
    code, out, _ = run_cli(capsys, "check", "--all", "--dmax", "3",
                           "--seed", seed)
    assert code == 0
    prefix = "theta_d3_"
    got = [dict(row, name=row["name"][len(prefix):])
           for row in json.loads(out)["residuals"]
           if row["name"].startswith(prefix)]
    code, out, _ = run_cli(capsys, "theta", "check", "--d", "3",
                           "--trials", "25", "--seed", seed)
    assert code == 0
    assert got == json.loads(out)["residuals"]


def test_check_all_covers_every_module(capsys):
    code, out, _ = run_cli(capsys, "check", "--all")
    assert code == 0
    doc = json.loads(out)
    names = [row["name"] for row in doc["residuals"]]
    assert doc["checks"] == len(names) == len(set(names))
    for prefix in ("theta_d3_", "theta_d5_", "sklyanin_", "substitution_",
                   "poisson_", "mukai_", "s3_", "walls_", "tensor_"):
        assert any(name.startswith(prefix) for name in names), prefix


@pytest.mark.parametrize("argv", list(EXACT_OUTPUTS))
def test_exact_outputs_verbatim(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == EXACT_OUTPUTS[argv]


def test_floats_printed_at_full_precision(capsys):
    code, out, _ = run_cli(capsys, "theta", "eval", "--d", "5", "--m", "2",
                           "--z", "0.331,0.177")
    assert code == 0
    doc = json.loads(out)
    # serialize again from the parsed doc: the printed digits must
    # round-trip to the same double
    code2, out2, _ = run_cli(capsys, "theta", "eval", "--d", "5", "--m", "2",
                             "--z", "0.331,0.177")
    assert json.loads(out2)["value_re"] == doc["value_re"]


def test_non_finite_coefficient_is_exit_one_without_traceback(capsys,
                                                              monkeypatch):
    # an infinite theta numerator makes every coefficient non-finite
    monkeypatch.setattr(ThetaBasis, "values_at_zero",
                        lambda self: np.full(self.d, np.inf, dtype=complex))
    code, out, err = run_cli(capsys, "sklyanin", "relations", "--d", "5",
                             "--r", "2", "--x", "0.11,0.17")
    assert code == 1
    assert out == ""
    assert "verification failed: non-finite relation coefficient" in err
    assert "Traceback" not in err


def test_theta_overflow_is_exit_one_without_traceback(capsys):
    # d = 9, omega = 3i, z three cells up: the cell multiplier overflows
    code, out, err = run_cli(capsys, "theta", "eval", "--omega", "0,3",
                             "--d", "9", "--m", "0", "--z", "0.1,9.2")
    assert code == 1
    assert out == ""
    assert "verification failed: theta value is not a finite float" in err
    assert "Traceback" not in err


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and with them any check they make
    for path in sorted((SRC / "sklab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("dmax", ["-5", "0", "1"])
def test_s3_check_small_dmax_is_usage_error(capsys, dmax):
    code, out, err = run_cli(capsys, "s3", "check", "--dmax", dmax)
    assert code == 2
    assert out == ""
    assert f"--dmax must be at least 2, got {dmax}" in err


def test_s3_check_smallest_dmax(capsys):
    code, out, _ = run_cli(capsys, "s3", "check", "--dmax", "2")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_failed_residue_cross_check_is_exit_one(capsys, monkeypatch):
    build = residues._action_tables

    def phi_fixes_one(d):
        members, phi, beta = build(d)
        phi = list(phi)
        phi[1] = 1
        return members, phi, beta

    monkeypatch.setattr(residues, "_action_tables", phi_fixes_one)
    code, out, err = run_cli(capsys, "s3", "fixed", "--d", "7")
    assert code == 1
    assert out == ""
    assert ("verification failed: phi fixes 1 mod 7 but r^2 + r + 1 = 3 "
            "mod 7, not 0") in err
    assert "Traceback" not in err


def test_failed_word_cross_check_is_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(mukai, "sl2_to_word", lambda matrix: mukai.GroupWord(()))
    code, out, err = run_cli(capsys, "mukai", "solve-tr", "--r", "2",
                             "--d", "7")
    assert code == 1
    assert out == ""
    assert "verification failed: word (empty) sends Bundle(2, 7)[0]" in err
    assert "Traceback" not in err
