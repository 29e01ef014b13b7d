import argparse
import ast
import importlib
import json
import pkgutil
import re
import resource
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sklab
from conftest import OMEGA, SRC
from sklab import cli, invtensor, mukai, poisson, residues, sklyanin, theta
from sklab.cli import RunConfig, build_parser, run
from sklab.theta import ThetaBasis, theta_functional_residuals


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


def test_theta_check_at_d_401(capsys):
    # the functional equations and zero counts read the unreduced series
    # in scaled form: nothing overflows (ThetaOverflowError at d = 61
    # while they went through eval) and no numpy warning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "theta", "check", "--d", "401",
                                 "--trials", "20")
    assert (code, err) == (0, "")
    rows = json.loads(out)["residuals"]
    assert all(row["pass"] for row in rows)
    assert rows[2] == {"name": "zero_count_deviation", "value": 0.0,
                       "tolerance": 0.5, "pass": True}


def test_check_iso_pass_and_usage_error(capsys):
    code, out, _ = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "3", "--x", "0.11,0.17")
    assert code == 0
    assert json.loads(out)["residuals"][0]["pass"]

    code, _, err = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "2", "--x", "0.11,0.17")
    assert code == 2
    assert "not 1 mod" in err


def test_check_iso_failing_tolerance_is_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ISO_TOL", 1e-20)
    code, out, _ = run_cli(capsys, "sklyanin", "check-iso", "--d", "5",
                           "--r", "2", "--rprime", "3", "--x", "0.11,0.17")
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
    doc = json.loads(out)
    assert doc["richardson_error"] < 1e-6
    assert "h" not in doc
    assert [row["name"] for row in doc["residuals"]] == [
        "tangent_residual", "skew_violation"]
    assert doc["residuals"][0]["tolerance"] == poisson.TANGENT_TOL

    code, out, _ = run_cli(capsys, "poisson", "jacobi", "--in", str(dump),
                           "--trials", "40", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_jacobi"] < 1e-6
    assert all(row["pass"] for row in doc["residuals"])


def test_poisson_jacobi_fails_on_an_overflowing_bracket(capsys, tmp_path):
    # every entry scaled by 1e200: the products overflow, and the check
    # fails (exit 1) rather than reading 0
    dump = tmp_path / "pi.json"
    code, _, _ = run_cli(capsys, "poisson", "extract", "--d", "5",
                         "--r", "2", "--dump", str(dump))
    assert code == 0
    payload = json.loads(dump.read_text())
    for entry in payload["entries"]:
        entry["re"], entry["im"] = 1e200 * entry["re"], 1e200 * entry["im"]
    dump.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "poisson", "jacobi", "--in", str(dump))
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: Jacobi residual of batch 0 ")
    assert "is not finite" in err and err.count("\n") == 1


def _malformed_dump(path, edit):
    payload = {"d": 3, "r": 1, "richardson_error": 0.0,
               "entries": [{"a": 0, "b": 1, "c": 1, "e": 2,
                            "re": 0.5, "im": 0.0}]}
    edit(payload)
    # an infinite entry is written as a literal that overflows on reading
    path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return path


@pytest.mark.parametrize("name,edit,detail", [
    ("index_out_of_range",
     lambda p: p["entries"][0].update(a=5), "(5, 1, 1, 2) is not in 0..2"),
    ("negative_index",
     lambda p: p["entries"][0].update(e=-1), "(0, 1, 1, -1) is not in 0..2"),
    ("missing_entries", lambda p: p.pop("entries"), "'entries'"),
    ("zero_d", lambda p: p.update(d=0), "d = 0 is below 1"),
    ("non_finite_entry", lambda p: p["entries"][0].update(re=float("inf")),
     "entry (0, 1, 1, 2) is not finite"),
    # the base entry itself: 1 + 2 is not 0 + 1 mod 3
    ("off_grade", lambda p: None,
     "entry (0, 1, 1, 2): c + e is not a + b mod 3"),
    # an entry that lacks a key is not read as the list of its keys
    ("missing_re", lambda p: p["entries"][0].pop("re"), "'re'"),
    ("entry_not_an_object", lambda p: p["entries"].append([0, 1, 1, 0]),
     "list indices must be integers"),
    # past int64: refused by its range, not overflowed by a numpy cast
    ("index_past_int64", lambda p: p["entries"][0].update(b=2 ** 63),
     "(0, 9223372036854775808, 1, 2) is not in 0..2"),
    ("float_index", lambda p: p["entries"][0].update(c=1.0),
     "(0, 1, 1.0, 2) is not in 0..2"),
    ("bool_index", lambda p: p["entries"][0].update(c=True),
     "(0, 1, True, 2) is not in 0..2"),
    ("huge_int_value", lambda p: p["entries"][0].update(re=10 ** 400),
     "int too large to convert to float"),
    ("string_value", lambda p: p["entries"][0].update(im="0"),
     "complex() second arg can't be a string"),
    # a (d, d, d) array no machine holds: refused when allocating fails
    ("huge_d", lambda p: p.update(d=10 ** 5, entries=[]),
     "Unable to allocate"),
])
def test_poisson_jacobi_refuses_malformed_dump(capsys, tmp_path, name, edit,
                                               detail):
    dump = _malformed_dump(tmp_path / f"{name}.json", edit)
    code, out, err = run_cli(capsys, "poisson", "jacobi", "--in", str(dump))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot load bracket from {str(dump)!r}: ")
    assert detail in err
    # one line: no traceback, no numpy warning
    assert err.count("\n") == 1


@pytest.mark.parametrize("d,r", [(5, 2), (8, 3)])
def test_dump_reloads_the_extracted_bracket(capsys, tmp_path, d, r):
    # odd and even d: the dump names e, and the loader puts each entry back
    # at (a, b, c) of the graded array
    dump = tmp_path / "pi.json"
    code, _, _ = run_cli(capsys, "poisson", "extract", "--d", str(d),
                         "--r", str(r), "--dump", str(dump))
    assert code == 0
    want = poisson.extract_bracket(d, r, cli.config_from_env().modulus)
    got = cli.load_poisson_json(str(dump))
    assert (got.d, got.r) == (d, r)
    assert np.array_equal(got.pi, want.pi)
    assert got.richardson_error == want.richardson_error


@pytest.mark.parametrize("d,r", [(1, 0), (2, 1), (5, 2), (5, 4), (8, 3)])
def test_dump_is_the_json_of_the_whole_payload(capsys, tmp_path, d, r):
    # the dump is written one first index at a time; its bytes are those of
    # one _dumps of every entry, in (a, b, c) order (none at d = 1, only
    # rounding noise at r = -1 mod d)
    dump = tmp_path / "pi.json"
    code, _, _ = run_cli(capsys, "poisson", "extract", "--d", str(d),
                         "--r", str(r), "--dump", str(dump))
    assert code == 0
    tensor = poisson.extract_bracket(d, r, cli.config_from_env().modulus)
    pi = tensor.pi
    entries = [{"a": int(a), "b": int(b), "c": int(c),
                "e": int((a + b - c) % d), "re": val.real, "im": val.imag}
               for (a, b, c), val in zip(np.argwhere(pi), pi[pi != 0])]
    payload = {"d": d, "r": r, "entries": entries,
               "richardson_error": tensor.richardson_error}
    assert dump.read_text() == cli._dumps(payload) + "\n"


@pytest.mark.parametrize("d,r", [(1, 0), (2, 1), (5, 2), (8, 3)])
def test_relations_dump_is_the_json_of_the_whole_payload(capsys, tmp_path,
                                                         d, r):
    # the dump is written one relation row at a time; its bytes are those
    # of one _dumps of every row from relation_terms
    dump = tmp_path / "coeffs.json"
    x = 0.11 + 0.17j
    code, out, _ = run_cli(capsys, "sklyanin", "relations", "--d", str(d),
                           "--r", str(r), "--x", "0.11,0.17",
                           "--dump", str(dump))
    assert code == 0
    system = sklyanin.build_relations(sklyanin.AlgebraParams(
        d, r, x, cli.config_from_env().modulus))
    rows = [{"i": i, "j": j,
             "terms": [{"n": n, "a": a, "b": b,
                        "coeff_re": c.real, "coeff_im": c.imag}
                       for n, a, b, c in terms]}
            for i, j, terms in sklyanin.relation_terms(system)]
    payload = {"d": d, "r": r, "x": [x.real, x.imag], "rows": rows,
               "rank": json.loads(out)["rank"]}
    assert dump.read_text() == cli._dumps(payload) + "\n"


@pytest.mark.parametrize("key, value, shown", [
    ("d", float("inf"), "d = inf is not an integer"),
    ("r", 1.9, "r = 1.9 is not an integer"),
    ("d", True, "d = True is not an integer"),
])
def test_poisson_jacobi_refuses_non_integer_d_or_r(capsys, tmp_path, key,
                                                   value, shown):
    dump = _malformed_dump(tmp_path / "pi.json", lambda p: p.update(
        {key: value}))
    code, out, err = run_cli(capsys, "poisson", "jacobi", "--in", str(dump))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot load bracket from {str(dump)!r}: {shown}\n"


@pytest.mark.parametrize("what, doc, argv", [
    ("rep", {"dim_g": 1, "dim_V": 1, "bracket": 5, "action": []},
     ("tensor", "check", "--case", "file:{}")),
    ("rep", [1, 2], ("tensor", "solve", "--case", "file:{}")),
    ("tensor", {"t": 5},
     ("tensor", "check", "--case", "gl:2,1", "--t", "file:{}")),
], ids=["rep-bracket-int", "rep-list", "tensor-t-int"])
def test_malformed_outside_file_is_usage_error(capsys, tmp_path, what, doc,
                                               argv):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot load {what} from {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bad, shown", [
    ("1/0", "scalar '1/0' has a zero denominator"),
    (float("nan"), "scalar nan is not finite"),
    (float("inf"), "scalar inf is not finite"),
])
@pytest.mark.parametrize("what, argv", [
    ("rep", ("tensor", "solve", "--case", "file:{}")),
    ("tensor", ("tensor", "check", "--case", "gl:1,1", "--t", "file:{}")),
])
def test_bad_scalar_in_outside_file_is_usage_error(capsys, tmp_path, bad,
                                                   shown, what, argv):
    # gl(1,1) with one action entry, or a 2 x 2 tensor with one entry,
    # replaced by bad; json writes nan and inf as NaN and Infinity
    if what == "rep":
        doc = {"dim_g": 2, "dim_V": 1,
               "bracket": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
               "action": [[[bad]], [[-1]]]}
    else:
        doc = {"t": [[bad, 0], [0, 1]]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot load {what} from {str(path)!r}: {shown}\n"


@pytest.mark.parametrize("key, value", [("dim_g", 2.9), ("dim_V", 1.0)])
def test_tensor_solve_refuses_non_integer_rep_dimension(capsys, tmp_path,
                                                        key, value):
    # gl(1,1): dim_g = 2 and dim_V = 1, with one of them written as a float
    doc = {"dim_g": 2, "dim_V": 1,
           "bracket": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
           "action": [[[1]], [[-1]]], key: value}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "tensor", "solve", "--case",
                             f"file:{path}")
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot load rep from {str(path)!r}: "
                   f"{key} = {value!r} is not an integer\n")


def sklab_exception_classes():
    for info in pkgutil.iter_modules(sklab.__path__):
        module = importlib.import_module(f"sklab.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_sklab_exception_has_an_exit_code():
    # ValueError exits 2 and ArithmeticError exits 1; a class that is
    # neither would end in a traceback
    classes = list(sklab_exception_classes())
    assert {c.__name__ for c in classes} >= {
        "UsageError", "DenominatorNearZero", "ConvergenceError",
        "ThetaOverflowError", "AmbiguousRank", "ExtractionError",
        "TransporterError"}
    for cls in classes:
        assert issubclass(cls, (ValueError, ArithmeticError)), cls


@pytest.mark.parametrize("cls", [theta.ConvergenceError,
                                 sklyanin.AmbiguousRank,
                                 poisson.ExtractionError,
                                 mukai.TransporterError])
def test_library_refusal_is_exit_one(capsys, monkeypatch, cls):
    def refuse(d):
        raise cls(f"refused at d={d}")
    monkeypatch.setattr(residues, "fixed_points", refuse)
    code, out, err = run_cli(capsys, "s3", "fixed", "--d", "7")
    assert code == 1
    assert out == ""
    assert err == "verification failed: refused at d=7\n"


def test_theta_check_rows_do_not_depend_on_the_chunk(capsys, monkeypatch):
    seen = []

    def recording(basis, ms, zs):
        seen.append((list(ms), list(zs)))
        return theta_functional_residuals(basis, ms, zs)
    monkeypatch.setattr(theta, "theta_functional_residuals", recording)
    argv = ("theta", "check", "--d", "5", "--trials", "20", "--seed", "3")
    runs = []
    for chunk in (3, 20):
        monkeypatch.setattr(cli, "THETA_CHUNK", chunk)
        seen.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        runs.append((json.loads(out), [len(ms) for ms, _ in seen],
                     [p for ms, zs in seen for p in zip(ms, zs)]))
    (chunked, sizes, points), (whole, [size], whole_points) = runs
    assert sizes == [3] * 6 + [2] and size == 20
    # the same points in the same order, so the same rows
    assert points == whole_points
    rows, want = chunked.pop("residuals"), whole.pop("residuals")
    assert chunked == whole
    for row, ref in zip(rows, want, strict=True):
        assert row == dict(ref, value=pytest.approx(ref["value"], abs=1e-15))


def test_h_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "poisson", "extract", "--d", "3",
                             "--r", "1", "--h", "1e-6")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --h 1e-6" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_no_trials_is_usage_error(capsys, tmp_path, trials):
    # no points checked is no evidence: refused, not reported as a pass
    dump = tmp_path / "pi.json"
    code, _, _ = run_cli(capsys, "poisson", "extract", "--d", "3",
                         "--r", "1", "--dump", str(dump))
    assert code == 0
    for argv in (("poisson", "jacobi", "--in", str(dump)),
                 ("theta", "check", "--d", "3")):
        code, out, err = run_cli(capsys, *argv, "--trials", trials)
        assert code == 2
        assert out == ""
        assert f"error: trials must be at least 1, got {trials}" in err


@pytest.mark.parametrize("argv", [
    ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "nan"),
    ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "inf,0"),
    ("sklyanin", "check-iso", "--d", "5", "--r", "2", "--rprime", "3",
     "--x", "0.11,-inf"),
    ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "0.11,nan"),
])
def test_non_finite_x_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: x must be finite" in err


def test_no_generic_x_is_exit_one_without_traceback(capsys, monkeypatch):
    # torsion bounds wider than the cell refuse every draw
    for name in ("TORSION_BOUND", "TORSION_BOUND_AT_ZERO"):
        monkeypatch.setattr(theta, name, 10.0)
    code, out, err = run_cli(capsys, "theta", "check", "--d", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: no generic x found in 51 "
                          "draws: the largest distance d*|x - p| to a "
                          "3-torsion point p was ")
    assert err.count("\n") == 1


def test_zero_tol_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "theta", "check", "--d", "3",
                             "--zero-tol", "1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --zero-tol 1" in err


def test_near_torsion_x_is_usage_error(capsys):
    # 1e-7 from d x = 1 + omega at d = 3: refused, not reported as rank 6
    x = (1 + OMEGA) / 3 + (1e-7 / 3) * (0.6 + 0.8j)
    code, out, err = run_cli(capsys, "sklyanin", "relations", "--d", "3",
                             "--r", "1", "--x", f"{x.real!r},{x.imag!r}")
    assert code == 2
    assert out == ""
    assert err == ("error: x is near the 3-torsion point p = (1 + 1 omega)/3 "
                   "mod the lattice: d*|x - p| = 1.00e-07, the distance of "
                   "d*x from the lattice, is below the bound 3e-05\n")


@pytest.mark.parametrize("d,r", [(11, 1), (13, 2), (15, 2), (21, 4)])
def test_poisson_past_d_10(capsys, tmp_path, d, r):
    dump = tmp_path / "pi.json"
    code, out, err = run_cli(capsys, "poisson", "extract", "--d", str(d),
                             "--r", str(r), "--dump", str(dump))
    assert code == 0, err
    assert all(row["pass"] for row in json.loads(out)["residuals"])
    code, out, err = run_cli(capsys, "poisson", "jacobi", "--in", str(dump),
                             "--trials", "20")
    assert code == 0, err
    assert all(row["pass"] for row in json.loads(out)["residuals"])


@pytest.mark.parametrize("argv", [
    ("sklyanin", "relations", "--d", "23", "--r", "2", "--x", "0.11,0.17"),
    ("sklyanin", "relations", "--d", "101", "--r", "2", "--x", "0.11,0.17"),
    ("theta", "check", "--d", "25"),
])
def test_past_d_21(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert all(row["pass"] for row in json.loads(out)["residuals"])


def test_rank_needs_no_dense_basis(capsys, monkeypatch, tmp_path):
    def refuse(system):
        raise AssertionError("the dense relation basis was built")

    argvs = [("sklyanin", "relations", "--d", "9", "--r", "2", "--x",
              "0.11,0.17", "--dump", str(tmp_path / "coeffs.json")),
             ("check", "--all")]
    want = [run_cli(capsys, *argv) for argv in argvs]
    dump = (tmp_path / "coeffs.json").read_text()
    monkeypatch.setattr(sklyanin, "relation_space", refuse)
    for argv, (code, out, _) in zip(argvs, want):
        assert code == 0
        assert run_cli(capsys, *argv)[:2] == (0, out)
    assert (tmp_path / "coeffs.json").read_text() == dump


def test_mukai_act_and_invariants(capsys):
    code, out, _ = run_cli(capsys, "mukai", "act", "--object", "torsion",
                           "--word", "S")
    assert code == 0
    assert json.loads(out) == {"class": "bundle:1,0", "shift": 0}

    code, out, _ = run_cli(capsys, "mukai", "invariants",
                           "--v1", "1,0", "--v2", "2,7")
    assert code == 0
    assert json.loads(out) == {"det": 7, "alpha": 4}


@pytest.mark.parametrize("obj, fault", [
    ("bundle:2,7,0,5", "expected R,D or R,D,K, got 4 integers"),
    ("bundle:2", "expected R,D or R,D,K, got 1 integers"),
])
def test_mukai_act_names_the_object_fault(capsys, obj, fault):
    code, out, err = run_cli(capsys, "mukai", "act", "--object", obj,
                             "--word", "S")
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse object {obj!r}: {fault}\n"


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


WALLS = ("walls", "--r1", "2", "--r2", "1", "--d1", "3", "--d2", "0")


def test_walls_empty_interval_names_its_ends(capsys):
    code, out, err = run_cli(capsys, *WALLS, "--lo", "3", "--hi", "0")
    assert code == 2
    assert out == ""
    assert err == ("error: empty tau interval: tau_lo = 3 is not below "
                   "tau_hi = 0\n")


# argparse takes a value that starts with '-' and holds ',' or '/' for a
# flag, so such a value is attached with '='.  Each '=' form is paired with
# an input that needs no '=': the same value as a plain negative number,
# both vectors negated (the invariants are even in the pair), or, on an
# exact command that never reads omega, the omega with the sign flipped.
@pytest.mark.parametrize("with_equals, without", [
    (("theta", "eval", "--d", "3", "--m", "1", "--z=-0.3,0"),
     ("theta", "eval", "--d", "3", "--m", "1", "--z", "-0.3")),
    (("sklyanin", "relations", "--d", "3", "--r", "1", "--x=-0.11,0"),
     ("sklyanin", "relations", "--d", "3", "--r", "1", "--x", "-0.11")),
    (("mukai", "invariants", "--v1=-2,1", "--v2=-1,-3"),
     ("mukai", "invariants", "--v1", "2,-1", "--v2", "1,3")),
    (WALLS + ("--lo=-1/2", "--hi", "3"), WALLS + ("--lo", "-0.5", "--hi", "3")),
    (WALLS + ("--lo", "-2", "--hi=-1/2"),
     WALLS + ("--lo", "-2", "--hi", "-0.5")),
    (("mukai", "solve-tr", "--r", "2", "--d", "7", "--omega=-0.2,1.3"),
     ("mukai", "solve-tr", "--r", "2", "--d", "7", "--omega", "0.2,1.3")),
])
def test_negative_values_take_the_equals_form(capsys, with_equals, without):
    code, out, err = run_cli(capsys, *with_equals)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *without)
    first_flag = next(i for i, a in enumerate(with_equals)
                      if a.startswith("--"))
    code, out, _ = run_cli(capsys, *with_equals[:first_flag], "--help")
    assert code == 0
    help_text = " ".join(out.split())
    for arg in with_equals:
        if "=-" in arg:
            flag = arg.split("=")[0]
            assert f"write a negative value as {flag}=-" in help_text


def test_tensor_check_and_solve(capsys):
    code, out, _ = run_cli(capsys, "tensor", "check", "--case", "gl:2,1")
    assert code == 0
    assert all(row["pass"] for row in json.loads(out)["residuals"])

    code, out, _ = run_cli(capsys, "tensor", "solve", "--case", "gsp:4")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_tensor_check_solves_a_case_without_a_tensor(capsys, tmp_path):
    # gsp has no canonical tensor, so `tensor check` checks the admissible
    # basis it solves for; sl2 has none, and nothing is checked
    code, out, _ = run_cli(capsys, "tensor", "check", "--case", "gsp:4")
    assert code == 0
    result = json.loads(out)
    assert result["checked"] == 1
    assert [(row["name"], row["value"], row["pass"])
            for row in result["residuals"]] == [("invariance", 0.0, True),
                                                ("t_star_norm", 0.0, True)]
    sl2 = invtensor.sl2_rep()
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({
        "dim_g": sl2.dim_g, "dim_V": sl2.dim_V, "action": sl2.action,
        "bracket": [[[int(x) for x in row] for row in plane]
                    for plane in sl2.bracket]}))
    code, out, _ = run_cli(capsys, "tensor", "check", "--case", f"file:{path}")
    assert code == 0
    assert json.loads(out) == {
        "case": f"file:{path}", "checked": 0,
        "note": "admissible space is zero; nothing to check",
        "residuals": []}


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


@pytest.mark.filterwarnings("error")
def test_relations_past_the_float_range_name_the_entry(capsys):
    # at d = 401 a denominator product underflows: exit 1 with the entry
    # named, and no numpy RuntimeWarning
    code, out, err = run_cli(capsys, "sklyanin", "relations", "--d", "401",
                             "--r", "2", "--x", "0.11,0.17")
    assert code == 1
    assert out == ""
    assert re.match(r"verification failed: non-finite relation coefficient "
                    r"at \(k, n\) = \(\d+, \d+\), d=401, r=2: ", err)
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ("sklyanin", "relations", "--d", "5", "--r", "2", "--x", "1e300,0"),
    ("theta", "eval", "--d", "5", "--m", "2", "--z", "1e300,0"),
])
def test_argument_past_2_53_cells_is_usage_error(capsys, argv):
    # 1e300 has no fractional part left: its cell indices do not fit an
    # int64, and the cast would warn and leave garbage
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot reduce z = (")
    assert err.endswith("to the cell: it lies 2^53 or more cells out\n")


@pytest.mark.parametrize("x,shown", [("4e15,0", "(4000000000000000+0j)"),
                                      ("1e300,0", "(1e+300+0j)")])
def test_huge_x_is_refused_under_its_own_name(capsys, x, shown):
    # d*x, not x, is what lies 2^53 or more cells out: 4e15 alone reduces
    code, out, err = run_cli(capsys, "sklyanin", "relations", "--d", "5",
                             "--r", "2", "--x", x)
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot reduce z = {shown} times d = 5 to the "
                   f"cell: it lies 2^53 or more cells out\n")


@pytest.mark.parametrize("argv,flag,message", [
    (("sklyanin", "relations", "--d", "5", "--r", "2", "--x", "abc"), "--x",
     "cannot parse complex number from 'abc' (expected RE or RE,IM)"),
    (("walls", "--r1", "2", "--r2", "1", "--d1", "3", "--d2", "0",
      "--lo", "1/0", "--hi", "3"), "--lo",
     "cannot parse rational from '1/0' (expected P/Q)"),
    (("mukai", "invariants", "--v1", "1", "--v2", "1,2"), "--v1",
     "expected two comma-separated integers, got '1'"),
])
def test_flag_type_error_keeps_its_message(capsys, argv, flag, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.endswith(f": error: argument {flag}: {message}\n")


def test_small_im_omega_is_refused_before_allocating(src_env):
    # Im omega = 1e-9 asks for a series window of ~1.2e5 terms, over a GiB
    # per zero-count contour; the address-space cap turns a regression into
    # a quick MemoryError in the child instead of exhausting the host
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    proc = subprocess.run(
        [sys.executable, "-m", "sklab.cli", "theta", "check", "--d", "3",
         "--trials", "2", "--omega", "0.2,1e-9"], capture_output=True,
        text=True, env=dict(src_env, OPENBLAS_NUM_THREADS="1"), timeout=120,
        preexec_fn=cap)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(r"verification failed: theta series at d=3, Im "
                        r"omega=1e-09 needs a window of \d{6} terms, above "
                        r"the bound SERIES_WINDOW_MAX=512\n", proc.stderr)


def test_theta_overflow_is_exit_one_without_traceback(capsys):
    # d = 9, omega = 3i, z three cells up: the leading term overflows
    code, out, err = run_cli(capsys, "theta", "eval", "--omega", "0,3",
                             "--d", "9", "--m", "0", "--z", "0.1,9.2")
    assert code == 1
    assert out == ""
    assert "verification failed: theta value is not a finite float" in err
    assert "Traceback" not in err


def test_theta_underflow_refuses_relations_by_name(capsys):
    # d = 701: theta_m(0) near m = 0 falls below the normal doubles; the
    # refusal names the index, the log-modulus and the bound, not a window
    code, out, err = run_cli(capsys, "sklyanin", "relations", "--d", "701",
                             "--r", "2", "--x", "0.11,0.17")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"verification failed: theta value is not a normal "
                        r"float at d=701, m=\d+: its leading term has "
                        r"log-modulus -\d+\.\d, below the bound -708\.40\n",
                        err)


WORKFLOW = SRC.parent / ".github" / "workflows" / "tests.yml"


def workflow_sklab_lines():
    """The lines of the workflow's run: blocks that start with `sklab `.

    The workflow is read as text, not as YAML: each run: block is plain
    shell, a one-line `run: cmd` or the more indented lines after
    `run: |`.
    """
    lines, block = [], None
    for raw in WORKFLOW.read_text().splitlines():
        text, indent = raw.strip(), len(raw) - len(raw.lstrip())
        if block is not None and text and indent <= block:
            block = None
        key = text.removeprefix("- ")
        if key.startswith("run:"):
            if key[4:].strip() == "|":
                block = indent
            else:
                lines.append(key[4:].strip())
        elif block is not None:
            lines.append(text)
    return [line for line in lines if line.startswith("sklab ")]


def test_workflow_sklab_commands_parse():
    # a flag renamed in cli.py but not in the workflow fails here, not
    # only in CI; a shell redirection ends a command's arguments
    lines = workflow_sklab_lines()
    assert len(lines) >= 14
    parser = build_parser(RunConfig())
    for line in lines:
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        argv = list(lexer)
        if ">" in argv:
            argv = argv[:argv.index(">")]
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"workflow line does not parse: {line}")
        assert callable(args.func), line


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


def test_tail_eps_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "theta", "eval", "--d", "5", "--m", "1",
                             "--z", "0.13,0.21", "--tail-eps", "1e-12")
    assert code == 2
    assert out == ""
    assert "--tail-eps" in err


def all_parsers(parser=None):
    """build_parser's parser and every subparser below it, depth first."""
    parser = parser or build_parser(RunConfig())
    subs = [action.choices.values() for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    return [parser] + [p for group in subs for child in group
                       for p in all_parsers(child)]


def test_no_tolerance_flag_on_any_leaf():
    leaves = [p for p in all_parsers() if "func" in p._defaults]
    assert len(leaves) == 17
    for p in leaves:
        assert "-tol" not in p.format_help(), p.prog


def test_readme_names_no_dead_flags():
    flags = {option for p in all_parsers() for action in p._actions
             for option in action.option_strings}
    text = (SRC.parent / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert named - {"--no-build-isolation"} <= flags


def readme_commands():
    """The `sklab ...` lines of README's "Command line" code block."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sklab ")]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # in order, in a scratch directory: `poisson jacobi` reads the dump
    # that `poisson extract` wrote
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
    assert {p.name for p in tmp_path.iterdir()} == {"coeffs.json", "pi.json"}


# Run one command in a fresh interpreter after SETUP; the last stdout line
# is the exit code and the sorted module names the run left loaded.
IMPORT_PROBE = """
import json, sys
from sklab import cli
{setup}
code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
NUMERIC = {"numpy", "sklab.theta", "sklab.sklyanin", "sklab.poisson"}
EXACT = {"sklab.mukai", "sklab.residues", "sklab.walls", "sklab.invtensor"}
EXACT_LEAVES = [
    ("mukai", "act", "--object", "bundle:2,7", "--word", "R S"),
    ("mukai", "invariants", "--v1", "1,0", "--v2", "2,7"),
    ("mukai", "solve-tr", "--r", "2", "--d", "7"),
    ("mukai", "solve-ur", "--r", "2", "--d", "7"),
    ("s3", "orbits", "--d", "13"),
    ("s3", "fixed", "--d", "7"),
    ("s3", "check", "--dmax", "20"),
    ("walls", "--r1", "2", "--r2", "1", "--d1", "3", "--d2", "0",
     "--lo", "0", "--hi", "3"),
    ("tensor", "check", "--case", "gl:2,1"),
    ("tensor", "solve", "--case", "gsp:4"),
]


def probe_imports(src_env, argv, setup=""):
    """Exit code of `sklab ARGV` in a fresh interpreter, and its modules."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(setup=setup), *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(src_env, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


# The other leaves, in an order where `poisson jacobi` reads the dump that
# `poisson extract` wrote.
NUMERIC_LEAVES = [
    ("theta", "eval", "--d", "5", "--m", "1", "--z", "0.13,0.21"),
    ("theta", "check", "--d", "3", "--trials", "5"),
    ("sklyanin", "relations", "--d", "5", "--r", "2", "--x", "0.11,0.17",
     "--dump", "coeffs.json"),
    ("sklyanin", "check-iso", "--d", "5", "--r", "2", "--rprime", "3",
     "--x", "0.11,0.17"),
    ("poisson", "extract", "--d", "3", "--r", "1", "--dump", "pi.json"),
    ("poisson", "jacobi", "--in", "pi.json", "--trials", "5"),
    ("check", "--all", "--dmax", "3"),
]


def leaf_name(argv) -> str:
    return " ".join(["sklab", *(a for a in argv[:2] if a[0] != "-")])


def test_every_leaf_reports_as_a_table(capsys, monkeypatch, tmp_path):
    # every handler's result goes through the one report in `run`: as a
    # table, each key of the JSON result but "residuals" is one
    # `key: value` line, then come the header and one line per row
    monkeypatch.chdir(tmp_path)
    runs = NUMERIC_LEAVES + EXACT_LEAVES
    assert {leaf_name(argv) for argv in runs} == {
        p.prog for p in all_parsers() if "func" in p._defaults}
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        result = json.loads(out)
        code, table, err = run_cli(capsys, *argv, "--format", "table")
        assert code == 0, (argv, err)
        keys = [key for key in result if key != "residuals"]
        rows = result.get("residuals", [])
        lines = table.splitlines()
        assert len(lines) == len(keys) + (len(rows) + 1 if rows else 0)
        assert [line.split(": ")[0] for line in lines[:len(keys)]] == keys
        assert [line.split()[0] for line in lines[len(keys) + 1:]] == [
            row["name"] for row in rows]


def test_exact_leaves_are_every_exact_leaf():
    leaves = {p.prog for p in all_parsers() if "func" in p._defaults}
    exact = {p for p in leaves if p.split()[1] in ("mukai", "s3", "walls",
                                                   "tensor")}
    assert {leaf_name(argv) for argv in EXACT_LEAVES} == exact


@pytest.mark.parametrize("argv, want", [
    *((argv, 0) for argv in EXACT_LEAVES),
    (("--help",), 0),
    (("s3", "orbits"), 2),
    (("mukai", "act", "--object", "bundle:2,7,0,5", "--word", "S"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_exact_commands_load_no_numpy(src_env, argv, want):
    code, modules = probe_imports(src_env, argv)
    assert code == want
    assert not modules & NUMERIC


def test_exact_exit_one_loads_no_numpy(src_env):
    setup = ("from sklab import mukai\n"
             "def refuse(bundle):\n"
             "    raise mukai.TransporterError('refused')\n"
             "mukai.solve_T_r = refuse")
    code, modules = probe_imports(
        src_env, ("mukai", "solve-tr", "--r", "2", "--d", "7"), setup)
    assert code == 1
    assert not modules & NUMERIC


@pytest.mark.parametrize("argv, absent", [
    (("theta", "check", "--d", "3", "--trials", "2"),
     EXACT | {"sklab.poisson"}),
    (("poisson", "extract", "--d", "3", "--r", "1"), EXACT),
], ids=["theta-check", "poisson-extract"])
def test_numeric_commands_load_only_their_modules(src_env, argv, absent):
    code, modules = probe_imports(src_env, argv)
    assert code == 0
    assert "numpy" in modules
    assert not modules & absent
