"""Command-line front end for every module in the package.

One executable, one subcommand per capability, uniform output: results
go to stdout as JSON (default) or an aligned table, residual checks are
reported as {name, value, tolerance, pass} rows, and the exit code tells
scripts what happened: 0 success, 1 a verification failed, 2 usage.

Configuration precedence is flags > environment (SKLAB_OMEGA,
SKLAB_SEED, SKLAB_FORMAT) > built-in defaults.  Floats are printed with
17 significant digits so every dump re-parses to the same value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import numpy as np

from . import invtensor, mukai, poisson, residues, sklyanin, walls
from .theta import (ConvergenceError, CurveModulus, ThetaBasis,
                    theta_symmetry_constants, theta_zero_count)

DEFAULT_OMEGA = 0.2 + 1.3j
FUNCTIONAL_EQ_TOL = 1e-10
SYMMETRY_TOL = 1e-8


class UsageError(ValueError):
    """Bad arguments or violated preconditions; exits with code 2."""


@dataclass(frozen=True)
class RunConfig:
    omega: complex = DEFAULT_OMEGA
    tail_eps: float = 1e-14
    zero_tol: float = 1e-9
    rank_tol: float = 1e-9
    iso_tol: float = 1e-8
    bracket_tol: float = 1e-6
    seed: int = 0
    output_format: str = "json"

    def validate(self) -> "RunConfig":
        for name in ("tail_eps", "zero_tol", "rank_tol", "iso_tol",
                     "bracket_tol"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.omega.imag <= 0:
            raise UsageError("omega must have positive imaginary part")
        if self.output_format not in ("json", "table"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        return self

    @property
    def modulus(self) -> CurveModulus:
        return CurveModulus(self.omega)


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"cannot parse complex number from {text!r} "
                     "(expected RE or RE,IM)")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational from {text!r} (expected P/Q)")


def parse_int_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"non-integer in pair {text!r}")


def parse_object(text: str) -> mukai.DerivedObject:
    kind, _, rest = text.partition(":")
    try:
        if kind == "torsion":
            shift = int(rest) if rest else 0
            return mukai.Torsion(shift)
        if kind == "bundle":
            nums = [int(p) for p in rest.split(",")]
            if len(nums) == 2:
                nums.append(0)
            if len(nums) != 3:
                raise ValueError
            return mukai.Bundle(*nums)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse object {text!r}: {exc}")
    raise UsageError(f"unknown object kind in {text!r} "
                     "(expected bundle:R,D[,K] or torsion[:K])")


def config_from_env() -> RunConfig:
    cfg = RunConfig()
    omega_env = os.environ.get("SKLAB_OMEGA")
    if omega_env:
        cfg = replace(cfg, omega=parse_complex(omega_env))
    seed_env = os.environ.get("SKLAB_SEED")
    if seed_env:
        try:
            cfg = replace(cfg, seed=int(seed_env))
        except ValueError:
            raise UsageError(f"SKLAB_SEED={seed_env!r} is not an integer")
    fmt_env = os.environ.get("SKLAB_FORMAT")
    if fmt_env:
        cfg = replace(cfg, output_format=fmt_env)
    return cfg


# ------------------------------------------------------------- serialization


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x} has no JSON form")
    out = format(float(x), ".17g")
    return out


def _emit_json(value, out):
    if isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit_json(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit_json(v, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, Fraction):
        out.append(json.dumps(f"{value.numerator}/{value.denominator}"))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif value is None:
        out.append("null")
    else:
        out.append(json.dumps(str(value)))


def to_json(value) -> str:
    parts = []
    _emit_json(value, parts)
    return "".join(parts)


def residual_row(name: str, value: float, tolerance) -> dict:
    return {"name": name, "value": float(value),
            "tolerance": float(tolerance), "pass": bool(value <= tolerance)}


def _print_table(result: dict, residuals):
    for key, value in result.items():
        if key == "residuals":
            continue
        if isinstance(value, (dict, list, tuple)):
            print(f"{key}: {to_json(value)}")
        elif isinstance(value, (float, np.floating)):
            print(f"{key}: {format_float(float(value))}")
        else:
            print(f"{key}: {value}")
    if residuals:
        width = max(len(r["name"]) for r in residuals)
        print(f"{'name'.ljust(width)}  {'value':>12}  {'tolerance':>12}  pass")
        for r in residuals:
            print(f"{r['name'].ljust(width)}  {r['value']:>12.5e}  "
                  f"{r['tolerance']:>12.5e}  {'yes' if r['pass'] else 'NO'}")


def report(result: dict, config: RunConfig) -> int:
    """Serialize one command result; exit code from its residual rows."""
    residuals = result.get("residuals", [])
    if config.output_format == "json":
        print(to_json(result))
    else:
        _print_table(result, residuals)
    return 0 if all(r["pass"] for r in residuals) else 1


# ------------------------------------------------------------------ commands


def _theta_residuals_at(basis, m, z):
    d, omega = basis.d, basis.modulus.omega
    v = basis.eval(m, z)
    lhs1 = basis.eval(m, z + 1.0 / d)
    rhs1 = -np.exp(2j * np.pi * m / d) * v
    den1 = max(abs(lhs1), abs(rhs1), 1e-300)
    lhs2 = basis.eval(m, z + omega)
    rhs2 = -np.exp(-1j * np.pi * d * omega - 2j * np.pi * d * z) * v
    den2 = max(abs(lhs2), abs(rhs2), 1e-300)
    return abs(lhs1 - rhs1) / den1, abs(lhs2 - rhs2) / den2


def cmd_theta_eval(args, config: RunConfig) -> int:
    basis = ThetaBasis(args.d, config.modulus, tail_eps=config.tail_eps)
    z = args.z
    value = basis.eval(args.m, z)
    res1, res2 = _theta_residuals_at(basis, args.m, z)
    result = {
        "d": args.d, "m": args.m,
        "z_re": z.real, "z_im": z.imag,
        "value_re": value.real, "value_im": value.imag,
        "residuals": [
            residual_row("shift_by_1_over_d", res1, FUNCTIONAL_EQ_TOL),
            residual_row("shift_by_omega", res2, FUNCTIONAL_EQ_TOL),
        ],
    }
    return report(result, config)


def cmd_theta_check(args, config: RunConfig) -> int:
    basis = ThetaBasis(args.d, config.modulus, tail_eps=config.tail_eps)
    rng = np.random.default_rng(config.seed)
    worst1 = worst2 = 0.0
    for _ in range(args.trials):
        m = int(rng.integers(0, args.d))
        z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * config.omega)
        r1, r2 = _theta_residuals_at(basis, m, z)
        worst1, worst2 = max(worst1, r1), max(worst2, r2)
    count_dev = max(abs(theta_zero_count(basis, m) - args.d)
                    for m in range(args.d))
    x = sklyanin.sample_generic_x(args.d, config.modulus, rng,
                                  zero_tol=config.zero_tol)
    _, b, fit = theta_symmetry_constants(basis, x, zero_tol=config.zero_tol)
    unity = abs(b ** args.d - 1.0)
    result = {
        "d": args.d, "trials": args.trials,
        "residuals": [
            residual_row("shift_by_1_over_d_max", worst1, FUNCTIONAL_EQ_TOL),
            residual_row("shift_by_omega_max", worst2, FUNCTIONAL_EQ_TOL),
            residual_row("zero_count_deviation", count_dev, 0.5),
            residual_row("symmetry_fit", fit, SYMMETRY_TOL),
            residual_row("symmetry_ratio_unity", unity, SYMMETRY_TOL),
        ],
    }
    return report(result, config)


def cmd_sklyanin_relations(args, config: RunConfig) -> int:
    params = sklyanin.AlgebraParams(args.d, args.r, args.x, config.modulus)
    system = sklyanin.build_relations(params, zero_tol=config.zero_tol,
                                      tail_eps=config.tail_eps)
    space = sklyanin.relation_space(system, rank_tol=config.rank_tol)
    svals = sklyanin.singular_values(system)
    rank = space.shape[1]
    expected = args.d * (args.d - 1) // 2
    gap = float(svals[rank - 1] / svals[rank]) if 0 < rank < len(svals) \
        else float("inf")
    if args.dump:
        rows = [{"i": i, "j": j,
                 "terms": [{"n": n, "a": a, "b": b,
                            "coeff_re": c.real, "coeff_im": c.imag}
                           for n, a, b, c in terms]}
                for i, j, terms in sklyanin.relation_terms(
                    params, zero_tol=config.zero_tol,
                    tail_eps=config.tail_eps)]
        payload = {"d": args.d, "r": params.r,
                   "x": [args.x.real, args.x.imag],
                   "rows": rows, "rank": rank}
        with open(args.dump, "w") as fh:
            fh.write(to_json(payload) + "\n")
    result = {
        "d": args.d, "r": params.r,
        "x_re": args.x.real, "x_im": args.x.imag,
        "rank": rank, "expected_rank": expected,
        "gap": gap,
        "residuals": [
            residual_row("rank_deviation", abs(rank - expected), 0.5),
        ],
    }
    return report(result, config)


def cmd_sklyanin_check_iso(args, config: RunConfig) -> int:
    if (args.r * args.rprime) % args.d != 1 % args.d:
        raise UsageError(
            f"r*r' = {args.r}*{args.rprime} is not 1 mod {args.d}")
    dist = sklyanin.check_substitution_isomorphism(
        args.d, args.r, args.rprime, args.x, config.modulus,
        zero_tol=config.zero_tol, rank_tol=config.rank_tol)
    result = {
        "d": args.d, "r": args.r, "r_prime": args.rprime,
        "x_re": args.x.real, "x_im": args.x.imag,
        "distance": dist,
        "residuals": [residual_row("subspace_distance", dist, config.iso_tol)],
    }
    return report(result, config)


def cmd_poisson_extract(args, config: RunConfig) -> int:
    if not args.h > 0:
        raise UsageError(f"h must be positive, got {args.h:g}")
    tensor = poisson.extract_bracket(
        args.d, args.r, config.modulus, h=args.h,
        zero_tol=config.zero_tol, rank_tol=config.rank_tol,
        bracket_tol=config.bracket_tol)
    skew = poisson.skew_check(tensor)
    if args.dump:
        entries = []
        pi = tensor.pi
        for a, b, c, e in zip(*np.nonzero(pi)):
            val = pi[a, b, c, e]
            entries.append({"a": int(a), "b": int(b), "c": int(c),
                            "e": int(e), "re": val.real, "im": val.imag})
        payload = {"d": tensor.d, "r": tensor.r, "entries": entries,
                   "richardson_error": tensor.richardson_error}
        with open(args.dump, "w") as fh:
            fh.write(to_json(payload) + "\n")
    result = {
        "d": args.d, "r": args.r, "h": args.h,
        "richardson_error": tensor.richardson_error,
        "nonzero_entries": int(np.count_nonzero(tensor.pi)),
        "residuals": [
            residual_row("richardson_error", tensor.richardson_error,
                         config.bracket_tol),
            residual_row("skew_violation", skew, 1e-12),
        ],
    }
    return report(result, config)


def load_poisson_json(path: str) -> poisson.PoissonTensor:
    with open(path) as fh:
        data = json.load(fh)
    d = int(data["d"])
    pi = np.zeros((d, d, d, d), dtype=complex)
    for entry in data["entries"]:
        pi[entry["a"], entry["b"], entry["c"], entry["e"]] = \
            complex(entry["re"], entry["im"])
    return poisson.PoissonTensor(
        d=d, r=int(data["r"]), pi=pi,
        richardson_error=float(data["richardson_error"]),
        extraction_step=None)


def cmd_poisson_jacobi(args, config: RunConfig) -> int:
    tensor = load_poisson_json(args.infile)
    seed = config.seed
    worst = poisson.jacobi_check(tensor, args.trials, seed)
    skew = poisson.skew_check(tensor)
    result = {
        "d": tensor.d, "r": tensor.r,
        "trials": args.trials, "seed": seed,
        "max_jacobi": worst,
        "residuals": [
            residual_row("jacobi_residual", worst, config.bracket_tol),
            residual_row("skew_violation", skew, 1e-12),
        ],
    }
    return report(result, config)


def _object_fields(obj: mukai.DerivedObject) -> dict:
    if obj.kind == "bundle":
        return {"class": f"bundle:{obj.rank},{obj.degree}", "shift": obj.shift}
    return {"class": "torsion", "shift": obj.shift}


def cmd_mukai_act(args, config: RunConfig) -> int:
    obj = parse_object(args.object)
    try:
        word = mukai.GroupWord.parse(args.word)
    except ValueError as exc:
        raise UsageError(str(exc))
    moved = mukai.act_word(obj, word)
    return report(_object_fields(moved), config)


def cmd_mukai_invariants(args, config: RunConfig) -> int:
    v1 = mukai.KVector(*args.v1)
    v2 = mukai.KVector(*args.v2)
    try:
        inv = mukai.orbit_invariants(v1, v2)
    except ValueError as exc:
        raise UsageError(str(exc))
    return report({"det": inv.det, "alpha": inv.alpha}, config)


def cmd_mukai_solve_tr(args, config: RunConfig) -> int:
    if args.d <= 1:
        raise UsageError("solve-tr needs d > 1")
    if args.r < 1 or gcd(args.r, args.d) != 1:
        raise UsageError(f"r={args.r} is not a positive unit mod d={args.d}")
    word, companion = mukai.solve_T_r(mukai.Bundle(args.r, args.d, 0))
    return report({"word": str(word), "r_prime": companion.rank}, config)


def cmd_mukai_solve_ur(args, config: RunConfig) -> int:
    if args.d < 1:
        raise UsageError("solve-ur needs d >= 1")
    if args.r < 1 or gcd(args.r, args.d) != 1:
        raise UsageError(f"r={args.r} is not a positive unit mod d={args.d}")
    word, r_dp = mukai.solve_U_r(mukai.Bundle(args.r, args.d, 0))
    return report({"word": str(word), "r_prime": r_dp}, config)


def cmd_s3_orbits(args, config: RunConfig) -> int:
    rset = residues.residue_set(args.d)
    fixed = residues.fixed_points(args.d)
    result = {
        "d": args.d,
        "members": list(rset.members),
        "orbits": [list(o) for o in residues.orbit_report(args.d)],
        "phi_fixed": list(fixed["phi_fixed"]),
        "phibeta_fixed": list(fixed["phibeta_fixed"]),
    }
    return report(result, config)


def cmd_s3_fixed(args, config: RunConfig) -> int:
    fixed = residues.fixed_points(args.d)
    result = {
        "d": args.d,
        "phi_fixed": list(fixed["phi_fixed"]),
        "phibeta_fixed": list(fixed["phibeta_fixed"]),
    }
    return report(result, config)


def cmd_s3_check(args, config: RunConfig) -> int:
    bad = [d for d in range(2, args.dmax + 1)
           if not residues.check_group_relations(d)]
    result = {
        "dmax": args.dmax,
        "failures": bad,
        "residuals": [residual_row("relation_failures", len(bad), 0.5)],
    }
    return report(result, config)


def cmd_walls(args, config: RunConfig) -> int:
    triple = walls.TripleInvariants(args.r1, args.r2, args.d1, args.d2)
    lo, hi = args.lo, args.hi
    if lo >= hi:
        raise UsageError(f"empty tau interval [{lo}, {hi}]")
    wall_list = walls.candidate_walls(triple, lo, hi)
    degens = walls.degeneration_cells(triple)
    result = {
        "walls": [{"tau": w.tau, "witnesses": [list(wit) for wit in w.witnesses]}
                  for w in wall_list],
        "degenerations": [list(cell) for cell in degens],
    }
    return report(result, config)


def _resolve_tensor_case(case: str):
    kind, _, rest = case.partition(":")
    if kind == "gl":
        r1, r2 = parse_int_pair(rest)
        if r1 < 1 or r2 < 1:
            raise UsageError("gl ranks must be positive")
        return invtensor.gl_pair_rep(r1, r2), invtensor.gl_pair_tensor(r1, r2)
    if kind == "gsp":
        try:
            two_r = int(rest)
        except ValueError:
            raise UsageError(f"gsp size {rest!r} is not an integer")
        if two_r < 2 or two_r % 2:
            raise UsageError("gsp size must be even and at least 2")
        return invtensor.gsp_rep(two_r), None
    if kind == "file":
        try:
            return invtensor.load_rep_json(rest), None
        except (OSError, KeyError, ValueError) as exc:
            raise UsageError(f"cannot load rep from {rest!r}: {exc}")
    raise UsageError(f"unknown case {case!r} (expected gl:R1,R2, gsp:2R, "
                     "or file:rep.json)")


def _tensor_norms(rep, tensor):
    inv = invtensor.check_invariance(rep, tensor)
    star = invtensor.t_star(rep, tensor)
    worst = 0
    for row in star:
        for x in row:
            worst = max(worst, abs(x))
    return float(inv), float(worst)


def cmd_tensor_check(args, config: RunConfig) -> int:
    rep, default_tensor = _resolve_tensor_case(args.case)
    cut = 0.0 if rep.is_exact() else invtensor.FLOAT_TOL
    if args.t:
        path = args.t.partition(":")[2] if args.t.startswith("file:") else args.t
        try:
            tensors = [invtensor.load_tensor_json(path)]
        except (OSError, KeyError, ValueError) as exc:
            raise UsageError(f"cannot load tensor from {path!r}: {exc}")
    elif default_tensor is not None:
        tensors = [default_tensor]
    else:
        tensors = invtensor.solve_admissible(rep)
        if not tensors:
            result = {"case": args.case, "checked": 0,
                      "note": "admissible space is zero; nothing to check",
                      "residuals": []}
            return report(result, config)
    rows = []
    for idx, tensor in enumerate(tensors):
        inv, star = _tensor_norms(rep, tensor)
        tag = f"_{idx}" if len(tensors) > 1 else ""
        rows.append(residual_row(f"invariance{tag}", inv, cut))
        rows.append(residual_row(f"t_star_norm{tag}", star, cut))
    result = {"case": args.case, "checked": len(tensors), "residuals": rows}
    return report(result, config)


def cmd_tensor_solve(args, config: RunConfig) -> int:
    rep, _ = _resolve_tensor_case(args.case)
    basis = invtensor.solve_admissible(rep)
    result = {
        "case": args.case,
        "dim": len(basis),
        "basis": [[[Fraction(x) if isinstance(x, int) else x for x in row]
                   for row in tensor.t] for tensor in basis],
    }
    return report(result, config)


def cmd_check_all(args, config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    rows = []
    dmax = args.dmax

    worst1 = worst2 = dev = 0.0
    for d in (3, 5):
        if d > dmax:
            continue
        basis = ThetaBasis(d, config.modulus, tail_eps=config.tail_eps)
        for _ in range(25):
            m = int(rng.integers(0, d))
            z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * config.omega)
            r1, r2 = _theta_residuals_at(basis, m, z)
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
        dev = max(dev, max(abs(theta_zero_count(basis, m) - d)
                           for m in range(d)))
        x = sklyanin.sample_generic_x(d, config.modulus, rng,
                                      zero_tol=config.zero_tol)
        _, b, fit = theta_symmetry_constants(basis, x,
                                             zero_tol=config.zero_tol)
        rows.append(residual_row(f"theta_symmetry_fit_d{d}", fit,
                                 SYMMETRY_TOL))
        rows.append(residual_row(f"theta_ratio_unity_d{d}",
                                 abs(b ** d - 1.0), SYMMETRY_TOL))
    rows.append(residual_row("theta_shift_1_over_d", worst1,
                             FUNCTIONAL_EQ_TOL))
    rows.append(residual_row("theta_shift_omega", worst2, FUNCTIONAL_EQ_TOL))
    rows.append(residual_row("theta_zero_count_dev", dev, 0.5))

    rank_dev = 0
    for d in range(2, min(dmax, 7) + 1):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            x = sklyanin.sample_generic_x(d, config.modulus, rng,
                                          zero_tol=config.zero_tol)
            system = sklyanin.build_relations(
                sklyanin.AlgebraParams(d, r, x, config.modulus),
                zero_tol=config.zero_tol, tail_eps=config.tail_eps)
            space = sklyanin.relation_space(system, rank_tol=config.rank_tol)
            rank_dev = max(rank_dev, abs(space.shape[1] - d * (d - 1) // 2))
    rows.append(residual_row("sklyanin_rank_dev", rank_dev, 0.5))

    if dmax >= 5:
        x = sklyanin.sample_generic_x(5, config.modulus, rng,
                                      zero_tol=config.zero_tol)
        dist = sklyanin.check_substitution_isomorphism(
            5, 2, 3, x, config.modulus, zero_tol=config.zero_tol,
            rank_tol=config.rank_tol)
        rows.append(residual_row("substitution_iso_5_2_3", dist,
                                 config.iso_tol))

    tensor = poisson.extract_bracket(
        3, 1, config.modulus, zero_tol=config.zero_tol,
        rank_tol=config.rank_tol, bracket_tol=config.bracket_tol)
    rows.append(residual_row("poisson_richardson_d3",
                             tensor.richardson_error, config.bracket_tol))
    rows.append(residual_row("poisson_jacobi_d3",
                             poisson.jacobi_check(tensor, 50, config.seed),
                             config.bracket_tol))
    rows.append(residual_row("poisson_skew_d3", poisson.skew_check(tensor),
                             1e-12))

    braid_ok = mukai.words_equal(mukai.GroupWord.parse("R S R S R S"),
                                 mukai.GroupWord.parse("S S"))
    rows.append(residual_row("mukai_braid_relation", 0.0 if braid_ok else 1.0,
                             0.5))
    shift_bad = 0
    s4 = mukai.GroupWord.parse("S S S S")
    for _ in range(20):
        obj = _random_object(rng)
        moved = mukai.act_word(obj, s4)
        if moved != mukai.DerivedObject(obj.kind, obj.rank, obj.degree,
                                        obj.shift - 2):
            shift_bad += 1
    rows.append(residual_row("mukai_s4_shift", shift_bad, 0.5))
    solver_bad = 0
    for d in range(2, 13):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            _, companion = mukai.solve_T_r(mukai.Bundle(r, d, 0))
            if (r * companion.rank) % d != (-1) % d:
                solver_bad += 1
            _, rdp = mukai.solve_U_r(mukai.Bundle(r, d, 0))
            if (r * rdp) % d != 1 % d:
                solver_bad += 1
    rows.append(residual_row("mukai_solver_congruences", solver_bad, 0.5))

    s3_bad = sum(0 if residues.check_group_relations(d) else 1
                 for d in range(2, 201))
    rows.append(residual_row("s3_relations_to_200", s3_bad, 0.5))

    triple = walls.TripleInvariants(2, 1, 3, 0)
    wall_list = walls.candidate_walls(triple, 0, 3)
    wall_bad = 0
    for w in wall_list:
        for wit in w.witnesses:
            if walls.stability_verdict(triple, wit, w.tau) != "equal":
                wall_bad += 1
    shifted = walls.candidate_walls(
        walls.TripleInvariants(2, 1, 3 + 2 * 4, 0 + 1 * 4), 4, 7)
    if [w.tau - 4 for w in shifted] != [w.tau for w in wall_list]:
        wall_bad += 1
    rows.append(residual_row("walls_consistency", wall_bad, 0.5))

    gl_bad = 0
    for r1, r2 in ((2, 1), (2, 2)):
        rep = invtensor.gl_pair_rep(r1, r2)
        t = invtensor.gl_pair_tensor(r1, r2)
        inv, star = _tensor_norms(rep, t)
        gl_bad += (inv != 0.0) + (star != 0.0)
    rows.append(residual_row("tensor_gl_t_star", gl_bad, 0.5))
    sl2 = invtensor.sl2_rep()
    dim_before = len(invtensor.solve_admissible(sl2))
    dim_after = len(invtensor.solve_admissible(
        invtensor.augment_with_center(sl2)))
    gsp_dim = len(invtensor.solve_admissible(invtensor.gsp_rep(4)))
    rows.append(residual_row("tensor_sl2_before", dim_before, 0.5))
    rows.append(residual_row("tensor_sl2_after_missing",
                             0 if dim_after >= 1 else 1, 0.5))
    rows.append(residual_row("tensor_gsp4_dim_dev", abs(gsp_dim - 1), 0.5))

    result = {"dmax": dmax, "checks": len(rows), "residuals": rows}
    return report(result, config)


def _random_object(rng) -> mukai.DerivedObject:
    if rng.random() < 0.2:
        return mukai.Torsion(int(rng.integers(-3, 4)))
    while True:
        r = int(rng.integers(1, 6))
        d = int(rng.integers(-7, 8))
        if gcd(r, d) == 1 and (d != 0 or r == 1):
            return mukai.Bundle(r, d, int(rng.integers(-3, 4)))


# -------------------------------------------------------------------- parser


def _add_config_flags(parser: argparse.ArgumentParser, env_cfg: RunConfig):
    parser.add_argument("--omega", type=parse_complex, default=env_cfg.omega,
                        help="curve modulus as RE,IM (default %(default)s)")
    parser.add_argument("--seed", type=int, default=env_cfg.seed,
                        help="random seed")
    parser.add_argument("--format", dest="output_format",
                        choices=("json", "table"),
                        default=env_cfg.output_format, help="output format")
    parser.add_argument("--tail-eps", type=float, default=env_cfg.tail_eps)
    parser.add_argument("--zero-tol", type=float, default=env_cfg.zero_tol)
    parser.add_argument("--rank-tol", type=float, default=env_cfg.rank_tol)
    parser.add_argument("--iso-tol", type=float, default=env_cfg.iso_tol)
    parser.add_argument("--bracket-tol", type=float,
                        default=env_cfg.bracket_tol)


def build_parser(env_cfg: RunConfig) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sklab",
        description="Elliptic quadratic-relation spaces and their classical "
                    "limits: evaluation, verification, and solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, func, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        _add_config_flags(p, env_cfg)
        p.set_defaults(func=func)
        return p

    theta_p = sub.add_parser("theta", help="theta basis evaluation and checks")
    theta_sub = theta_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(theta_sub, "eval", cmd_theta_eval)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", type=parse_complex, required=True)
    p = leaf(theta_sub, "check", cmd_theta_check)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)

    sk_p = sub.add_parser("sklyanin", help="relation spaces of Q_{d,r}(x)")
    sk_sub = sk_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(sk_sub, "relations", cmd_sklyanin_relations)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=parse_complex, required=True)
    p.add_argument("--dump", metavar="coeffs.json")
    p = leaf(sk_sub, "check-iso", cmd_sklyanin_check_iso)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rprime", type=int, required=True)
    p.add_argument("--x", type=parse_complex, required=True)

    po_p = sub.add_parser("poisson", help="classical-limit bracket extraction")
    po_sub = po_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(po_sub, "extract", cmd_poisson_extract)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=float, default=poisson.DEFAULT_H,
                   help="extraction step, positive (default %(default)s)")
    p.add_argument("--dump", metavar="pi.json")
    p = leaf(po_sub, "jacobi", cmd_poisson_jacobi)
    p.add_argument("--in", dest="infile", required=True, metavar="pi.json")
    p.add_argument("--trials", type=int, default=100)

    mk_p = sub.add_parser("mukai", help="derived-category group calculus")
    mk_sub = mk_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(mk_sub, "act", cmd_mukai_act)
    p.add_argument("--object", required=True,
                   help="bundle:R,D[,K] or torsion[:K]")
    p.add_argument("--word", required=True,
                   help='space-separated letters, e.g. "S R R S-"')
    p = leaf(mk_sub, "invariants", cmd_mukai_invariants)
    p.add_argument("--v1", type=parse_int_pair, required=True, metavar="R,D")
    p.add_argument("--v2", type=parse_int_pair, required=True, metavar="R,D")
    p = leaf(mk_sub, "solve-tr", cmd_mukai_solve_tr)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p = leaf(mk_sub, "solve-ur", cmd_mukai_solve_ur)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    s3_p = sub.add_parser("s3", help="residue sets and the S3 action")
    s3_sub = s3_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(s3_sub, "orbits", cmd_s3_orbits)
    p.add_argument("--d", type=int, required=True)
    p = leaf(s3_sub, "fixed", cmd_s3_fixed)
    p.add_argument("--d", type=int, required=True)
    p = leaf(s3_sub, "check", cmd_s3_check)
    p.add_argument("--dmax", type=int, default=200)

    p = leaf(sub, "walls", cmd_walls,
             help="candidate stability walls for a triple")
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--lo", type=parse_rational, required=True, metavar="P/Q")
    p.add_argument("--hi", type=parse_rational, required=True, metavar="P/Q")

    tn_p = sub.add_parser("tensor", help="invariant tensors and t_*")
    tn_sub = tn_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(tn_sub, "check", cmd_tensor_check)
    p.add_argument("--case", required=True,
                   help="gl:R1,R2, gsp:2R, or file:rep.json")
    p.add_argument("--t", metavar="file:t.json")
    p = leaf(tn_sub, "solve", cmd_tensor_solve)
    p.add_argument("--case", required=True)

    p = leaf(sub, "check", cmd_check_all,
             help="run the full cross-module verification sweep")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--dmax", type=int, default=7)

    return parser


def _config_from_args(args, env_cfg: RunConfig) -> RunConfig:
    cfg = replace(
        env_cfg,
        omega=args.omega,
        seed=args.seed,
        output_format=args.output_format,
        tail_eps=args.tail_eps,
        zero_tol=args.zero_tol,
        rank_tol=args.rank_tol,
        iso_tol=args.iso_tol,
        bracket_tol=args.bracket_tol,
    )
    return cfg.validate()


def run(argv=None) -> int:
    try:
        env_cfg = config_from_env()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser(env_cfg)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args, env_cfg)
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, sklyanin.AmbiguousRank, poisson.ExtractionError,
            mukai.TransporterError, ArithmeticError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
