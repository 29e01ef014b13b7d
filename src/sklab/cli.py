"""Command-line front end for every module in the package.

One executable, one subcommand per capability, uniform output: results
go to stdout as JSON (default) or an aligned table, residual checks are
reported as {name, value, tolerance, pass} rows, and the exit code tells
scripts what happened: 0 success, 1 a verification failed, 2 usage.
`check --all` is assembled from the row builders of the subcommands.

Configuration precedence is flags > environment (SKLAB_OMEGA,
SKLAB_SEED, SKLAB_FORMAT) > built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
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


def _plain(value):
    """json.dumps hook: a Fraction as "p/q", a numpy scalar as Python."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} has no JSON form")


# floats print as the shortest repr that round-trips; NaN and inf raise
# ValueError, which exits 2
_dumps = functools.partial(json.dumps, allow_nan=False, default=_plain)


def residual_row(name: str, value: float, tolerance) -> dict:
    return {"name": name, "value": float(value),
            "tolerance": float(tolerance), "pass": bool(value <= tolerance)}


def _print_table(result: dict, residuals):
    for key, value in result.items():
        if key == "residuals":
            continue
        if value is None or isinstance(value, (dict, list, tuple, float)):
            value = _dumps(value)
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
        print(_dumps(result))
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


def _theta_rows(d: int, trials: int, config: RunConfig, rng) -> list:
    """Rows of `theta check` at d.

    Functional equations at `trials` random points, zero counts of every
    basis function, and the symmetry fit at a generic x, drawn from rng
    in that order.
    """
    basis = ThetaBasis(d, config.modulus, tail_eps=config.tail_eps)
    worst1 = worst2 = 0.0
    for _ in range(trials):
        m = int(rng.integers(0, d))
        z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * config.omega)
        r1, r2 = _theta_residuals_at(basis, m, z)
        worst1, worst2 = max(worst1, r1), max(worst2, r2)
    count_dev = max(abs(theta_zero_count(basis, m) - d) for m in range(d))
    x = sklyanin.sample_generic_x(d, config.modulus, rng,
                                  zero_tol=config.zero_tol)
    _, b, fit = theta_symmetry_constants(basis, x, zero_tol=config.zero_tol)
    return [
        residual_row("shift_by_1_over_d_max", worst1, FUNCTIONAL_EQ_TOL),
        residual_row("shift_by_omega_max", worst2, FUNCTIONAL_EQ_TOL),
        residual_row("zero_count_deviation", count_dev, 0.5),
        residual_row("symmetry_fit", fit, SYMMETRY_TOL),
        residual_row("symmetry_ratio_unity", abs(b ** d - 1.0), SYMMETRY_TOL),
    ]


def cmd_theta_check(args, config: RunConfig) -> int:
    rows = _theta_rows(args.d, args.trials, config,
                      np.random.default_rng(config.seed))
    return report({"d": args.d, "trials": args.trials, "residuals": rows},
                  config)


def cmd_sklyanin_relations(args, config: RunConfig) -> int:
    params = sklyanin.AlgebraParams(args.d, args.r, args.x, config.modulus)
    system = sklyanin.build_relations(params, zero_tol=config.zero_tol,
                                      tail_eps=config.tail_eps)
    space = sklyanin.relation_space(system, rank_tol=config.rank_tol)
    svals = sklyanin.singular_values(system)
    rank = space.shape[1]
    expected = args.d * (args.d - 1) // 2
    # no gap exists at rank 0 or full rank; JSON has no infinity
    gap = float(svals[rank - 1] / svals[rank]) if 0 < rank < len(svals) \
        else None
    if args.dump:
        rows = [{"i": i, "j": j,
                 "terms": [{"n": n, "a": a, "b": b,
                            "coeff_re": c.real, "coeff_im": c.imag}
                           for n, a, b, c in terms]}
                for i, j, terms in sklyanin.relation_terms(system)]
        payload = {"d": args.d, "r": params.r,
                   "x": [args.x.real, args.x.imag],
                   "rows": rows, "rank": rank}
        with open(args.dump, "w") as fh:
            fh.write(_dumps(payload) + "\n")
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


def _iso_row(d: int, r: int, r_prime: int, x: complex,
            config: RunConfig) -> dict:
    """Row of `sklyanin check-iso`: the substitution subspace distance."""
    dist = sklyanin.check_substitution_isomorphism(
        d, r, r_prime, x, config.modulus, zero_tol=config.zero_tol,
        rank_tol=config.rank_tol)
    return residual_row("subspace_distance", dist, config.iso_tol)


def cmd_sklyanin_check_iso(args, config: RunConfig) -> int:
    row = _iso_row(args.d, args.r, args.rprime, args.x, config)
    result = {
        "d": args.d, "r": args.r, "r_prime": args.rprime,
        "x_re": args.x.real, "x_im": args.x.imag,
        "distance": row["value"],
        "residuals": [row],
    }
    return report(result, config)


def _skew_row(tensor: poisson.PoissonTensor) -> dict:
    return residual_row("skew_violation", poisson.skew_check(tensor), 1e-12)


def _extract_rows(d: int, r: int, h: float, config: RunConfig):
    """The (d, r) bracket and its `poisson extract` rows.

    The rows are the Richardson spread and the skew violation.
    """
    if not h > 0:
        raise UsageError(f"h must be positive, got {h:g}")
    tensor = poisson.extract_bracket(
        d, r, config.modulus, h=h, zero_tol=config.zero_tol,
        rank_tol=config.rank_tol, bracket_tol=config.bracket_tol)
    return tensor, [residual_row("richardson_error", tensor.richardson_error,
                                 config.bracket_tol), _skew_row(tensor)]


def _jacobi_row(tensor: poisson.PoissonTensor, trials: int,
               config: RunConfig) -> dict:
    """Row of `poisson jacobi`: worst residual at points from config.seed."""
    return residual_row("jacobi_residual",
                        poisson.jacobi_check(tensor, trials, config.seed),
                        config.bracket_tol)


def cmd_poisson_extract(args, config: RunConfig) -> int:
    tensor, rows = _extract_rows(args.d, args.r, args.h, config)
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
            fh.write(_dumps(payload) + "\n")
    result = {
        "d": args.d, "r": args.r, "h": args.h,
        "richardson_error": tensor.richardson_error,
        "nonzero_entries": int(np.count_nonzero(tensor.pi)),
        "residuals": rows,
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
    row = _jacobi_row(tensor, args.trials, config)
    result = {
        "d": tensor.d, "r": tensor.r,
        "trials": args.trials, "seed": config.seed,
        "max_jacobi": row["value"],
        "residuals": [row, _skew_row(tensor)],
    }
    return report(result, config)


def _object_fields(obj: mukai.DerivedObject) -> dict:
    if obj.kind == "bundle":
        return {"class": f"bundle:{obj.rank},{obj.degree}", "shift": obj.shift}
    return {"class": "torsion", "shift": obj.shift}


def cmd_mukai_act(args, config: RunConfig) -> int:
    obj = parse_object(args.object)
    moved = mukai.act_word(obj, mukai.GroupWord.parse(args.word))
    return report(_object_fields(moved), config)


def cmd_mukai_invariants(args, config: RunConfig) -> int:
    inv = mukai.orbit_invariants(mukai.KVector(*args.v1),
                                 mukai.KVector(*args.v2))
    return report({"det": inv.det, "alpha": inv.alpha}, config)


def cmd_mukai_solve_tr(args, config: RunConfig) -> int:
    word, companion = mukai.solve_T_r(mukai.Bundle(args.r, args.d, 0))
    return report({"word": str(word), "r_prime": companion.rank}, config)


def cmd_mukai_solve_ur(args, config: RunConfig) -> int:
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


def _s3_row(dmax: int):
    """Moduli in 2..dmax that break the S3 relations, and their row."""
    bad = [d for d in range(2, dmax + 1)
           if not residues.check_group_relations(d)]
    return bad, residual_row("relation_failures", len(bad), 0.5)


def cmd_s3_check(args, config: RunConfig) -> int:
    if args.dmax < 2:
        raise UsageError(f"--dmax must be at least 2, got {args.dmax}")
    bad, row = _s3_row(args.dmax)
    return report({"dmax": args.dmax, "failures": bad, "residuals": [row]},
                  config)


def cmd_walls(args, config: RunConfig) -> int:
    triple = walls.TripleInvariants(args.r1, args.r2, args.d1, args.d2)
    wall_list = walls.candidate_walls(triple, args.lo, args.hi)
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


def _tensor_rows(rep, tensors) -> list:
    """Rows of `tensor check`: invariance and t_* norm of each tensor.

    Both must be exactly 0 on an exact representation, and within
    FLOAT_TOL on a float one.
    """
    cut = 0.0 if rep.is_exact() else invtensor.FLOAT_TOL
    rows = []
    for idx, tensor in enumerate(tensors):
        inv = invtensor.check_invariance(rep, tensor)
        star = max((abs(x) for row in invtensor.t_star(rep, tensor)
                    for x in row), default=0)
        tag = f"_{idx}" if len(tensors) > 1 else ""
        rows.append(residual_row(f"invariance{tag}", float(inv), cut))
        rows.append(residual_row(f"t_star_norm{tag}", float(star), cut))
    return rows


def cmd_tensor_check(args, config: RunConfig) -> int:
    rep, default_tensor = _resolve_tensor_case(args.case)
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
    result = {"case": args.case, "checked": len(tensors),
              "residuals": _tensor_rows(rep, tensors)}
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
    """One verification sweep over every module.

    Rows that a subcommand also reports come from that subcommand's row
    builder, renamed.  All draws come from one generator seeded with
    config.seed, in a fixed order.
    """
    rng = np.random.default_rng(config.seed)
    rows = []
    dmax = args.dmax

    for d in (3, 5):
        if d <= dmax:
            rows += [dict(row, name=f"theta_d{d}_{row['name']}")
                     for row in _theta_rows(d, 25, config, rng)]

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
        rows.append(dict(_iso_row(5, 2, 3, x, config),
                         name="substitution_iso_5_2_3"))

    tensor, (richardson, skew) = _extract_rows(3, 1, poisson.DEFAULT_H, config)
    rows += [dict(richardson, name="poisson_richardson_d3"),
             dict(_jacobi_row(tensor, 50, config), name="poisson_jacobi_d3"),
             dict(skew, name="poisson_skew_d3")]

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

    rows.append(dict(_s3_row(200)[1], name="s3_relations_to_200"))

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
    for case in ("gl:2,1", "gl:2,2"):
        rep, t = _resolve_tensor_case(case)
        gl_bad += sum(not row["pass"] for row in _tensor_rows(rep, [t]))
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


def _config_from_args(args) -> RunConfig:
    """RunConfig from the flags, one per field; their defaults hold the env."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig)}).validate()


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
        config = _config_from_args(args)
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
