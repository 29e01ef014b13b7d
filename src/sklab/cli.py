"""Command-line front end for every module in the package.

One executable, one subcommand per capability, uniform output.  Each
handler returns its result as a dict, and `run` reports it: to stdout as
JSON (default) or an aligned table, residual checks as {name, value,
tolerance, pass} rows.  The exit code tells scripts what happened: 0
success, 1 a verification failed (a row or an ArithmeticError), 2 usage (a
ValueError or OSError).  `check --all` is assembled from the row builders
of the subcommands, and both `--dump` files are streamed by `_dump`.

Each command imports what it calls, so the exact subcommands, `--help` and
usage errors load no numpy.

Configuration precedence is flags > environment (SKLAB_OMEGA,
SKLAB_SEED, SKLAB_FORMAT) > built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import gcd

DEFAULT_OMEGA = 0.2 + 1.3j
FUNCTIONAL_EQ_TOL = 1e-10
# Points per batch of the functional-equation check of `theta check`.
THETA_CHUNK = 256
# Bound on the substitution subspace distance of `sklyanin check-iso`.
ISO_TOL = 1e-8


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad arguments or violated preconditions; exits with code 2.  argparse
    prints its message when a flag's type function raises it."""


@dataclass(frozen=True)
class RunConfig:
    omega: complex = DEFAULT_OMEGA
    seed: int = 0
    output_format: str = "json"

    def validate(self) -> "RunConfig":
        if self.omega.imag <= 0:
            raise UsageError("omega must have positive imaginary part")
        if self.output_format not in ("json", "table"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        return self

    @property
    def modulus(self) -> CurveModulus:
        from .theta import CurveModulus
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
    from . import mukai
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
                raise ValueError(f"expected R,D or R,D,K, got {len(nums)} "
                                 "integers")
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
    np = sys.modules.get("numpy")  # loaded if value is a numpy scalar
    if np and isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} has no JSON form")


# floats print as the shortest repr that round-trips; NaN and inf raise
# ValueError, which exits 2
_dumps = functools.partial(json.dumps, allow_nan=False, default=_plain)


def _dump(path: str, payload: dict, parts) -> None:
    """Write _dumps(payload) and a newline to path, with the one empty list
    in payload filled from parts (lists), which are written one at a time."""
    head, tail = _dumps(payload).split("[]")
    with open(path, "w") as fh:
        fh.write(head + "[")
        sep = ""
        for part in parts:
            if part:
                fh.write(sep + _dumps(part)[1:-1])
                sep = ", "
        fh.write("]" + tail + "\n")


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


def cmd_theta_eval(args, config: RunConfig) -> dict:
    from .theta import ThetaBasis, theta_functional_residuals
    basis = ThetaBasis(args.d, config.modulus)
    z = args.z
    value = basis.eval(args.m, z)
    (res1,), (res2,) = theta_functional_residuals(basis, [args.m], [z])
    return {
        "d": args.d, "m": args.m,
        "z_re": z.real, "z_im": z.imag,
        "value_re": value.real, "value_im": value.imag,
        "residuals": [
            residual_row("shift_by_1_over_d", res1, FUNCTIONAL_EQ_TOL),
            residual_row("shift_by_omega", res2, FUNCTIONAL_EQ_TOL),
        ],
    }


def _theta_rows(d: int, trials: int, config: RunConfig, rng) -> list:
    """Rows of `theta check` at d.

    Functional equations at `trials` random points, zero counts of every
    basis function, and the symmetry fit at a generic x, drawn from rng
    in that order.  The points are drawn and checked THETA_CHUNK at a
    time, each as m, then Re, then Im.  trials must be at least 1.
    """
    from . import sklyanin
    from .theta import (FIT_TOL, ThetaBasis, theta_functional_residuals,
                        theta_symmetry_constants, theta_zero_count)
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    basis = ThetaBasis(d, config.modulus)
    worst1 = worst2 = 0.0
    for start in range(0, trials, THETA_CHUNK):
        points = [(int(rng.integers(0, d)), complex(
            rng.uniform(-1, 1) + rng.uniform(-1, 1) * config.omega))
            for _ in range(min(THETA_CHUNK, trials - start))]
        r1, r2 = theta_functional_residuals(basis, *zip(*points))
        worst1, worst2 = max(worst1, r1.max()), max(worst2, r2.max())
    count_dev = max(abs(theta_zero_count(basis, m) - d) for m in range(d))
    x = sklyanin.sample_generic_x(d, config.modulus, rng)
    _, b, fit = theta_symmetry_constants(basis, x)
    return [
        residual_row("shift_by_1_over_d_max", worst1, FUNCTIONAL_EQ_TOL),
        residual_row("shift_by_omega_max", worst2, FUNCTIONAL_EQ_TOL),
        residual_row("zero_count_deviation", count_dev, 0.5),
        residual_row("symmetry_fit", fit, FIT_TOL),
        residual_row("symmetry_ratio_unity", abs(b ** d - 1.0), FIT_TOL),
    ]


def cmd_theta_check(args, config: RunConfig) -> dict:
    import numpy as np
    rows = _theta_rows(args.d, args.trials, config,
                      np.random.default_rng(config.seed))
    return {"d": args.d, "trials": args.trials, "residuals": rows}


def cmd_sklyanin_relations(args, config: RunConfig) -> dict:
    from . import sklyanin
    params = sklyanin.AlgebraParams(args.d, args.r, args.x, config.modulus)
    system = sklyanin.build_relations(params)
    rank, gap = sklyanin.relation_rank(system)
    expected = args.d * (args.d - 1) // 2
    if args.dump:
        # one relation row per part
        _dump(args.dump, {"d": args.d, "r": params.r,
                          "x": [args.x.real, args.x.imag],
                          "rows": [], "rank": rank},
              ([{"i": i, "j": j,
                 "terms": [{"n": n, "a": a, "b": b,
                            "coeff_re": c.real, "coeff_im": c.imag}
                           for n, a, b, c in terms]}]
               for i, j, terms in sklyanin.relation_terms(system)))
    return {
        "d": args.d, "r": params.r,
        "x_re": args.x.real, "x_im": args.x.imag,
        "rank": rank, "expected_rank": expected,
        "gap": gap,
        "residuals": [
            residual_row("rank_deviation", abs(rank - expected), 0.5),
        ],
    }


def _iso_row(d: int, r: int, r_prime: int, x: complex,
            config: RunConfig) -> dict:
    """Row of `sklyanin check-iso`: the substitution subspace distance."""
    from . import sklyanin
    dist = sklyanin.check_substitution_isomorphism(d, r, r_prime, x,
                                                   config.modulus)
    return residual_row("subspace_distance", dist, ISO_TOL)


def cmd_sklyanin_check_iso(args, config: RunConfig) -> dict:
    row = _iso_row(args.d, args.r, args.rprime, args.x, config)
    return {
        "d": args.d, "r": args.r, "r_prime": args.rprime,
        "x_re": args.x.real, "x_im": args.x.imag,
        "distance": row["value"],
        "residuals": [row],
    }


def _skew_row(tensor: poisson.PoissonTensor) -> dict:
    from . import poisson
    return residual_row("skew_violation", poisson.skew_check(tensor), 1e-12)


def _extract_rows(d: int, r: int, config: RunConfig):
    """The (d, r) bracket and its `poisson extract` rows.

    The rows are the tangent residual and the skew violation.
    """
    from . import poisson
    tensor = poisson.extract_bracket(d, r, config.modulus)
    return tensor, [residual_row("tangent_residual", tensor.richardson_error,
                                 poisson.TANGENT_TOL), _skew_row(tensor)]


def _jacobi_row(tensor: poisson.PoissonTensor, trials: int,
               config: RunConfig) -> dict:
    """Row of `poisson jacobi`: worst residual at points from config.seed."""
    from . import poisson
    return residual_row("jacobi_residual",
                        poisson.jacobi_check(tensor, trials, config.seed),
                        poisson.BRACKET_TOL)


def cmd_poisson_extract(args, config: RunConfig) -> dict:
    import numpy as np
    tensor, rows = _extract_rows(args.d, args.r, config)
    if args.dump:
        # the nonzero entries in (a, b, c) order, one first index a per part
        d = tensor.d
        _dump(args.dump, {"d": d, "r": tensor.r, "entries": [],
                          "richardson_error": tensor.richardson_error},
              ([{"a": a, "b": b, "c": c, "e": (a + b - c) % d,
                 "re": val.real, "im": val.imag}
                for (b, c), val in zip(np.argwhere(pi_a).tolist(),
                                       pi_a[pi_a != 0].tolist())]
               for a, pi_a in enumerate(tensor.pi)))
    return {
        "d": args.d, "r": args.r,
        "richardson_error": tensor.richardson_error,
        "nonzero_entries": int(np.count_nonzero(tensor.pi)),
        "residuals": rows,
    }


def _load(what: str, path: str, loader):
    """loader(path), refusing an unreadable or malformed file as usage."""
    try:
        return loader(path)
    except (OSError, KeyError, TypeError, ValueError, OverflowError,
            MemoryError) as exc:
        raise UsageError(f"cannot load {what} from {path!r}: {exc}")


_entry = operator.itemgetter("a", "b", "c", "e", "re", "im")


def _entry_tuple(obj: dict):
    """json object_hook: an entry as (a, b, c, e, complex(re, im)); any
    other object, an entry that lacks a key included, stays a dict."""
    try:
        a, b, c, e, re, im = _entry(obj)
    except KeyError:
        return obj
    return a, b, c, e, complex(re, im)


def load_poisson_json(path: str) -> poisson.PoissonTensor:
    """The bracket of a `poisson extract --dump` file, its entries read as
    tuples and checked as arrays; a refusal names the first entry at fault."""
    import numpy as np
    from . import poisson
    with open(path) as fh:
        data = json.load(fh, object_hook=_entry_tuple)
    for key in "dr":
        if type(data[key]) is not int:
            raise ValueError(f"{key} = {data[key]!r} is not an integer")
    d = data["d"]
    if d < 1:
        raise ValueError(f"d = {d} is below 1")
    entries = data.pop("entries")
    for entry in entries:
        if type(entry) is not tuple:
            _entry(entry)  # not an object with every key: raises, naming it
    cols = np.fromiter(itertools.chain.from_iterable(entries), object,
                       5 * len(entries)).reshape(-1, 5)
    del entries
    index = cols[:, :4]

    def refuse_first(bad, message):
        if np.any(bad):
            raise ValueError(message.format(tuple(index[np.argmax(bad)])))

    # ints in 0..d-1, compared as Python ints, so that an index past int64
    # is refused here rather than overflowing the numpy cast below
    if not (set(map(type, index.flat)) <= {int} and 0 <= min(
            index.flat, default=0) and max(index.flat, default=0) < d):
        refuse_first([not all(type(i) is int and 0 <= i < d for i in row)
                      for row in index],
                     f"entry index {{}} is not in 0..{d - 1}")
    values = cols[:, 4].astype(complex)
    refuse_first(~np.isfinite(values), "entry {} is not finite")
    a, b, c, e = index.astype(np.intp).T
    refuse_first((a + b - c - e) % d,
                 f"entry {{}}: c + e is not a + b mod {d}")
    pi = np.zeros((d, d, d), dtype=complex)
    pi[a, b, c] = values
    return poisson.PoissonTensor(
        d=d, r=data["r"], pi=pi,
        richardson_error=float(data["richardson_error"]))


def cmd_poisson_jacobi(args, config: RunConfig) -> dict:
    tensor = _load("bracket", args.infile, load_poisson_json)
    row = _jacobi_row(tensor, args.trials, config)
    return {
        "d": tensor.d, "r": tensor.r,
        "trials": args.trials, "seed": config.seed,
        "max_jacobi": row["value"],
        "residuals": [row, _skew_row(tensor)],
    }


def _object_fields(obj: mukai.DerivedObject) -> dict:
    if obj.kind == "bundle":
        return {"class": f"bundle:{obj.rank},{obj.degree}", "shift": obj.shift}
    return {"class": "torsion", "shift": obj.shift}


def cmd_mukai_act(args, config: RunConfig) -> dict:
    from . import mukai
    obj = parse_object(args.object)
    moved = mukai.act_word(obj, mukai.GroupWord.parse(args.word))
    return _object_fields(moved)


def cmd_mukai_invariants(args, config: RunConfig) -> dict:
    from . import mukai
    inv = mukai.orbit_invariants(mukai.KVector(*args.v1),
                                 mukai.KVector(*args.v2))
    return {"det": inv.det, "alpha": inv.alpha}


def cmd_mukai_solve_tr(args, config: RunConfig) -> dict:
    from . import mukai
    word, companion = mukai.solve_T_r(mukai.Bundle(args.r, args.d, 0))
    return {"word": str(word), "r_prime": companion.rank}


def cmd_mukai_solve_ur(args, config: RunConfig) -> dict:
    from . import mukai
    word, r_dp = mukai.solve_U_r(mukai.Bundle(args.r, args.d, 0))
    return {"word": str(word), "r_prime": r_dp}


def cmd_s3_orbits(args, config: RunConfig) -> dict:
    from . import residues
    return {"d": args.d, "members": residues.residue_set(args.d).members,
            "orbits": residues.orbit_report(args.d),
            **residues.fixed_points(args.d)}


def cmd_s3_fixed(args, config: RunConfig) -> dict:
    from . import residues
    return {"d": args.d, **residues.fixed_points(args.d)}


def _s3_row(dmax: int):
    """Moduli in 2..dmax that break the S3 relations, and their row."""
    from . import residues
    bad = [d for d in range(2, dmax + 1)
           if not residues.check_group_relations(d)]
    return bad, residual_row("relation_failures", len(bad), 0.5)


def cmd_s3_check(args, config: RunConfig) -> dict:
    if args.dmax < 2:
        raise UsageError(f"--dmax must be at least 2, got {args.dmax}")
    bad, row = _s3_row(args.dmax)
    return {"dmax": args.dmax, "failures": bad, "residuals": [row]}


def cmd_walls(args, config: RunConfig) -> dict:
    from . import walls
    triple = walls.TripleInvariants(args.r1, args.r2, args.d1, args.d2)
    wall_list = walls.candidate_walls(triple, args.lo, args.hi)
    return {"walls": [{"tau": w.tau, "witnesses": w.witnesses}
                      for w in wall_list],
            "degenerations": walls.degeneration_cells(triple)}


def _resolve_tensor_case(case: str):
    from . import invtensor
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
        return _load("rep", rest, invtensor.load_rep_json), None
    raise UsageError(f"unknown case {case!r} (expected gl:R1,R2, gsp:2R, "
                     "or file:rep.json)")


def _tensor_rows(rep, tensors) -> list:
    """Rows of `tensor check`: invariance and t_* norm of each tensor.

    Both must be exactly 0 on an exact representation, and within
    FLOAT_TOL on a float one.
    """
    from . import invtensor
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


def cmd_tensor_check(args, config: RunConfig) -> dict:
    from . import invtensor
    rep, default_tensor = _resolve_tensor_case(args.case)
    if args.t:
        tensors = [_load("tensor", args.t.removeprefix("file:"),
                         invtensor.load_tensor_json)]
    elif default_tensor is not None:
        tensors = [default_tensor]
    else:
        tensors = invtensor.solve_admissible(rep)
        if not tensors:
            return {"case": args.case, "checked": 0,
                    "note": "admissible space is zero; nothing to check",
                    "residuals": []}
    return {"case": args.case, "checked": len(tensors),
            "residuals": _tensor_rows(rep, tensors)}


def cmd_tensor_solve(args, config: RunConfig) -> dict:
    from . import invtensor
    rep, _ = _resolve_tensor_case(args.case)
    basis = invtensor.solve_admissible(rep)
    return {
        "case": args.case,
        "dim": len(basis),
        "basis": [[[Fraction(x) if isinstance(x, int) else x for x in row]
                   for row in tensor.t] for tensor in basis],
    }


def cmd_check_all(args, config: RunConfig) -> dict:
    """One verification sweep over every module.

    Rows that a subcommand also reports come from that subcommand's row
    builder, renamed.  All draws come from one generator seeded with
    config.seed, in a fixed order.
    """
    # every module up front, numpy first: importing each on first use
    # raised this command's peak RSS from 40.3 to 41.7 MB
    import numpy as np
    from . import invtensor, mukai, poisson, residues, sklyanin, walls
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
            x = sklyanin.sample_generic_x(d, config.modulus, rng)
            system = sklyanin.build_relations(
                sklyanin.AlgebraParams(d, r, x, config.modulus))
            rank = sklyanin.relation_rank(system)[0]
            rank_dev = max(rank_dev, abs(rank - d * (d - 1) // 2))
    rows.append(residual_row("sklyanin_rank_dev", rank_dev, 0.5))

    if dmax >= 5:
        x = sklyanin.sample_generic_x(5, config.modulus, rng)
        rows.append(dict(_iso_row(5, 2, 3, x, config),
                         name="substitution_iso_5_2_3"))

    tensor, (tangent, skew) = _extract_rows(3, 1, config)
    rows += [dict(tangent, name="poisson_tangent_d3"),
             dict(_jacobi_row(tensor, 50, config), name="poisson_jacobi_d3"),
             dict(skew, name="poisson_skew_d3")]

    braid_ok = mukai.words_equal(mukai.GroupWord.parse("R S R S R S"),
                                 mukai.GroupWord.parse("S S"))
    rows.append(residual_row("mukai_braid_relation", 0.0 if braid_ok else 1.0,
                             0.5))
    s4 = mukai.GroupWord.parse("S S S S")
    objs = [_random_object(rng) for _ in range(20)]
    shift_bad = sum(mukai.act_word(o, s4) != mukai.DerivedObject(
        o.kind, o.rank, o.degree, o.shift - 2) for o in objs)
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
    wall_bad = sum(walls.stability_verdict(triple, wit, w.tau) != "equal"
                   for w in wall_list for wit in w.witnesses)
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

    return {"dmax": dmax, "checks": len(rows), "residuals": rows}


def _random_object(rng) -> mukai.DerivedObject:
    from . import mukai
    if rng.random() < 0.2:
        return mukai.Torsion(int(rng.integers(-3, 4)))
    while True:
        r = int(rng.integers(1, 6))
        d = int(rng.integers(-7, 8))
        if gcd(r, d) == 1 and (d != 0 or r == 1):
            return mukai.Bundle(r, d, int(rng.integers(-3, 4)))


# -------------------------------------------------------------------- parser


def _negative_form(flag: str, example: str) -> str:
    # argparse reads a value that starts with '-' and holds ',' or '/' as
    # a flag, not as a negative number; the '=' form attaches it
    return f"write a negative value as {flag}={example}"


def _add_config_flags(parser: argparse.ArgumentParser, env_cfg: RunConfig):
    parser.add_argument("--omega", type=parse_complex, default=env_cfg.omega,
                        help="curve modulus as RE,IM (default %(default)s); "
                             + _negative_form("--omega", "-0.2,1.3"))
    parser.add_argument("--seed", type=int, default=env_cfg.seed,
                        help="random seed")
    parser.add_argument("--format", dest="output_format",
                        choices=("json", "table"),
                        default=env_cfg.output_format, help="output format")


def build_parser(env_cfg: RunConfig) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sklab",
        description="Elliptic quadratic-relation spaces and their classical "
                    "limits: evaluation, verification, and solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, func, *int_flags, **kwargs):
        # no prefix matching: a flag that no longer exists must be refused,
        # not read as the prefix of another (--help above all)
        p = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        _add_config_flags(p, env_cfg)
        p.set_defaults(func=func)
        for flag in int_flags:  # required integers, in this order
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    theta_p = sub.add_parser("theta", help="theta basis evaluation and checks")
    theta_sub = theta_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(theta_sub, "eval", cmd_theta_eval, "d", "m")
    p.add_argument("--z", type=parse_complex, required=True,
                   help=_negative_form("--z", "-0.3,0.4"))
    p = leaf(theta_sub, "check", cmd_theta_check, "d")
    p.add_argument("--trials", type=int, default=100)

    sk_p = sub.add_parser("sklyanin", help="relation spaces of Q_{d,r}(x)")
    sk_sub = sk_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(sk_sub, "relations", cmd_sklyanin_relations, "d", "r")
    p.add_argument("--x", type=parse_complex, required=True,
                   help=_negative_form("--x", "-0.3,0.4"))
    p.add_argument("--dump", metavar="coeffs.json")
    p = leaf(sk_sub, "check-iso", cmd_sklyanin_check_iso, "d", "r", "rprime")
    p.add_argument("--x", type=parse_complex, required=True,
                   help=_negative_form("--x", "-0.3,0.4"))

    po_p = sub.add_parser("poisson", help="classical-limit bracket extraction")
    po_sub = po_p.add_subparsers(dest="subcommand", required=True)
    p = leaf(po_sub, "extract", cmd_poisson_extract, "d", "r")
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
    p.add_argument("--v1", type=parse_int_pair, required=True, metavar="R,D",
                   help=_negative_form("--v1", "-2,1"))
    p.add_argument("--v2", type=parse_int_pair, required=True, metavar="R,D",
                   help=_negative_form("--v2", "-2,1"))
    leaf(mk_sub, "solve-tr", cmd_mukai_solve_tr, "r", "d")
    leaf(mk_sub, "solve-ur", cmd_mukai_solve_ur, "r", "d")

    s3_p = sub.add_parser("s3", help="residue sets and the S3 action")
    s3_sub = s3_p.add_subparsers(dest="subcommand", required=True)
    leaf(s3_sub, "orbits", cmd_s3_orbits, "d")
    leaf(s3_sub, "fixed", cmd_s3_fixed, "d")
    p = leaf(s3_sub, "check", cmd_s3_check)
    p.add_argument("--dmax", type=int, default=200)

    p = leaf(sub, "walls", cmd_walls, "r1", "r2", "d1", "d2",
             help="candidate stability walls for a triple")
    p.add_argument("--lo", type=parse_rational, required=True, metavar="P/Q",
                   help=_negative_form("--lo", "-1/2"))
    p.add_argument("--hi", type=parse_rational, required=True, metavar="P/Q",
                   help=_negative_form("--hi", "-1/2"))

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
        args = build_parser(config_from_env()).parse_args(argv)
        config = _config_from_args(args)
        return report(args.func(args, config), config)
    except SystemExit as exc:  # argparse: --help, or its usage message
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
