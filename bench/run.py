"""sklab benchmark: one workload per run, or all of them with `--workload all`.

    python3 bench/run.py --workload rank-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

A run times a fresh-interpreter import of the workload's modules (set-up),
then repeats the workload's seeded case list until `--seconds` have passed,
checking every output.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones from the traced passes.
The line before the result is the run record: environment, sample counts,
diagnostics and the first failures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
FAILURES_SHOWN = 5
# One BLAS thread, for this process and every child (children inherit the
# environment).  The load is one closed-loop client; a second BLAS thread on
# a 2-vCPU shared host measures the scheduler: with the other vCPU busy, a
# d = 14 relation SVD took 3x longer and varied 2.5x between repeats with two
# threads, and under 5% longer with one.  Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------- environment


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_lines() -> dict:
    from spans import LAYERS
    return {m: len((SRC / "sklab" / f"{m}.py").read_text().splitlines())
            for m in LAYERS}


def environment() -> dict:
    import hashlib
    import numpy
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sklab").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "src_lines": src_lines(),
    }


# --------------------------------------------------------------- measurement


def setup_seconds(modules) -> float:
    """Median wall time of a fresh interpreter importing `modules`.

    One untimed import first, so byte-code compilation is not counted.
    """
    from workloads import child_env
    argv = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_pass(workload, recorder=None):
    """One pass over the case list: (wall seconds, latencies, failures)."""
    workload.begin_pass()
    latencies, failures = [], []
    t0 = perf_counter()
    pass_span = recorder.open("bench.pass") if recorder else None
    for case in workload.cases:
        c0 = perf_counter()
        span = recorder.open("bench.case") if recorder else None
        ok = True
        try:
            case.run()
        except Exception as exc:  # a failing case is counted, not fatal
            ok = False
            failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
        if recorder:
            recorder.close(span, failed=not ok)
        latencies.append(perf_counter() - c0)
    if recorder:
        recorder.close(pass_span)
    return perf_counter() - t0, latencies, failures


def measure(workload, seconds: float, trace: bool):
    """Repeat passes within `seconds`; traced runs alternate passes.

    A pass starts only if a pass of the median length so far still ends
    within `seconds`, so a run measures whole passes and does not overrun
    its time.  There is at least one pass of each kind the run needs.
    """
    import spans
    recorder = spans.Recorder() if trace else None
    passes = {False: [], True: []}
    latencies, failures = [], []
    start = perf_counter()
    traced = False
    while True:
        restore = None
        if traced:
            restore = spans.install(recorder)
            if hasattr(workload, "recorder"):
                workload.recorder = recorder
        try:
            wall, lat, bad = run_pass(workload, recorder if traced else None)
        finally:
            if restore:
                restore()
                if hasattr(workload, "recorder"):
                    workload.recorder = None
        passes[traced].append(wall)
        latencies += lat
        failures += bad
        typical = statistics.median(passes[False] + passes[True])
        if (perf_counter() - start + typical > seconds
                and (not trace or passes[True])):
            break
        traced = trace and not traced
    return passes, latencies, failures, recorder


def end_to_end(workload, setup_s, passes, latencies) -> dict:
    if hasattr(workload, "peak_rss_mb"):
        peak = workload.peak_rss_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes[False]), "s"),
        "case_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "case_p90_ms": (1e3 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(workload, passes, recorder, attempted, failed) -> dict:
    import spans
    prof = spans.Profile(recorder.spans)
    n = len(passes[True])
    diag = workload.diag
    cases = n * len(workload.cases)

    def ratio(num, den):
        return num / den if den else 0.0

    def self_s(name):
        return (prof.self_s(name) / n, "s")

    def calls(name):
        return (prof.calls(name) / n, "count")

    traced_wall = sum(passes[True])
    out = {
        "trace.wall_s": (statistics.median(passes[True]), "s"),
        "trace.overhead_frac": (statistics.median(passes[True])
                                / statistics.median(passes[False]) - 1.0,
                                "ratio"),
        "trace.accounted_frac": (prof.clipped_total() / traced_wall, "ratio"),
        "trace.spans": (len(recorder.spans) / n, "count"),
        "bench.self_s": (prof.prefix_self_s("bench.") / n, "s"),
        "fail_frac": (ratio(failed, attempted), "ratio"),
    }
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (prof.prefix_self_s(layer + ".") / n, "s")
    for name in ("theta.values_at", "theta.eval", "theta.dlog",
                 "sklyanin.build", "poisson.extract", "mukai.solve"):
        out[f"{name}.calls"] = calls(name)
    for name in ("theta.values_at", "theta.eval", "theta.dlog",
                 "theta.symmetry", "theta.zero_count", "sklyanin.space",
                 "sklyanin.svals", "sklyanin.iso",
                 "sklyanin.subspace_distance", "sklyanin.subst_matrix",
                 "sklyanin.build", "sklyanin.generic_x", "poisson.extract",
                 "poisson.jacobi", "poisson.skew", "poisson.substituted",
                 "poisson.scale_match", "mukai.solve", "mukai.sl2_to_word",
                 "mukai.act_word", "mukai.transporter", "residues.check",
                 "residues.fixed", "residues.orbits", "walls.candidates",
                 "walls.verdict", "invtensor.rep", "invtensor.solve",
                 "invtensor.t_star", "invtensor.invariance"):
        out[f"{name}.self_s"] = self_s(name)
    contours = prof.calls_under("theta.dlog", "theta.zero_count") / 2
    draws = prof.calls_under("theta.values_at", "sklyanin.generic_x") / 2
    out.update({
        "theta.zero_count.clean_ratio": (
            ratio(prof.calls("theta.zero_count"), contours), "ratio"),
        "sklyanin.builds_per_case": (
            ratio(prof.calls("sklyanin.build"), cases), "count"),
        "sklyanin.generic_x.accept_ratio": (
            ratio(prof.calls("sklyanin.generic_x"), draws), "ratio"),
        "poisson.extract.fail": (prof.failures("poisson.extract") / n,
                                 "count"),
        "poisson.builds_per_extract": (
            ratio(prof.calls_under("sklyanin.build", "poisson.extract"),
                  prof.calls("poisson.extract")), "count"),
        "mukai.word_len_mean": (
            statistics.fmean(getattr(workload, "word_lengths", []) or [0]),
            "count"),
        "walls.found": (diag.get("walls.found", 0)
                        / (len(passes[True]) + len(passes[False])), "count"),
        "cli.import_s": (statistics.median(getattr(workload, "import_s", [])
                                           or [0.0]), "s"),
        "cli.run_s": (statistics.median(getattr(workload, "run_s", [])
                                        or [0.0]), "s"),
        "cli.dump_bytes": (getattr(workload, "dump_bytes", 0)
                           / (len(passes[True]) + len(passes[False])),
                           "bytes"),
    })
    for name, unit in (("sklyanin.gap_min", "ratio"),
                       ("sklyanin.iso_dist_max", "ratio"),
                       ("poisson.richardson_max", "abs"),
                       ("poisson.jacobi_max", "abs"),
                       ("poisson.equivariance_max", "abs")):
        out[name] = (diag.get(name, 0.0), unit)
    for layer, lines in src_lines().items():
        out[f"{layer}.src_lines"] = (lines, "lines")
    return out, prof


def run_one(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, record=args.record_digests)
    try:
        setup_s = setup_seconds(workload.modules)
        passes, latencies, failures, recorder = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    attempted, failed = len(latencies), len(failures)
    if args.trace:
        metrics, prof = per_layer(workload, passes, recorder, attempted,
                                  failed)
        nesting = prof.nesting_errors()
        accounted = metrics["trace.accounted_frac"][0]
        consistent = nesting == 0 and abs(accounted - 1.0) < 0.01
    else:
        metrics = end_to_end(workload, setup_s, passes, latencies)
        consistent = True
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    beyond = sum(1 for t in latencies if t > p90)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "cases_per_pass": len(workload.cases),
        "passes_untraced": len(passes[False]),
        "passes_traced": len(passes[True]),
        "pass_walls": {"untraced": passes[False], "traced": passes[True]},
        "case_samples": attempted, "samples_beyond_p90": beyond,
        "setup_s": setup_s,
        "diagnostics": {k: v for k, v in sorted(workload.diag.items())},
        "trace_consistent": consistent,
        "failures": failures[:FAILURES_SHOWN],
    }
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = {"record": record, "result": result, "latencies": latencies}
    if recorder is not None:
        dump["spans"] = recorder.spans
    (OUT / f"{stem}.json").write_text(json.dumps(dump) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced; non-zero if any case failed."""
    from workloads import WORKLOADS
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                bad += 1
                continue
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            fail_frac = result["failed"] / result["attempted"]
            print(f"{name} trace={trace}: {result['attempted']} cases, "
                  f"fail_frac {fail_frac:g}, correct {result['correct']}")
            for failure in record["failures"]:
                print(f"  FAILED {failure}")
            for key, metric in result["metrics"].items():
                print(f"  {key:<36} {metric['value']:<24.10g} "
                      f"{metric['unit']}")
            bad += result["failed"] > 0 or not result["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="rank-sweep, classical-limit, exact-bookkeeping,"
                             " cli, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record the exact-output digests instead of "
                             "checking them (exact-bookkeeping, cli)")
    args = parser.parse_args(argv)
    if not (SRC / "sklab" / "__init__.py").is_file():
        return fail(f"no sklab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
