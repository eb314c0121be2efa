"""congrmod benchmark: seeded workloads against the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs the four workloads one after another, each in its own
process.

One client and one process, closed loop: the next problem starts when the
previous one has returned.  Problems come in blocks of fixed composition
(see workloads.py) and a run completes whole blocks until the timed wall
time reaches --seconds.

Workloads, and why each was chosen:
  analyze-finite-padic    `congrmod analyze --format structured` in-process
                          on module-finite codim-0 algebras over Z_(p): the
                          user-facing report; Ext, span solving and normal
                          forms dominate, and its many small problems make
                          the latency percentiles meaningful.
  analyze-finite-pseries  the same over F_4[[t]]: the generic RF arithmetic
                          path; a Z_(p)-only change must show no change here.
  hypersurface-strategies x0*(x0 - pi^k) in n <= 3 variables resolved by
                          matrix factorization and by syzygies, then eta and
                          psi on each: normal forms and Smith forms dominate.
  determinantal-resolution  criterion 8's ring C(l, m, n), syzygy resolution
                          to length 3 at search degree 2: span-solver
                          rebuilds and normal forms, no Ext at all; one
                          problem takes 25-40 s, so a run is exactly one
                          problem, whatever --seconds says.

BENCHMARK.json lists only analyze-finite-padic and hypersurface-strategies,
which between them reach every layer.  On a shared host whose speed drifts
over minutes, runs of 35 s spread past their bounds; runs of 50 s fit the
benchmark's total time for two workloads only.  Run the other two by name
(or with `all`) when a change touches the Z_(p)-only paths, the span solver
or the Ext computation.

--trace 0 prints the end-to-end metrics, measured untraced:
  problems_per_s   problems that passed every check / timed wall time
  latency_p50_ms   median wall time per problem
  latency_tail_ms  wall time per problem at a percentile fixed per workload,
                   which leaves at least ten samples beyond it (padic 90,
                   pseries 88, hypersurface 83, and the maximum for the
                   one-problem determinantal run); the percentile and sample
                   counts are printed in the info line
  setup_s          median over 15 fresh interpreters, started between the
                   timed blocks, of the time to import congrmod and build
                   the workload's base Dvr
  peak_rss_mib     peak resident memory of this process after the timed loop
failed_frac (problems that raised, exited outside {0, 1}, wrote a
traceback or failed a check) is printed on the summary line; the result's
`attempted` and `failed` carry the same counts.

--trace 1 runs every problem of a fixed number of blocks twice, untraced
and traced (tracing.py) in alternating order, and prints per-layer calls,
self and total times, exact work counts and the tracing overhead (traced
minus untraced time).  Counts repeat exactly for a given seed.

Correctness checks run outside the timed region.  Each run also prints a
SHA-256 of the canonical outputs of its first block (of all its blocks when
traced), which repeats exactly for a given seed and code.  The last line of
output is the JSON result; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15

# Runs in a fresh interpreter; prints the seconds from before the import of
# congrmod to a built base Dvr.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import congrmod
congrmod.Dvr(sys.argv[2], int(sys.argv[3]))
print(time.perf_counter() - t0)
"""

END_TO_END = (("problems_per_s", "problems/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _layer(name, *fields):
    return [(f"{name}.{f}", "count" if f == "calls" else "s") for f in fields]


PER_LAYER = (
    _layer("congruence.ext_module", "calls") + [("congruence.ext_module.distinct", "count")]
    + _layer("congruence.ext_module", "self_s")
    + [(f"congruence.{f}.total_s", "s") for f in
       ("eta_raw", "psi_raw", "kappa_defect", "numerical_criterion", "serre_check")]
    + _layer("stdbasis.reduce_strong", "calls", "self_s")
    + [("stdbasis.reduce_strong.distinct", "count")]
    + _layer("stdbasis.std_basis", "calls", "self_s")
    + _layer("stdbasis.mora_normal_form", "calls", "self_s")
    + _layer("finite.FiniteStructure.try_build", "self_s")
    + [("linsolve.SpanSolver.builds", "count"), ("linsolve.SpanSolver.build_s", "s")]
    + _layer("linsolve.SpanSolver.solve", "calls", "self_s")
    + _layer("linsolve.prune_generators", "calls", "total_s")
    + _layer("linsolve.poly_kernel", "calls", "self_s")
    + _layer("linsolve.poly_solve", "calls", "self_s")
    + [("linsolve.columns_expanded", "count")]
    + _layer("omodule.smith_form", "calls", "self_s")
    + [("omodule.smith_form.entries", "count")]
    + [m for f in ("o_kernel", "o_solve", "o_kernel_dense", "o_solve_dense")
       for m in _layer(f"omodule.{f}", "calls", "self_s")]
    + _layer("resolution.resolve_O", "calls", "self_s", "total_s")
    + [("resolution.ranks_sum", "count")]
    + _layer("algebra.regularity_at_lambda", "total_s")
    + _layer("algebra.cotangent_invariants", "total_s")
    + _layer("probfile.load_problem", "self_s")
    + _layer("cli.main", "self_s")
    + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
)


class Setup:
    """Set-up times from fresh interpreters, after one warm-up that fills the
    bytecode cache (a user pays that once, not per run)."""

    def __init__(self, kind, param):
        self.cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), kind, str(param)]
        self.times = []
        self.measure()

    def measure(self):
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def between_blocks(self):
        """One sample after each block, so that the samples spread over the
        run and the host's changes of speed, not one burst."""
        if len(self.times) < SETUP_REPEATS:
            self.times.append(self.measure())

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.times.append(self.measure())
        return statistics.median(self.times)


def run_one(workload, problem):
    """Solve one problem; returns (output, error, seconds).  Only the solve
    call is timed."""
    error = output = None
    t0 = perf_counter()
    try:
        output = workload.solve(problem)
    except Exception as exc:  # a failed problem, counted in failed_frac
        error = f"raised {type(exc).__name__}: {exc}"
    return output, error, perf_counter() - t0


def run_blocks(workload, blocks, seconds, between=lambda: None):
    """Closed loop over whole blocks until the timed seconds reach
    `seconds`, calling `between` (untimed) after each block.  Returns one
    [problem, output, error, seconds, block index] per problem and the timed
    seconds."""
    results = []
    timed = 0.0
    for index, block in enumerate(blocks):
        for problem in block:
            output, error, dt = run_one(workload, problem)
            timed += dt
            results.append([problem, output, error, dt, index])
        if timed >= seconds:
            break
        between()
    return results, timed


def check_all(workload, results):
    """Fill in the check result of every problem; returns the failures."""
    failures = []
    for row in results:
        problem, output, error = row[:3]
        if error is None:
            try:
                error = workload.check(problem, output)
            except Exception as exc:  # a malformed output is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
            row[2] = error
        if error is not None:
            failures.append((problem, error))
    return failures


def digest(workload, results):
    h = hashlib.sha256()
    for problem, output, error, *_ in results:
        h.update((workload.render(problem, output) if error is None
                  else f"error {error}").encode())
        h.update(b"\n")
    return h.hexdigest()


def tail(latencies, percentile):
    """(value, samples beyond it): the nearest-rank value at a percentile
    fixed per workload, so that it stays at the same place in the block's
    cost mix however many blocks a run completes."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, len(ordered) * percentile // 100)
    return ordered[index], len(ordered) - 1 - index


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, rng, seconds):
    setup = Setup(*workload.base)
    results, timed = run_blocks(workload, workload.blocks(rng), seconds,
                                setup.between_blocks)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(workload, results)
    latencies = [r[3] for r in results]
    tail_s, beyond = tail(latencies, workload.tail_percentile)
    passed = sum(r[2] is None for r in results)
    metrics = {
        # A shared host's CPU can switch between two speeds about 1.4x apart
        # in spells of seconds (seen on a 2-vCPU Xeon VM).  A whole-run ratio
        # and a median over all problems move smoothly with the share of the
        # run spent at each speed, where a median over blocks jumps from one
        # speed to the other.
        "problems_per_s": metric(passed / timed, "problems/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mib": metric(peak_mib, "MiB"),
        "setup_s": metric(setup.median(), "s"),
    }
    info = {"timed_s": timed, "blocks": results[-1][4] + 1,
            "latency_tail_percentile": workload.tail_percentile,
            "latency_samples": len(latencies),
            "latency_samples_beyond_tail": beyond,
            "digest": digest(workload, [r for r in results if r[4] == 0])}
    return results, failures, metrics, info


def run_traced(workload, rng):
    """Each problem of a fixed number of blocks runs twice, untraced and
    traced, in alternating order, so both sides see the same host speed."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    blocks = [b for _, b in zip(range(workload.trace_blocks), workload.blocks(rng))]
    for index, problem in enumerate(p for block in blocks for p in block):
        for side in ((plain, traced) if index % 2 == 0 else (traced, plain)):
            if side is traced:
                tracer.begin_problem()
                with tracer:
                    row = run_one(workload, problem)
            else:
                row = run_one(workload, problem)
            side.append([problem, *row, index])
    plain_s, traced_s = (sum(r[3] for r in side) for side in (plain, traced))
    failures = check_all(workload, plain) + check_all(workload, traced)
    info = {"untraced_s": plain_s, "traced_s": traced_s, "blocks": len(blocks),
            "digest": digest(workload, plain)}
    if digest(workload, traced) != info["digest"]:
        failures.append((None, "traced outputs differ from untraced outputs"))
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = metric(layer_value(tracer, name, plain_s, traced_s), unit)
    print("# spans by self time (s): name calls self_s total_s")
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s, total_s) in ranked:
        if calls:
            print(f"#   {name:45s} {calls:9d} {self_s:10.4f} {total_s:10.4f}")
    return plain, failures, metrics, info


def layer_value(tracer, name, plain_s, traced_s):
    if name == "trace.overhead_s":
        return traced_s - plain_s
    if name == "trace.overhead_frac":
        return (traced_s - plain_s) / plain_s
    if name == "linsolve.SpanSolver.builds":
        return tracer.stats["linsolve.SpanSolver.__init__"][0]
    if name == "linsolve.SpanSolver.build_s":
        return tracer.stats["linsolve.SpanSolver.__init__"][2]
    base, _, field = name.rpartition(".")
    fields = {"calls": 0, "self_s": 1, "total_s": 2}
    if field in fields and base in tracer.stats:
        return tracer.stats[base][fields[field]]
    return tracer.counts.get(name, 0)


def run_all(args, names):
    """Each workload in its own process, so peak memory stays per workload;
    the exit code is nonzero if any workload's checks failed."""
    codes = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd + ["--tiny"] * args.tiny, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None):
    from workloads import NAMES, make

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest blocks, for the harness self-check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, NAMES)

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make(args.workload, workdir, tiny=args.tiny)
        rng = random.Random(args.seed)
        if args.trace:
            results, failures, metrics, info = run_traced(workload, rng)
        else:
            results, failures, metrics, info = run_untraced(workload, rng, args.seconds)
            metrics = {name: metrics[name] for name, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = len({id(p) for p, _ in failures if p is not None}) + sum(
        p is None for p, _ in failures)
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "input_size": workload.size,
                 "inputs_attempted": workload.inputs.attempted,
                 "inputs_distinct": len(workload.inputs.seen),
                 "failed_frac": failed / attempted})
    for problem, error in failures[:10]:
        print(f"# FAILED {json.dumps(problem, sort_keys=True)}: {error}")
    print("# info " + json.dumps(info, sort_keys=True))
    shown = ("trace.overhead_s", "trace.overhead_frac") if args.trace else metrics
    summary = " ".join(f"{k}={metrics[k]['value']:.6g}{metrics[k]['unit']}"
                       for k in shown)
    print(f"# {args.workload} seed={args.seed} failed_frac={info['failed_frac']:.6g} "
          f"{summary}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    if not (SRC / "congrmod" / "__init__.py").is_file():
        sys.exit(f"error: no congrmod package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
