"""Run one workload of the gamevi benchmark and print its metrics.

    python3 perfbench/run.py --workload crossroad15 --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` the workload is
set up several times and then runs whole passes until ``--seconds`` have
passed; the end-to-end metrics are printed. With ``--trace 1`` it runs an
untraced set-up and pass, a traced set-up and pass, and another untraced
pass, and prints the per-layer metrics (see README.md). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every output check passed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# one BLAS thread: the loops are sequential and the matrices small, and the
# default thread pool makes timings depend on what else the machine runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Tally of operations attempted and failed, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, count, bad):
        self.attempted += count
        self.failed += len(bad)
        for msg in list(bad.values())[:5]:
            print(f"check failed: {msg}", file=sys.stderr)


def set_up(wl, ref, checks, repeats):
    """Set the workload up `repeats` times; returns (last state, times)."""
    times = []
    state = None
    for _ in range(repeats):
        state = None  # drop the previous set-up before timing the next
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        checks.add(1, dict(enumerate(wl.check_setup(state, ref))))
    check_inputs(wl, state, ref, checks)
    return state, times


def check_inputs(wl, state, ref, checks):
    """The generated inputs must be the ones the references were made from."""
    digest = wl.digest(state)
    print(f"inputs {wl.name} variant {wl.variant} sha256 {digest}")
    if digest != ref["variants"][str(wl.variant)]["inputs_sha256"]:
        print("check failed: generated inputs differ from the reference inputs",
              file=sys.stderr)
        checks.failed += 1


def run_untraced(wl, ref, seconds, checks):
    state, setup_times = set_up(wl, ref, checks, wl.setup_repeats)
    want = ref["variants"][str(wl.variant)]
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        passes.append(wl.run_pass(state))
    for result in passes:
        checks.add(len(result.latencies), wl.check_pass(state, result, want))
    # Every pass repeats the same operations on the same inputs, and the time
    # of an operation is its slowest run over the passes. On a shared
    # machine the speed swings by up to 2x, in phases of seconds to a
    # minute, as other tenants' load comes and goes; the slowest of several
    # runs spread over the run lands on the contended floor, which moved
    # least from run to run (see README.md).
    latencies = [max(runs) for runs in zip(*(p.latencies for p in passes))]
    intervals = [max(runs) for runs in zip(*(p.intervals for p in passes))]
    print(f"passes {len(passes)} operations per pass {len(latencies)}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(intervals), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        # the tail as the mean of the ten slowest operations: the step
        # latencies of crossroad15 jump from tens to hundreds of ms around
        # p94, so any single tail percentile moved by a factor of two
        # between input variants
        "op_ms_top10": (1e3 * statistics.fmean(sorted(latencies)[-10:]), "ms"),
        "iterations_total": (passes[0].iterations, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_traced(wl, ref, checks):
    import tracing

    want = ref["variants"][str(wl.variant)]

    def check(state, result, setup=True):
        bad = dict(enumerate(wl.check_setup(state, ref))) if setup else {}
        checks.add(setup + len(result.latencies),
                   bad | wl.check_pass(state, result, want))

    # untraced set-up and pass, traced set-up and pass, untraced pass again:
    # the overhead compares the traced pass with the mean of the two around
    # it, which cancels a steady drift in the machine's speed
    t0 = time.perf_counter()
    state = wl.setup()
    t1 = time.perf_counter()
    result = wl.run_pass(state)
    t2 = time.perf_counter()
    check_inputs(wl, state, ref, checks)
    check(state, result)
    untraced = [t1 - t0, t2 - t1]
    state = result = None

    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.root("setup", run=0) as setup_root:
            state = wl.setup()
        with tracer.root("loop", run=1) as loop_root:
            result = wl.run_pass(state)
    check(state, result)
    result = None
    t0 = time.perf_counter()
    result = wl.run_pass(state)
    untraced[1] = (untraced[1] + time.perf_counter() - t0) / 2.0
    check(state, result, setup=False)
    missing = [n for n in tracing.REQUIRED[wl.name] if n not in tracer.fired()]
    if missing:
        print(f"check failed: wrappers never fired: {missing}", file=sys.stderr)
        checks.failed += 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.variant}.json.gz")
    return tracing.per_layer(tracer, setup_root, loop_root, sum(untraced))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy loads, so that its BLAS pool starts with this size
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "gamevi" / "__init__.py").is_file():
        print(f"gamevi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gamevi
    import workloads

    if Path(gamevi.__file__).resolve().parent != SRC / "gamevi":
        print(f"imported gamevi from {gamevi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    info = machine_info()
    print("machine " + json.dumps(info, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload](args.seed % workloads.VARIANTS)
    ref = workloads.load_reference(wl.name)
    checks = Checks()
    if args.trace:
        import tracing
        try:
            metrics = run_traced(wl, ref, checks)
        except tracing.MissingPatchPoint as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
    else:
        metrics = run_untraced(wl, ref, args.seconds, checks)
    correct = checks.failed == 0
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(dict(result, machine=info, seed=args.seed, variant=wl.variant),
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
