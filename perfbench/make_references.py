"""Regenerate the reference outputs the benchmark checks results against.

    python3 perfbench/make_references.py --workload crossroad15

For every input variant it sets the workload up once, runs one pass, checks
the pass (status, recomputed residual, margins; on crossroad15 this is the
proof that every variant's start stays feasible for all 300 steps) and
stores the inputs' hash and a sketch of the outputs in
``references/<workload>.json``. Run it only when the program's results are
meant to change; the references pin what a correct run produces.
"""

import argparse
import json
import os
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    import run
    for var in run.THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    payload = {"workload": cls.name, "tol": workloads.TOL,
               "machine": run.machine_info(), "variants": {}}
    for variant in range(workloads.VARIANTS):
        wl = cls(variant)
        state = wl.setup()
        if hasattr(wl, "setup_outputs"):
            setup = wl.setup_outputs(state)
            if payload.setdefault("setup", setup) != setup:
                raise SystemExit(f"set-up outputs differ at variant {variant}")
        result = wl.run_pass(state)
        entry = {"inputs_sha256": wl.digest(state)} | wl.pass_outputs(result)
        bad = wl.check_pass(state, result, entry)
        if bad:
            raise SystemExit(f"variant {variant} fails its checks: "
                             f"{list(bad.values())[:5]}")
        payload["variants"][str(variant)] = entry
        print(f"{cls.name} variant {variant}: iterations {result.iterations}, "
              f"{len(result.latencies)} operations", flush=True)
    path = workloads.REFERENCE_DIR / f"{cls.name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
