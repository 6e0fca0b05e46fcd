"""The benchmark's own output checks, on one pass of each workload.

`perfbench/workloads.py` checks every output of a benchmark run: solver
statuses, residuals recomputed with a fresh engine, closed-loop margins and
agreement with the stored references in `perfbench/references/`. This runs
one pass of each workload at variant 0 through those checks, so a solver
change that breaks reference agreement fails here in about a second, and
not only in the 30 s benchmark. The module is loaded from its file and
left unchanged. The input digests are compared in a subprocess at one BLAS
thread, as the benchmark runs: `random_avi`'s S S' differs in its last bits
at other thread counts, while every output check has a tolerance.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["crossroad15", "random_avi_dr"])
def test_benchmark_pass_meets_its_references(name):
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name](0)
    ref = workloads.load_reference(name)
    want = ref["variants"]["0"]
    state = wl.setup()
    assert wl.check_setup(state, ref) == []
    result = wl.run_pass(state)
    assert wl.check_pass(state, result, want) == {}


# prints {workload: variant-0 input digest}; -B keeps it from writing
# bytecode next to the benchmark
DIGESTS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps({name: wl.digest(wl.setup()) for name, wl in
                  ((name, module.WORKLOADS[name](0)) for name in sys.argv[2:])}))
"""


def test_benchmark_inputs_match_reference_digests():
    """Both workloads' variant-0 inputs, generated at one BLAS thread, hash
    to the digests their references were made from."""
    names = ["crossroad15", "random_avi_dr"]
    src = str(WORKLOADS.parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-B", "-c", DIGESTS, str(WORKLOADS), *names],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    workloads = load_workloads()
    for name in names:
        want = workloads.load_reference(name)["variants"]["0"]["inputs_sha256"]
        assert got[name] == want, name
