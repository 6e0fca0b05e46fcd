"""The benchmark's own output checks, on one pass of each workload.

`perfbench/workloads.py` checks every output of a benchmark run: solver
statuses, residuals recomputed with a fresh engine, closed-loop margins and
agreement with the stored references in `perfbench/references/`. This runs
one pass of each workload at variant 0 through those checks, so a solver
change that breaks reference agreement fails here in about a second, and
not only in the 30 s benchmark. The module is loaded from its file and
left unchanged. The input digests are not compared: the benchmark runs at
one BLAS thread, and `random_avi`'s S S' differs in its last bits at other
thread counts, while every output check has a tolerance.
"""

import importlib.util
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
