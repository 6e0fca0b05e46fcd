"""Self-test of the benchmark: exact counts at seed 0 repeat and match the
counts recorded when the benchmark was defined.

    python3 -m pytest -q perfbench/tests

Each case starts the benchmark as a separate process, as the benchmark
command does (the BLAS thread count must be set before numpy loads). The
whole file takes about three minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def values(metrics, units=None):
    return {k: v["value"] for k, v in metrics.items()
            if units is None or v["unit"] in units}


def qp_calls(m, path=None):
    return sum(v for k, v in m.items()
               if k.startswith("qp.") and k.endswith(".calls")
               and (path is None or f".{path}." in k))


@pytest.fixture(scope="module")
def crossroad_traced():
    return [bench("crossroad15", trace=1) for _ in range(2)]


def test_crossroad_iterations_total():
    assert values(bench("crossroad15", trace=0))["iterations_total"] == 977


def test_crossroad_traced_counts_repeat(crossroad_traced):
    exact = ("count", "ratio")
    assert values(crossroad_traced[0], exact) == values(crossroad_traced[1], exact)
    first = values(crossroad_traced[0])
    assert qp_calls(first) == 1761
    assert qp_calls(first, "admm") == 129
    assert first["rhc.step_calls"] == 300
    assert first["rhc.shortcut_hits"] == 246
    assert first["game.are_calls"] == 15
    assert first["solvers.dr_iterations"] == 977 - 246


def test_crossroad_layer_shares(crossroad_traced):
    m = values(crossroad_traced[0])
    assert m["game.are_s"] >= 0.8 * m["trace.setup_s"]
    admm_s = m["qp.stepa.admm.s"] + m["qp.proj.admm.s"]
    assert admm_s >= 0.5 * m["trace.loop_s"]


def test_random_avi_dr_iterations():
    assert values(bench("random_avi_dr", trace=0))["iterations_total"] == 11000
    traced = values(bench("random_avi_dr", trace=1))
    assert traced["solvers.dr_calls"] == 100
    assert traced["solvers.dr_iterations"] == 11000
