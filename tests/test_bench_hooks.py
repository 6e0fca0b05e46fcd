"""Guard for the benchmark's trace hooks.

`perfbench/run.py --trace 1` wraps public functions at the names through
which their callers look them up (`perfbench/tracing.py`) and fails when a
required wrapper never fires. This runs a small version of both workloads
under that tracer, so a rename that breaks the hooks fails here too and
not only in the slow benchmark self-test. It also checks that the
terminal-set, step-(b) and QP spans count the calls the RHC and DR loops
make, so that none can be bypassed while its name still fires.
"""

import collections
import importlib.util
from pathlib import Path

import numpy as np

import gamevi.game
import gamevi.rhc
import gamevi.scenario
import gamevi.solvers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_fire():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfg = gamevi.solvers.SolverConfig(tol=1e-3, max_iter=5000)
    with tracer.installed():
        with tracer.root("crossroad", run=0):
            spec = gamevi.scenario.default_15_vehicle_spec().prefix(4)
            g = gamevi.scenario.build_crossroad(spec, horizon=10)
            compiled = gamevi.game.compile_vi(g)
            x0 = gamevi.scenario.default_initial_state(spec)
            gamevi.rhc.simulate(compiled, x0, 10, cfg)
            # and from a state in the terminal set's inner ball
            near = 0.5 * compiled._terminal_ball / np.linalg.norm(x0) * x0
            gamevi.rhc.simulate(compiled, near, 3, cfg)
        with tracer.root("random_avi", run=1):
            p = gamevi.scenario.random_avi(20, 5, seed=0)
            report = gamevi.solvers.dr_solve(p, cfg=cfg)
            assert report.converged
    fired = [{s[0] for s in tracer.spans if s[4] == run} for run in (0, 1)]
    for run, workload in enumerate(("crossroad15", "random_avi_dr")):
        missing = set(tracing.REQUIRED[workload]) - fired[run]
        assert not missing, f"{workload}: wrappers never fired: {sorted(missing)}"
    # one terminal-set test per RHC step, so a fast path inside
    # in_terminal_set stays inside the span that times it
    spans = collections.Counter(s[0] for s in tracer.spans if s[4] == 0)
    assert spans["rhc.in_terminal_set"] == spans["rhc.rhc_step"] == 13
    # one step-(b) solve per DR iteration; one step-(a) QP per iteration plus
    # one residual QP per exact residual entry
    spans = collections.Counter(s[0] for s in tracer.spans if s[4] == 1)
    exact = report.iterations - (0 if report.lower_bound is None
                                 else int(report.lower_bound.sum()))
    assert spans["solvers.stepb_lu_solve"] == report.iterations
    assert spans["qp.QpEngine.solve"] == report.iterations + exact
