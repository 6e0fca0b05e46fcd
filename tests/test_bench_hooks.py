"""Guard for the benchmark's trace hooks.

`perfbench/run.py --trace 1` wraps public functions at the names through
which their callers look them up (`perfbench/tracing.py`) and fails when a
required wrapper never fires. This runs a small version of both workloads
under that tracer, so a rename that breaks the hooks fails here too and
not only in the slow benchmark self-test.
"""

import importlib.util
from pathlib import Path

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
        with tracer.root("random_avi", run=1):
            p = gamevi.scenario.random_avi(20, 5, seed=0)
            assert gamevi.solvers.dr_solve(p, cfg=cfg).converged
    fired = [{s[0] for s in tracer.spans if s[4] == run} for run in (0, 1)]
    for run, workload in enumerate(("crossroad15", "random_avi_dr")):
        missing = set(tracing.REQUIRED[workload]) - fired[run]
        assert not missing, f"{workload}: wrappers never fired: {sorted(missing)}"
