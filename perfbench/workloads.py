"""The benchmark's two workloads and the checks on their outputs.

Each workload turns a variant number into inputs, sets up (the work a user
pays once per problem), and runs passes. A pass is a closed loop: each
operation starts only after the previous one returned. Operations are RHC
steps on ``crossroad15`` and cold DR solves on ``random_avi_dr``.

Every output is checked: solver status, the natural residual recomputed
with a QP engine the program never saw, closed-loop constraint margins, and
agreement with the reference outputs in ``references/``.
"""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import gamevi.avi
import gamevi.game
import gamevi.qp
import gamevi.rhc
import gamevi.scenario
import gamevi.solvers

# --seed n selects input variant n % VARIANTS; every variant has stored
# reference outputs and a checked-feasible crossroad start
VARIANTS = 32
TOL = 1e-3
MAX_ITER = 5000
# the inner QPs meet their KKT tolerance (1e-8) only approximately, so a
# residual recomputed with another engine may exceed the solver's own
# reading by about that much
RESIDUAL_SLACK = 1e-7
MARGIN_FLOOR = -1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclasses.dataclass
class Pass:
    """One pass over a workload's operations.

    ``latencies`` time each operation's call from outside it. ``intervals``
    run from one operation's start to the next one's (the first from the
    pass's start, the last to its end), so they also hold the caller's work
    between operations and sum to the pass's wall time.
    """
    latencies: list
    intervals: list
    iterations: int
    outputs: list


def _intervals(t_start, starts, t_end):
    bounds = [t_start, *starts[1:], t_end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _sha256(arrays, extra=""):
    h = hashlib.sha256(extra.encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _probe(dim, salt):
    """Fixed unit vector used to sketch a vector output in two numbers."""
    g = np.random.default_rng([dim, salt]).standard_normal(dim)
    return g / np.linalg.norm(g)


def sketch(u):
    """(||u||, g1'u, g2'u): each differs from a reference's value by at most
    ||u - u_ref||, so a bound on the distance bounds the sketch."""
    u = np.asarray(u, dtype=float)
    return [float(np.linalg.norm(u)), float(_probe(u.size, 1) @ u),
            float(_probe(u.size, 2) @ u)]


def matrix_sketch(X):
    """(||X||_F, g1'X g2) of a matrix, for the set-up reference check."""
    X = np.asarray(X, dtype=float)
    return [float(np.linalg.norm(X)),
            float(_probe(X.shape[0], 1) @ X @ _probe(X.shape[1], 2))]


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


class Crossroad15:
    """The `gamevi crossroad` defaults: 15 vehicles, horizon 10, 300 steps.

    Variant 0 starts from `default_initial_state`; variant k > 0 draws each
    follower's spare gap from U[4.5, 5.5] m around the default 5 m, well
    inside the range in which the start is feasible.
    """
    name = "crossroad15"
    setup_repeats = 3
    horizon = 10
    steps = 300
    gap_spread = 0.5
    # closed-loop states of two runs whose every solve meets the residual
    # tolerance differ by a fraction of it: on variant 0, turning the
    # terminal shortcut off, tightening the inner QPs to 1e-10, moving the
    # DR relaxation to 0.3 or 0.7, or solving to 1e-4 moved no state by
    # more than 1e-4, a tenth of the bound this factor gives
    state_factor = 1.0
    state_stride = 50

    def __init__(self, variant):
        self.variant = variant
        self.cfg = gamevi.solvers.SolverConfig(tol=TOL, max_iter=MAX_ITER)

    def inputs(self):
        spec = gamevi.scenario.default_15_vehicle_spec()
        x0 = gamevi.scenario.default_initial_state(spec)
        if self.variant:
            # state layout: leaders hold one entry, followers (gap error,
            # relative speed); the gap error is the spare gap
            dims = [1 if c is None else 2 for c in spec.chi]
            offs = np.concatenate([[0], np.cumsum(dims)])[:-1]
            gaps = offs[[c is not None for c in spec.chi]]
            rng = np.random.default_rng(self.variant)
            x0[gaps] = spec.gap_extra + rng.uniform(
                -self.gap_spread, self.gap_spread, gaps.size)
        return spec, x0

    def setup(self):
        spec, x0 = self.inputs()
        g = gamevi.scenario.build_crossroad(spec, horizon=self.horizon)
        compiled = gamevi.game.compile_vi(g)
        return {"spec": spec, "x0": x0, "compiled": compiled}

    def digest(self, state):
        spec = state["spec"]
        fields = dataclasses.asdict(spec)
        fields["directions"] = list(spec.directions)
        return _sha256([state["x0"]], json.dumps(
            [fields, self.horizon, self.steps], sort_keys=True))

    def setup_outputs(self, state):
        c = state["compiled"]
        return {k: matrix_sketch(getattr(c, k))
                for k in ("M_ol", "qmap", "D", "Dmap")} | {
                    "d0": matrix_sketch(c.d0[:, None])}

    def check_setup(self, state, ref):
        got = self.setup_outputs(state)
        errors = []
        for key, want in ref["setup"].items():
            scale = max(1.0, abs(want[0]))
            if any(abs(a - b) > 1e-6 * scale for a, b in zip(got[key], want)):
                errors.append(f"compiled {key} sketch {got[key]} != {want}")
        return errors

    def run_pass(self, state):
        starts, latencies, outputs = [], [], []
        step = gamevi.rhc.rhc_step

        def timed_step(compiled, x, *args, **kwargs):
            t0 = time.perf_counter()
            out = step(compiled, x, *args, **kwargs)
            latencies.append(time.perf_counter() - t0)
            starts.append(t0)
            outputs.append((np.array(x, dtype=float), out[1]))
            return out

        gamevi.rhc.rhc_step = timed_step
        try:
            t_start = time.perf_counter()
            trace = gamevi.rhc.simulate(state["compiled"], state["x0"],
                                        self.steps, self.cfg)
            t_end = time.perf_counter()
        finally:
            gamevi.rhc.rhc_step = step
        return Pass(latencies, _intervals(t_start, starts, t_end),
                    int(sum(trace.solver_iterations)), [trace, outputs])

    def pass_outputs(self, result):
        trace = result.outputs[0]
        return {"iterations_total": result.iterations,
                "states": trace.states[::self.state_stride].tolist()}

    def check_pass(self, state, result, ref):
        """Failed steps (as indices) with a message for each."""
        trace, outputs = result.outputs
        compiled = state["compiled"]
        engine = gamevi.qp.QpEngine(np.eye(compiled.D.shape[1]), compiled.D)
        bad = {}
        if len(outputs) != self.steps or trace.steps != self.steps:
            bad[-1] = f"ran {len(outputs)} of {self.steps} steps"
        for t, (x, report) in enumerate(outputs):
            if report.status != gamevi.solvers.CONVERGED:
                bad[t] = f"step {t}: status {report.status}"
                continue
            r = gamevi.avi.natural_residual(compiled.avi_at(x), report.solution,
                                            engine=engine)
            if not r <= TOL + RESIDUAL_SLACK:
                bad[t] = f"step {t}: recomputed residual {r:.3e} > tol"
        for t, margins in enumerate(trace.constraint_margins):
            if margins.size and not float(np.min(margins)) >= MARGIN_FLOOR:
                bad.setdefault(t, f"step {t}: margin {float(np.min(margins)):.3e}")
        want = np.asarray(ref["states"])
        got = trace.states[::self.state_stride]
        err = np.max(np.abs(got - want), axis=1)
        for k in np.flatnonzero(~(err <= self.state_factor * TOL)):
            t = int(k) * self.state_stride
            bad.setdefault(min(t, self.steps - 1),
                           f"state at step {t} differs from reference by {err[k]:.3e}")
        return bad


class RandomAviDr:
    """Cold `dr_solve` on 100 random strongly monotone AVIs, n = 100 and
    m = 20, at tol 1e-3: no game layer and no warm starts.

    Instance i of variant k is `scenario.random_avi(100, 20, seed=(k, i))`.
    An operation is one cold solve: no warm start and no shared workspace.
    """
    name = "random_avi_dr"
    setup_repeats = 9
    instances = 100
    n = 100
    m = 20

    def __init__(self, variant):
        self.variant = variant
        self.cfg = gamevi.solvers.SolverConfig(tol=TOL, max_iter=MAX_ITER)

    def setup(self):
        problems = [gamevi.scenario.random_avi(self.n, self.m, seed=(self.variant, i))
                    for i in range(self.instances)]
        return {"problems": problems}

    def digest(self, state):
        arrays = [a for p in state["problems"] for a in (p.M, p.q, p.C.D, p.C.d)]
        return _sha256(arrays, json.dumps([self.name, self.n, self.m]))

    def check_setup(self, state, ref):
        return []

    def run_pass(self, state):
        starts, latencies, outputs = [], [], []
        iterations = 0
        t_start = time.perf_counter()
        for p in state["problems"]:
            t0 = time.perf_counter()
            report = gamevi.solvers.dr_solve(p, cfg=self.cfg)
            latencies.append(time.perf_counter() - t0)
            starts.append(t0)
            iterations += report.iterations
            outputs.append(report)
        t_end = time.perf_counter()
        return Pass(latencies, _intervals(t_start, starts, t_end), iterations,
                    outputs)

    def pass_outputs(self, result):
        return {"iterations_total": result.iterations,
                "solutions": [sketch(report.solution) for report in result.outputs]}

    def error_bounds(self, state):
        """Per problem, the distance within which two points whose natural
        residual is at most TOL must lie: 2 (1 + L) / mu * TOL for a
        mu-strongly monotone, L-Lipschitz operator."""
        if "bounds" not in state:
            bounds = []
            for p in state["problems"]:
                mu = float(np.linalg.eigvalsh((p.M + p.M.T) / 2.0)[0])
                L = float(np.linalg.norm(p.M, 2))
                bounds.append(2.0 * (1.0 + L) / mu * TOL)
            state["bounds"] = bounds
        return state["bounds"]

    def check_pass(self, state, result, ref):
        """Failed solves (as indices) with a message for each."""
        bounds = self.error_bounds(state)
        bad = {}
        if len(result.outputs) != len(ref["solutions"]):
            bad[-1] = (f"ran {len(result.outputs)} solves, reference has "
                       f"{len(ref['solutions'])}")
        for i, (p, report, want) in enumerate(
                zip(state["problems"], result.outputs, ref["solutions"])):
            if report.status != gamevi.solvers.CONVERGED:
                bad[i] = f"instance {i}: status {report.status}"
                continue
            r = gamevi.avi.natural_residual(p, report.solution)
            if not r <= TOL + RESIDUAL_SLACK:
                bad[i] = f"instance {i}: recomputed residual {r:.3e} > tol"
                continue
            got = sketch(report.solution)
            if any(not abs(a - b) <= bounds[i] for a, b in zip(got, want)):
                bad[i] = (f"instance {i}: solution sketch {got} is farther "
                          f"than {bounds[i]:.3e} from reference {want}")
        return bad


WORKLOADS = {w.name: w for w in (Crossroad15, RandomAviDr)}
