"""Receding-horizon closed loop around the compiled game VI.

Each step solves AVI(U_T(x), M, q_x) from a warm start, applies the first
stage col_i(u_i*[0]) to the plant, and warm-starts the next step with the
shifted solution (drop the first stage, append the equilibrium feedback at
the predicted terminal state); the run's solvers.DrWorkspace also carries
the inner QP duals from step to step. Inside the terminal set the feedback
rollout F x is feasible and therefore the solution in closed form: the step
returns it after one matvec and one residual bound, with no QP solve -- the
single-iteration regime visible in the iteration-count logs.
"""

import dataclasses
import json
import time

import numpy as np

from . import solvers
from .avi import project
from .errors import Infeasible, NonFiniteData, SpecError, spec_file
from .game import in_terminal_set, unconstrained_ne_sequence

__all__ = ["ClosedLoopTrace", "shift_warm_start", "rhc_step", "simulate",
           "write_trace_json", "read_trace_json", "write_iterations_csv"]


@dataclasses.dataclass
class ClosedLoopTrace:
    """Closed-loop record: states has steps+1 rows, everything else steps.
    constraint_margins is a (steps, rows) array: row t holds the realized
    margins of step t's stage constraints and of its successor's state
    constraints."""
    states: np.ndarray
    inputs: np.ndarray
    solver_iterations: list
    residual_at_termination: list
    constraint_margins: np.ndarray
    statuses: list
    meta: dict

    @property
    def steps(self):
        return self.inputs.shape[0]

    def min_margin(self):
        return float(np.min(self.constraint_margins, initial=np.inf))


def shift_warm_start(prev, compiled, prev_x):
    """Shift a full-horizon solution one stage and append the terminal
    feedback: per agent (u_i[1], ..., u_i[T-1], K_i x_T) with x_T the
    terminal state predicted from prev_x under prev."""
    game = compiled.game
    prev = np.asarray(prev, dtype=float).ravel()
    x_T = compiled.predict(prev_x, prev)[-game.n:]
    out = np.empty_like(prev)
    for i in range(game.N):
        sl = game.agent_slice(i)
        block = prev[sl]
        mi = game.m[i]
        out[sl] = np.concatenate([block[mi:], compiled.riccati.K_ol[i] @ x_T])
    return out


def _step_margins(game, x, u0, x_next):
    """Realized margins of the stage constraints at (x, u[0]) and of the
    state constraints at the successor state."""
    offs = game.offsets
    mixed = -(game.Ex @ x + sum(
        game.Eu[i] @ u0[offs[i]:offs[i + 1]] for i in range(game.N)) + game.e)
    state = -(game.Dx @ x_next + game.dx)
    return np.concatenate([mixed, state])


def rhc_step(compiled, x, warm, cfg=None, workspace=None, terminal_shortcut=True):
    """One receding-horizon step: returns (applied first-stage input, report).

    The applied sequence is the feasibility projection of the converged
    iterate (the DR affine update is not feasibility-preserving, so without
    it the plant would see constraint violations of the order of the solver
    tolerance); at convergence the two differ by at most the tolerance.

    With the shortcut enabled, a state inside the terminal set returns the
    feedback rollout u = F x (unconstrained_ne_sequence) with one iteration
    and the residual r = ||E x||, E = M_ol F + qmap, without reading warm or
    solving a QP. u is feasible there (with the terminal set's margin) and
    the projection is nonexpansive, so r bounds u's natural residual; only
    when r > cfg.tol does the step go on to DR. Raises Infeasible (annotated
    with the state) when U_T(x) is empty. workspace is the
    solvers.DrWorkspace of compiled, built here when omitted. A final
    projection that misses its KKT tolerance counts in the report's
    qp_not_optimal and turns ``converged`` into ``inner_inexact``.
    """
    cfg = cfg or solvers.SolverConfig()
    x = np.asarray(x, dtype=float).ravel()
    t0 = time.perf_counter()
    if terminal_shortcut and in_terminal_set(compiled, x):
        u = unconstrained_ne_sequence(compiled, x)
        r = float(np.linalg.norm(compiled.E @ x))
        if r <= cfg.tol:
            return compiled.first_stage(u), solvers.SolverReport(
                solution=u, residuals=[r], iterations=1,
                status=solvers.CONVERGED, wall_time=time.perf_counter() - t0,
                algorithm="dr")
    problem = compiled.avi_at(x)
    if workspace is None:
        workspace = solvers.DrWorkspace(compiled.splitting, compiled.D)
    if warm is None:
        warm = np.zeros(problem.dim)
    warm = np.asarray(warm, dtype=float).ravel()
    report = solvers.dr_solve(problem, cfg=cfg, warm=warm, workspace=workspace)
    applied = report.solution
    if not problem.C.contains(applied):
        sol = project(problem.C, applied, engine=workspace.resid_engine,
                      solution=True)
        applied = sol.y
        if not sol.optimal:
            report.qp_not_optimal += 1
            if report.status == solvers.CONVERGED:
                report.status = solvers.INNER_INEXACT
    return compiled.first_stage(applied), report


def _initial_warm_start(compiled, x0, workspace):
    """Equilibrium feedback rollout, projected onto U_T(x0) if infeasible.

    A projection that misses its KKT tolerance is dropped for the rollout
    itself: the first step's DR solve certifies whatever it starts from."""
    u = unconstrained_ne_sequence(compiled, x0)
    C = compiled.polyhedron_at(x0)
    if C.contains(u, tol=1e-12):
        return u
    sol = project(C, u, engine=workspace.resid_engine, solution=True)
    return sol.y if sol.optimal else u


def simulate(compiled, x0, steps, cfg=None, terminal_shortcut=True):
    """Closed-loop simulation for the given number of steps.

    States propagate through the plant recursion x+ = A x + sum_i B_i u_i[0]
    one agent at a time (not through the condensed predictor), so a recorded
    trace replays bit-identically. Raises Infeasible annotated with the
    failing step index.
    """
    cfg = cfg or solvers.SolverConfig()
    game = compiled.game
    x = np.asarray(x0, dtype=float).ravel().copy()
    workspace = solvers.DrWorkspace(compiled.splitting, compiled.D)
    states = np.zeros((steps + 1, game.n))
    offs = game.offsets
    inputs = np.zeros((steps, offs[-1]))
    margins = np.zeros((steps, game.Ex.shape[0] + game.Dx.shape[0]))
    iterations, residuals, statuses = [], [], []
    states[0] = x
    try:
        warm = _initial_warm_start(compiled, x, workspace)
    except Infeasible as exc:
        raise Infeasible(f"initial state infeasible at step 0: {exc}",
                         slack=exc.slack) from exc
    for t in range(steps):
        try:
            u0, report = rhc_step(compiled, x, warm, cfg, workspace,
                                  terminal_shortcut)
        except Infeasible as exc:
            raise Infeasible(f"constraint set empty at step {t}: {exc}",
                             slack=exc.slack) from exc
        x_next = game.A @ x + sum(
            game.B[i] @ u0[offs[i]:offs[i + 1]] for i in range(game.N))
        inputs[t] = u0
        states[t + 1] = x_next
        iterations.append(report.iterations)
        residuals.append(report.final_residual)
        margins[t] = _step_margins(game, x, u0, x_next)
        statuses.append(report.status)
        warm = shift_warm_start(report.solution, compiled, x)
        x = x_next
    meta = {
        "horizon": game.T,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "terminal_shortcut": bool(terminal_shortcut),
    }
    return ClosedLoopTrace(states, inputs, iterations, residuals, margins,
                           statuses, meta)


def write_trace_json(trace, path):
    """Per-step records {t, x, u, iterations, residual, margins} plus meta;
    the terminal state appears as a final record with null input fields."""
    records = []
    for t in range(trace.steps):
        records.append({
            "t": t,
            "x": trace.states[t].tolist(),
            "u": trace.inputs[t].tolist(),
            "iterations": int(trace.solver_iterations[t]),
            "residual": float(trace.residual_at_termination[t]),
            "margins": trace.constraint_margins[t].tolist(),
            "status": trace.statuses[t],
        })
    payload = {
        "meta": trace.meta,
        "steps": records,
        "final_state": trace.states[-1].tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_trace_json(path):
    """Inverse of write_trace_json. A malformed file raises SpecError naming
    it, and a NaN or infinite number raises NonFiniteData."""
    with spec_file(path, ("steps", "final_state")) as payload:
        records = payload["steps"]
        steps = len(records)
        if steps == 0:
            raise SpecError(f"{path}: trace has no steps")
        n = len(records[0]["x"])
        states = np.zeros((steps + 1, n))
        inputs = np.zeros((steps, len(records[0]["u"])))
        margins = np.zeros((steps, len(records[0]["margins"])))
        iterations, residuals, statuses = [], [], []
        for t, rec in enumerate(records):
            states[t] = rec["x"]
            inputs[t] = rec["u"]
            iterations.append(int(rec["iterations"]))
            residuals.append(float(rec["residual"]))
            margins[t] = rec["margins"]
            statuses.append(rec.get("status", ""))
        states[steps] = payload["final_state"]
        if not all(np.all(np.isfinite(a))
                   for a in (states, inputs, margins, residuals)):
            raise NonFiniteData(f"{path}: trace contains NaN or infinite values")
        return ClosedLoopTrace(states, inputs, iterations, residuals, margins,
                               statuses, payload.get("meta", {}))


def write_iterations_csv(trace, path):
    with open(path, "w") as fh:
        fh.write("t,iterations\n")
        for t, it in enumerate(trace.solver_iterations):
            fh.write(f"{t},{it}\n")
