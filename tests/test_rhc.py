import dataclasses
import json

import numpy as np
import pytest

from gamevi import game as G
from gamevi import qp, rhc, scenario, solvers
from gamevi.errors import (DimensionMismatch, Infeasible, InvalidConfig,
                           NonFiniteData, SpecError)
from gamevi.avi import natural_residual
from gamevi.solvers import INNER_INEXACT, DrWorkspace, SolverConfig, dr_solve

from oracles import kkt_certify, simulate_states, terminal_set_rollout


def cfg(tol=1e-6, max_iter=2000):
    return SolverConfig(tol=tol, max_iter=max_iter)


# --------------------------------------------------------- shift warm start

def test_shift_of_feedback_sequence_is_feedback_at_next_state(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(0)
    x = 0.1 * rng.normal(size=g.n)
    prev = G.unconstrained_ne_sequence(c, x)
    shifted = rhc.shift_warm_start(prev, c, x)
    x_next = c.riccati.A_cl @ x
    assert np.allclose(shifted, G.unconstrained_ne_sequence(c, x_next), atol=1e-12)


def test_shift_horizon_one_is_pure_feedback():
    one = np.array([[1.0]])
    g = G.LqGame(one, [one], [one], [one], T=1)
    c = G.compile_vi(g)
    prev = np.array([0.4])
    x = np.array([2.0])
    shifted = rhc.shift_warm_start(prev, c, x)
    x1 = g.A @ x + g.B[0] @ prev  # predicted terminal state
    assert np.allclose(shifted, c.riccati.K_ol[0] @ x1)


def test_shift_scalar_hand_computed():
    one = np.array([[1.0]])
    g = G.LqGame(0.5 * one, [one], [one], [one], T=3)
    c = G.compile_vi(g)
    prev = np.array([0.3, -0.2, 0.1])
    x = np.array([1.0])
    # terminal state by hand: x3 = a^3 x + a^2 b u0 + a b u1 + b u2
    a, b = 0.5, 1.0
    x3 = a ** 3 * 1.0 + a * a * b * 0.3 + a * b * (-0.2) + b * 0.1
    k = c.riccati.K_ol[0][0, 0]
    shifted = rhc.shift_warm_start(prev, c, x)
    assert np.allclose(shifted, [-0.2, 0.1, k * x3], atol=1e-12)


# ------------------------------------------------------------------ rhc_step

def test_rhc_step_zero_state(small_game2):
    g, c = small_game2
    u0, report = rhc.rhc_step(c, np.zeros(g.n), None, cfg())
    assert np.allclose(u0, 0.0, atol=1e-9)
    assert report.converged


def test_rhc_step_terminal_shortcut_single_iteration(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(1)
    x = 0.05 * rng.normal(size=g.n)
    assert G.in_terminal_set(c, x)
    warm = G.unconstrained_ne_sequence(c, x)
    u0, report = rhc.rhc_step(c, x, warm, cfg(tol=1e-3))
    assert report.iterations == 1
    assert report.converged
    expected = np.concatenate([c.riccati.K_ol[i] @ x for i in range(g.N)])
    assert np.allclose(u0, expected, atol=1e-9)


def test_rhc_step_shortcut_reports_wall_time(small_game2):
    g, c = small_game2
    x = 0.05 * np.random.default_rng(1).normal(size=g.n)
    warm = G.unconstrained_ne_sequence(c, x)
    _, report = rhc.rhc_step(c, x, warm, cfg(tol=1e-3))
    assert report.iterations == 1
    assert report.wall_time > 0.0


def test_rhc_step_shortcut_matches_full_solve(small_game2, monkeypatch):
    g, c = small_game2
    rng = np.random.default_rng(2)
    x = 0.05 * rng.normal(size=g.n)
    warm = G.unconstrained_ne_sequence(c, x)
    u_short, _ = rhc.rhc_step(c, x, warm, cfg(tol=1e-6))
    monkeypatch.setattr(rhc, "in_terminal_set", lambda c, x: False)
    u_full, rep_full = rhc.rhc_step(c, x, warm, cfg(tol=1e-6))
    assert rep_full.iterations == 1
    assert np.allclose(u_short, u_full, atol=1e-8)


def test_rhc_step_warm_vs_cold(small_game2):
    """Identical solutions; warm never needs more iterations than cold on
    at least 90 percent of sampled states."""
    g, c = small_game2
    rng = np.random.default_rng(3)
    wins = 0
    total = 10
    for _ in range(total):
        x = rng.normal(size=g.n) * 0.8
        warm = G.unconstrained_ne_sequence(c, x)
        u_w, rep_w = rhc.rhc_step(c, x, warm, cfg())
        u_c, rep_c = rhc.rhc_step(c, x, np.zeros(g.input_dim), cfg())
        assert np.max(np.abs(u_w - u_c)) <= 1e-6 * max(1.0, np.max(np.abs(u_c)))
        if rep_w.iterations <= rep_c.iterations:
            wins += 1
    assert wins >= 0.9 * total


def test_rhc_step_infeasible_raises():
    # x[1] >= 1 unreachable under |u| <= 0.1 from x0 = 0
    one = np.array([[1.0]])
    g = G.LqGame.from_stage_constraints(
        one, [one], [one], [one], T=2,
        Du=[np.array([[1.0], [-1.0]])], du=np.array([-0.1, -0.1]),
        Dx=np.array([[-1.0]]), dx=np.array([1.0]))
    c = G.compile_vi(g)
    with pytest.raises(Infeasible):
        rhc.rhc_step(c, np.zeros(1), None, cfg())


@pytest.mark.parametrize("shortcut", [True, False])
def test_wrong_length_state_raises(crossroad4, shortcut, monkeypatch):
    # checked before any other work: not a numpy matmul or broadcast error
    # from deep inside, and not an acceptance by the terminal set's inner
    # ball, which a zero state of any length would pass
    _, g, c = crossroad4
    if not shortcut:
        monkeypatch.setattr(rhc, "in_terminal_set", lambda c, x: False)
    for x in (np.zeros(3), np.zeros(g.n + 1)):
        with pytest.raises(DimensionMismatch):
            rhc.rhc_step(c, x, None, cfg())
        with pytest.raises(DimensionMismatch):
            rhc.simulate(c, x, 2, cfg())
        with pytest.raises(DimensionMismatch):
            rhc.shift_warm_start(np.zeros(g.input_dim), c, x)


def test_rhc_step_warm_start_checked_by_dr_solve(small_game2, monkeypatch):
    # None starts DR from zeros; a wrong length or a NaN is rejected
    g, c = small_game2
    monkeypatch.setattr(rhc, "in_terminal_set", lambda c, x: False)
    x = 0.05 * np.random.default_rng(1).normal(size=g.n)
    _, rep_none = rhc.rhc_step(c, x, None, cfg())
    _, rep_zero = rhc.rhc_step(c, x, np.zeros(g.input_dim), cfg())
    assert np.array_equal(rep_none.solution, rep_zero.solution)
    with pytest.raises(InvalidConfig):
        rhc.rhc_step(c, x, np.zeros(g.input_dim + 1), cfg())
    with pytest.raises(NonFiniteData):
        rhc.rhc_step(c, x, np.full(g.input_dim, np.nan), cfg())


def degrade_projections(monkeypatch, workspace, only_tol=None):
    """Make the workspace's identity-metric engine report iter_limit, on
    every call or only on those at the given KKT tolerance."""
    solve = workspace.resid_engine.solve

    def degraded(c, b=None, warm_dual=None, tol=qp.DEFAULT_TOL):
        sol = solve(c, b=b, warm_dual=warm_dual, tol=tol)
        if only_tol is None or tol == only_tol:
            sol = dataclasses.replace(sol, status=qp.ITER_LIMIT)
        return sol

    monkeypatch.setattr(workspace.resid_engine, "solve", degraded)


def count_qp_solves(monkeypatch):
    """Record the iteration count of every QpEngine.solve call."""
    calls = []
    solve = qp.QpEngine.solve

    def counting(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        calls.append(sol.iterations)
        return sol

    monkeypatch.setattr(qp.QpEngine, "solve", counting)
    return calls


def test_rhc_step_shortcut_runs_no_qp(small_game2, monkeypatch):
    # the closed form needs no QP, so not even a degraded engine can turn
    # the step inexact; the warm start is not read
    g, c = small_game2
    x = 0.05 * np.random.default_rng(1).normal(size=g.n)
    calls = count_qp_solves(monkeypatch)
    ws = DrWorkspace(c.splitting, c.D)
    degrade_projections(monkeypatch, ws)
    u0, report = rhc.rhc_step(c, x, np.full(g.input_dim, np.nan), cfg(tol=1e-3),
                              workspace=ws)
    assert calls == []
    assert report.iterations == 1
    assert report.converged and report.qp_not_optimal == 0
    assert np.array_equal(report.solution, G.unconstrained_ne_sequence(c, x))
    assert np.array_equal(u0, c.first_stage(report.solution))


def sample_terminal_states(c, count, seed):
    """Random states halved until the terminal set accepts them."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        x = 0.3 * rng.normal(size=c.game.n)
        for _ in range(30):
            if G.in_terminal_set(c, x):
                states.append(x)
                break
            x = 0.5 * x
    return states


@pytest.mark.parametrize("fixture", ["small_game2", "crossroad4", "crossroad15"])
def test_rhc_step_shortcut_is_the_closed_form(fixture, request):
    c = request.getfixturevalue(fixture)[-1]
    engine = qp.QpEngine(np.eye(c.D.shape[1]), c.D)
    for x in sample_terminal_states(c, 3, seed=17):
        u0, report = rhc.rhc_step(c, x, None, cfg(tol=1e-3))
        u = G.unconstrained_ne_sequence(c, x)
        assert report.iterations == 1 and report.converged
        assert np.array_equal(report.solution, u)
        assert np.array_equal(u0, c.first_stage(u))
        p = c.avi_at(x)
        exact = dr_solve(p, SolverConfig(tol=1e-9, max_iter=3000, qp_tol=1e-11))
        assert exact.converged
        assert np.max(np.abs(exact.solution - u)) <= 1e-7
        # ||E x|| bounds the natural residual, with equality while u - E x
        # stays feasible; the two evaluations of M u + q then differ only
        # by round-off
        slack = 64 * np.finfo(float).eps * (
            np.linalg.norm(c.M_ol, 2) * np.linalg.norm(u) + np.linalg.norm(p.q))
        assert report.final_residual >= natural_residual(p, u, engine=engine) - slack


@pytest.mark.parametrize("fixture", ["small_game2", "crossroad4", "crossroad15"])
def test_rhc_step_shortcut_falls_through_below_its_residual(fixture, request,
                                                            monkeypatch):
    c = request.getfixturevalue(fixture)[-1]
    calls = []
    dr = rhc.solvers.dr_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return dr(*args, **kwargs)

    monkeypatch.setattr(rhc.solvers, "dr_solve", counting)
    x = sample_terminal_states(c, 1, seed=19)[0]
    # on a potential game E x is round-off (1.9e-15 on crossroad4), so the
    # tolerance goes below it
    residual = np.linalg.norm(c.E @ x)
    assert residual > 0
    _, report = rhc.rhc_step(c, x, None, cfg(tol=min(1e-14, residual / 2),
                                              max_iter=2))
    assert calls == [1]
    assert report.iterations == 2 and not report.converged


def test_rhc_step_reports_inexact_final_projection(crossroad4, monkeypatch):
    # at the 4-vehicle crossroad's start the DR iterate is infeasible, so the
    # step projects it; only that projection (at avi.project's tolerance
    # 1e-10, not the inner solves' 1e-8) is made to miss its tolerance
    spec, g, c = crossroad4
    x = scenario.default_initial_state(spec)
    warm = G.unconstrained_ne_sequence(c, x)
    exact = rhc.rhc_step(c, x, warm, cfg(tol=1e-3))[1]
    assert exact.converged and not c.avi_at(x).C.contains(exact.solution)
    ws = DrWorkspace(c.splitting, c.D)
    degrade_projections(monkeypatch, ws, only_tol=1e-10)
    _, report = rhc.rhc_step(c, x, warm, cfg(tol=1e-3), workspace=ws)
    assert report.iterations == exact.iterations
    assert report.status == INNER_INEXACT and report.qp_not_optimal == 1


# ------------------------------------------------------------------ simulate

def test_simulate_zero_initial_state(small_game2):
    g, c = small_game2
    trace = rhc.simulate(c, np.zeros(g.n), 10, cfg())
    assert np.allclose(trace.states, 0.0, atol=1e-9)
    assert np.allclose(trace.inputs, 0.0, atol=1e-9)


def test_simulate_terminal_start_matches_feedback_rollout(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(4)
    x0 = 0.05 * rng.normal(size=g.n)
    assert G.in_terminal_set(c, x0)
    steps = 15
    trace = rhc.simulate(c, x0, steps, cfg(tol=1e-3))
    assert all(it == 1 for it in trace.solver_iterations)
    y = x0.copy()
    for t in range(steps + 1):
        assert np.allclose(trace.states[t], y, atol=1e-9)
        y = c.riccati.A_cl @ y
    assert trace.min_margin() > 0.0


def test_simulate_exact_replay(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=g.n) * 0.5
    trace = rhc.simulate(c, x0, 25, cfg())
    x = x0.copy()
    offs = np.concatenate([[0], np.cumsum(g.m)])
    for t in range(trace.steps):
        u0 = trace.inputs[t]
        x = g.A @ x + sum(g.B[i] @ u0[offs[i]:offs[i + 1]] for i in range(g.N))
        assert np.array_equal(x, trace.states[t + 1])


def test_simulate_terminal_set_absorbing(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=g.n) * 0.5
    trace = rhc.simulate(c, x0, 40, cfg())
    flags = [G.in_terminal_set(c, trace.states[t]) for t in range(41)]
    if True in flags:
        first = flags.index(True)
        assert all(flags[first:])


def test_simulate_margins_nonnegative_after_convergence(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=g.n) * 0.5
    trace = rhc.simulate(c, x0, 30, cfg())
    assert all(s == "converged" for s in trace.statuses)
    assert trace.min_margin() >= -1e-9


def test_simulate_flags_iteration_limited_steps(small_game2):
    """A step hitting the iteration cap still applies its best iterate and
    the trace carries the flag."""
    g, c = small_game2
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=g.n) * 0.8
    trace = rhc.simulate(c, x0, 3, cfg(tol=1e-14, max_iter=2))
    assert "iter_limit" in trace.statuses
    assert np.all(np.isfinite(trace.inputs))
    # applied inputs are feasible even for truncated solves
    assert trace.min_margin() >= -1e-8


def test_crossroad_iteration_count_pinned():
    # the first 60 steps of the 15-vehicle crossroad hold most of its DR
    # iterations (571 of 811 over 300 steps)
    spec = scenario.default_15_vehicle_spec()
    compiled = G.compile_vi(scenario.build_crossroad(spec, horizon=10))
    trace = rhc.simulate(compiled, scenario.default_initial_state(spec), 60,
                         cfg(tol=1e-3, max_iter=5000))
    assert sum(trace.solver_iterations) == 571


def test_crossroad_fallback_calls_pinned(monkeypatch):
    # the same 60 steps: 96 inner solves need dual active-set steps from
    # their start set, which the DrWorkspace carries from one step to the
    # next as warm duals. Steps 54-59 take the terminal shortcut, which solves no QP, and
    # a DR iteration solves its residual QP only where the row-violation
    # bound is within tol
    calls = count_qp_solves(monkeypatch)
    spec = scenario.default_15_vehicle_spec()
    compiled = G.compile_vi(scenario.build_crossroad(spec, horizon=10))
    trace = rhc.simulate(compiled, scenario.default_initial_state(spec), 60,
                         cfg(tol=1e-3, max_iter=5000))
    assert sum(trace.solver_iterations) == 571
    assert len(calls) == 794 and sum(calls) == 96


def test_crossroad_residual_bound_below_fresh_residual(crossroad15,
                                                       residual_bounds):
    # every DR-step iterate of the first crossroad steps: the row-violation
    # bound never exceeds the residual recomputed with a fresh engine
    spec, _, compiled = crossroad15
    rhc.simulate(compiled, scenario.default_initial_state(spec), 8,
                 cfg(tol=1e-3, max_iter=5000))
    engine = qp.QpEngine(np.eye(compiled.D.shape[1]), compiled.D)
    assert sum(r > 1e-3 for _, _, r in residual_bounds) > len(residual_bounds) // 2
    for p, u, r in residual_bounds:
        assert r <= natural_residual(p, u, engine=engine)


def test_crossroad_full_run_pinned(crossroad15_run):
    # all 300 steps of the `gamevi crossroad` defaults: 811 DR iterations,
    # and the terminal set holds exactly the states from step 54 on, so 246
    # steps take the terminal shortcut
    trace, calls = crossroad15_run
    assert sum(trace.solver_iterations) == 811
    assert [accepted for _, accepted in calls] == [False] * 54 + [True] * 246
    assert all(trace.solver_iterations[t] == 1 for t in range(54, 300))
    assert all(np.array_equal(x, trace.states[t]) for t, (x, _) in enumerate(calls))


def test_crossroad_terminal_ball_takes_the_tail(crossroad15, crossroad15_run):
    # the inner ball alone accepts every state from step 89 on (211 of the
    # 246 the terminal set accepts), so those steps skip the stacked rows
    _, _, c = crossroad15
    _, calls = crossroad15_run
    in_ball = [np.sqrt(x @ x) < c._terminal_ball for x, _ in calls]
    assert all(in_ball[89:]) and sum(in_ball) >= 200
    assert all(accepted for (_, accepted), inside in zip(calls, in_ball) if inside)


def crossroad_dr_steps(compiled, x0, tol, steps=300):
    """Every dr_solve of the loop of the given length from x0 at tol, as
    (problem, answer, the last step-(a) duals read from the workspace)."""
    solves = []
    solve = solvers.dr_solve

    def recording(p, cfg=None, warm=None, workspace=None):
        report = solve(p, cfg=cfg, warm=warm, workspace=workspace)
        solves.append((p, report.solution, workspace.duals["a"].copy()))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "dr_solve", recording)
        rhc.simulate(compiled, x0, steps, cfg(tol=tol, max_iter=5000))
    return solves


def certified_gaps(steps, bound):
    """||u - u*|| / bound per step, u* the certified solution on the support
    of the step's last step-(a) duals (None where it does not certify)."""
    gaps = []
    for p, u, lam in steps:
        exact = kkt_certify(p.M, p.q, p.C.D, p.C.d, np.flatnonzero(lam > 0.0))
        gaps.append(None if exact is None else np.linalg.norm(u - exact) / bound)
    return gaps


def assert_near_certified(M, steps, tol):
    """Each DR step lies within (1 + L)/mu tol of the exact VI solution, the
    error bound of a strongly monotone AVI whose natural residual is tol;
    kkt_certify certifies that solution from the support of the last
    step-(a) duals. An answer moved by 1.1 times the bound fails the check."""
    mu = np.linalg.eigvalsh((M + M.T) / 2.0)[0]
    bound = (1.0 + np.linalg.norm(M, 2)) / mu * tol
    gaps = certified_gaps(steps, bound)
    assert None not in gaps
    assert max(gaps) <= 1.0
    d = np.random.default_rng(5).normal(size=M.shape[0])
    moved = [(p, u + 1.1 * bound * d / np.linalg.norm(d), lam)
             for p, u, lam in steps]
    assert min(certified_gaps(moved, bound)) > 1.0


def test_crossroad_dr_steps_near_certified_solution(crossroad15):
    spec, _, c = crossroad15
    tol = 1e-3
    steps = crossroad_dr_steps(c, scenario.default_initial_state(spec), tol)
    assert len(steps) == 54
    assert_near_certified(c.M_ol, steps, tol)


def test_nonsymmetric_crossroad_dr_steps_near_certified_solution(crossroad15):
    """The same certificate where the splitting is not trivial: Q_i = I + E_i,
    E_i the identity on vehicle i's own state block, makes each P_i and so M
    nonsymmetric. The first 120 steps hold 100 DR solves."""
    spec, g, _ = crossroad15
    dims, off = scenario._state_layout(spec)
    Q = []
    for i in range(g.N):
        own = np.zeros(g.n)
        own[off[i]:off[i] + dims[i]] = 1.0
        Q.append(np.eye(g.n) + np.diag(own))
    c = G.compile_vi(G.LqGame.from_stage_constraints(**{**g.source, "Q": Q}))
    M = c.M_ol
    assert np.linalg.norm((M - M.T) / 2.0, 2) > 1.0
    tol = 1e-3
    steps = crossroad_dr_steps(c, scenario.default_initial_state(spec), tol,
                               steps=120)
    assert len(steps) == 100
    assert_near_certified(M, steps, tol)


def test_crossroad_terminal_set_matches_rollout_oracle(crossroad15, crossroad15_run):
    _, _, c = crossroad15
    trace, _ = crossroad15_run
    oracle = terminal_set_rollout(c.game, c.riccati.K_ol, c.riccati.A_cl)
    assert [G.in_terminal_set(c, x) for x in trace.states] == [
        oracle(x) for x in trace.states]


def test_initial_warm_start_drops_uncertified_projection(crossroad4, monkeypatch):
    # the feedback rollout violates the 4-vehicle crossroad's constraints at
    # its start, so the warm start is its projection; a projection that
    # misses its KKT tolerance is not used, the rollout is
    spec, g, c = crossroad4
    x = scenario.default_initial_state(spec)
    rollout = G.unconstrained_ne_sequence(c, x)
    C = c.polyhedron_at(x)
    assert not C.contains(rollout, tol=1e-12)
    ws = DrWorkspace(c.splitting, c.D)
    projected = rhc._initial_warm_start(c, x, ws)
    assert C.contains(projected, tol=1e-9)
    degrade_projections(monkeypatch, ws)
    assert np.array_equal(rhc._initial_warm_start(c, x, ws), rollout)


def test_simulate_margins_one_array(small_game2):
    g, c = small_game2
    x0 = 0.5 * np.random.default_rng(13).normal(size=g.n)
    trace = rhc.simulate(c, x0, 9, cfg())
    rows = g.Ex.shape[0] + g.Dx.shape[0]
    assert isinstance(trace.constraint_margins, np.ndarray)
    assert trace.constraint_margins.shape == (9, rows)
    assert trace.min_margin() == np.min(trace.constraint_margins)
    one = np.array([[1.0]])
    free = G.compile_vi(G.LqGame(0.5 * one, [one], [one], [one], T=2))
    trace = rhc.simulate(free, np.array([1.0]), 3, cfg())
    assert trace.constraint_margins.shape == (3, 0)
    assert trace.min_margin() == np.inf


def test_simulate_infeasible_reports_step_index():
    one = np.array([[1.0]])
    # becomes infeasible once the state drifts past the reachable band
    g = G.LqGame.from_stage_constraints(
        1.2 * one, [one], [one], [one], T=2,
        Du=[np.array([[1.0], [-1.0]])], du=np.array([-0.05, -0.05]),
        Dx=np.array([[1.0]]), dx=np.array([-1.2]))
    c = G.compile_vi(g)
    with pytest.raises(Infeasible) as err:
        rhc.simulate(c, np.array([1.15]), 50, cfg())
    assert "step" in str(err.value)


def test_simulate_overflowing_rollout_names_step_zero():
    """The feedback rollout from a huge start overflows: simulate names step
    0 and the rollout, not a warm start the caller never passed."""
    g = G.LqGame.from_stage_constraints([[1.5]], [[[1e-150]]], [[[1.0]]],
                                        [[[1e-300]]], 3)
    c = G.compile_vi(g)
    with pytest.raises(NonFiniteData, match="step 0") as err:
        rhc.simulate(c, [1e200], 4)
    assert "warm start" not in str(err.value)


def test_simulate_non_finite_state_names_its_step(small_game2, monkeypatch):
    """A step whose input has overflowed raises NonFiniteData
    naming that step, so no trace holds a non-finite state."""
    g, c = small_game2
    step = rhc.rhc_step
    steps = []

    def overflowing(compiled, x, *args):
        u0, report = step(compiled, x, *args)
        steps.append(len(steps))
        return (np.full_like(u0, np.inf) if len(steps) == 3 else u0), report

    monkeypatch.setattr(rhc, "rhc_step", overflowing)
    x0 = 0.5 * np.random.default_rng(13).normal(size=g.n)
    with pytest.raises(NonFiniteData, match="after step 2"):
        rhc.simulate(c, x0, 9, cfg())
    assert steps == [0, 1, 2]


def test_trace_json_round_trip(tmp_path, small_game2):
    g, c = small_game2
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=g.n) * 0.3
    trace = rhc.simulate(c, x0, 12, cfg())
    path = tmp_path / "trace.json"
    rhc.write_trace_json(trace, path)
    back = rhc.read_trace_json(path)
    assert np.array_equal(back.states, trace.states)
    assert np.array_equal(back.inputs, trace.inputs)
    assert back.solver_iterations == trace.solver_iterations
    assert back.residual_at_termination == trace.residual_at_termination
    assert isinstance(back.constraint_margins, np.ndarray)
    assert np.array_equal(back.constraint_margins, trace.constraint_margins)


def _edit_trace(payload, edit):
    """Apply one named corruption to a written trace payload."""
    steps = payload["steps"]
    if edit == "truncated":
        return json.dumps(payload)[:-5]
    if edit == "empty":
        payload["steps"] = []
    elif edit == "ragged-x":
        steps[1]["x"] = steps[1]["x"][:-1]
    elif edit == "missing-field":
        del steps[1]["margins"]
    elif edit == "no-final-state":
        del payload["final_state"]
    elif edit == "nan-state":
        steps[1]["x"][0] = float("nan")
    elif edit == "inf-residual":
        steps[1]["residual"] = float("inf")
    return json.dumps(payload)


@pytest.mark.parametrize("edit, error", [
    ("truncated", SpecError), ("empty", SpecError), ("ragged-x", SpecError),
    ("missing-field", SpecError), ("no-final-state", SpecError),
    ("nan-state", NonFiniteData), ("inf-residual", NonFiniteData)])
def test_read_trace_json_rejects_malformed_file(tmp_path, small_game2, edit,
                                                error):
    g, c = small_game2
    path = tmp_path / "trace.json"
    rhc.write_trace_json(rhc.simulate(c, np.zeros(g.n), 3, cfg()), path)
    path.write_text(_edit_trace(json.loads(path.read_text()), edit))
    with pytest.raises(error, match="trace.json"):
        rhc.read_trace_json(path)


def test_iterations_csv_format(tmp_path, small_game2):
    g, c = small_game2
    trace = rhc.simulate(c, np.zeros(g.n), 5, cfg())
    path = tmp_path / "iters.csv"
    rhc.write_iterations_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,iterations"
    assert len(lines) == 6
    assert lines[1].startswith("0,")
