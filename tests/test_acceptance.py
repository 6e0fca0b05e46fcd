"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criteria that reference the published experiment are qualitative
(orderings and regimes), the rest are quantitative with explicit bounds.
"""

import time

import numpy as np
import pytest

from gamevi import game as G
from gamevi import rhc, solvers
from gamevi.avi import natural_residual, project
from gamevi.errors import InvalidSplitting
from gamevi.scenario import random_avi
from gamevi.solvers import (ALGORITHMS, SolverConfig, dr_solve,
                            make_dr_splitting, solve)

from oracles import finite_diff_gradient, kkt_enumerate, loglinear_fit, simulate_states

PASS = "ACCEPTANCE {}: PASS - {}"


# --------------------------------------------------------------------------
# shared benchmark suite for criteria 2-4 (n=100, m=20 instances)

def suite_config(algo):
    return SolverConfig(tol=1e-7, max_iter=1500 if algo == "pgd" else 8000)


@pytest.fixture(scope="module")
def bench_suite():
    instances = [random_avi(100, 20, seed=(1234, i)) for i in range(10)]
    reports = {}
    t0 = time.perf_counter()
    for i, p in enumerate(instances):
        for algo in ALGORITHMS:
            reports[(i, algo)] = solve(p, algo, suite_config(algo))
    elapsed = time.perf_counter() - t0
    return instances, reports, elapsed


def test_criterion_1_dr_matches_kkt_oracle():
    """DR vs brute-force active-set enumeration on 20 small instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        p = random_avi(n, m, seed=(9000, i))
        rep = dr_solve(p, cfg=SolverConfig(tol=1e-8, max_iter=5000, qp_tol=1e-11))
        assert rep.converged
        u_oracle = kkt_enumerate(p.M, p.q, p.C.D, p.C.d)
        assert u_oracle is not None
        err = float(np.max(np.abs(rep.solution - u_oracle)))
        worst = max(worst, err)
        assert err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(PASS.format(1, f"20 instances, worst |dr - oracle| = {worst:.2e}, "
                         f"{elapsed:.1f}s"))


def test_criterion_2_cross_solver_agreement(bench_suite):
    """Converged algorithms agree pairwise within 1e-4; every converged run
    certifies a natural residual <= 1e-3; suite under 60 s."""
    instances, reports, elapsed = bench_suite
    worst_pair = 0.0
    n_converged = 0
    for i, p in enumerate(instances):
        sols = {}
        for algo in ALGORITHMS:
            rep = reports[(i, algo)]
            if rep.converged:
                n_converged += 1
                assert natural_residual(p, rep.solution) <= 1e-3
                sols[algo] = rep.solution
        assert len(sols) >= 2
        names = sorted(sols)
        for a in names:
            for b in names:
                worst_pair = max(worst_pair,
                                 float(np.max(np.abs(sols[a] - sols[b]))))
        assert worst_pair <= 1e-4
    assert elapsed < 60.0
    print(PASS.format(2, f"{n_converged} converged runs, worst pairwise "
                         f"{worst_pair:.2e}, suite {elapsed:.1f}s"))


def test_criterion_3_dr_beats_pgd_iterations(bench_suite):
    """DR reaches tolerance in strictly fewer iterations than PGD on >= 8/10
    (qualitative ordering; exact published curves are not reproducible)."""
    instances, reports, _ = bench_suite
    wins = 0
    for i in range(len(instances)):
        dr = reports[(i, "dr")]
        pgd = reports[(i, "pgd")]
        assert dr.converged
        # a PGD run that hit its cap needed at least that many iterations
        if dr.iterations < pgd.iterations:
            wins += 1
    assert wins >= 8
    print(PASS.format(3, f"DR beat PGD on {wins}/10 instances"))


def test_criterion_4_dr_linear_convergence(bench_suite, monkeypatch):
    """Log-residual tail fit: negative slope with R^2 >= 0.9 on >= 9/10.

    The suite's DR traces hold row-violation lower bounds wherever those
    exceed tol. Each instance is solved again with the bound forced to 0,
    so that every entry is the exact natural residual; the iterates never
    read the residual QP, so the run must end at the suite's iteration
    with the suite's solution, and its exact tail is the one fitted."""
    instances, reports, _ = bench_suite
    monkeypatch.setattr(solvers._Run, "residual_bound", lambda run, u: 0.0)
    good = 0
    slopes, fits = [], []
    for i, p in enumerate(instances):
        suite = reports[(i, "dr")]
        exact = dr_solve(p, suite_config("dr"))
        assert suite.lower_bound is not None and exact.lower_bound is None
        assert exact.iterations == suite.iterations
        assert np.array_equal(exact.solution, suite.solution)
        res = exact.residuals
        tail = res[len(res) // 2:]
        slope, r2 = loglinear_fit(tail)
        slopes.append(slope)
        fits.append(r2)
        if slope < 0 and r2 >= 0.9:
            good += 1
    assert good >= 9
    print(PASS.format(4, f"{good}/10 exact tails log-linear, median slope "
                         f"{np.median(slopes):.3f}, min R^2 {min(fits):.4f}"))


def test_criterion_5_riccati_correctness():
    """Scalar reduction hits the golden ratio; random 2-agent games satisfy
    both coupled equations to 1e-8 with a stable closed loop."""
    one = np.array([[1.0]])
    g1 = G.LqGame(one, [one], [one], [one], T=2)
    r1 = G.solve_coupled_riccati(g1, tol=1e-14)
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(r1.P_ol[0][0, 0] - phi) <= 1e-9
    rng = np.random.default_rng(555)
    worst_res, worst_rho = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        A = 0.9 * A / max(abs(np.linalg.eigvals(A)))
        B = [rng.normal(size=(n, int(rng.integers(1, 3)))) for _ in range(2)]
        Q = []
        for _ in range(2):
            C = rng.normal(size=(n, n))
            Q.append(C.T @ C / n)
        R = [np.eye(b.shape[1]) * (1.0 + rng.uniform()) for b in B]
        g = G.LqGame(A, B, Q, R, T=2)
        r = G.solve_coupled_riccati(g, tol=1e-12)
        worst_res = max(worst_res, max(r.residuals))
        worst_rho = max(worst_rho, r.spectral_radius)
        assert max(r.residuals) <= 1e-8
        assert r.spectral_radius < 1.0
    print(PASS.format(5, f"scalar P = golden ratio; worst residual "
                         f"{worst_res:.2e}, worst rho {worst_rho:.3f}"))


def _sample_terminal_states(compiled, count, seed):
    rng = np.random.default_rng(seed)
    n = compiled.game.n
    states = []
    while len(states) < count:
        x = rng.normal(size=n) * 0.3
        for _ in range(30):
            if G.in_terminal_set(compiled, x):
                states.append(x)
                break
            x = 0.5 * x
    return states


def test_criterion_6_closed_form_inside_terminal_set(crossroad4):
    """Inside the terminal set the AVI solution is the feedback stack, and a
    warm-started receding-horizon step converges in a single iteration."""
    _, g, c = crossroad4
    worst = 0.0
    for x in _sample_terminal_states(c, 20, seed=31):
        p = c.avi_at(x)
        rep = dr_solve(p, SolverConfig(tol=1e-9, max_iter=3000,
                                       qp_tol=1e-11))
        assert rep.converged
        u_k = G.unconstrained_ne_sequence(c, x)
        err = float(np.max(np.abs(rep.solution - u_k)))
        worst = max(worst, err)
        assert err <= 1e-6
        _, report = rhc.rhc_step(c, x, u_k, SolverConfig(tol=1e-3))
        assert report.iterations == 1
    print(PASS.format(6, f"20 states, worst |avi - feedback stack| = {worst:.2e}, "
                         f"all warm steps took 1 iteration"))


def test_criterion_7_best_response_necessary_condition(crossroad4):
    """At the converged VI solution no agent's exact best response deviates
    from its own block by more than 1e-5."""
    spec, g, c = crossroad4
    from gamevi.scenario import default_initial_state
    base = default_initial_state(spec)
    rng = np.random.default_rng(77)
    worst = 0.0
    for k, scale in enumerate((1.0, 0.75, 0.5, 0.25, 0.1)):
        x0 = scale * base + 0.2 * rng.normal(size=g.n)
        p = c.avi_at(x0)
        rep = dr_solve(p, SolverConfig(tol=1e-9, max_iter=3000,
                                       qp_tol=1e-11))
        assert rep.converged
        for i in range(g.N):
            br = G.best_response(c, x0, i, rep.solution, tol=1e-10)
            dev = float(np.max(np.abs(br - rep.solution[g.agent_slice(i)])))
            worst = max(worst, dev)
            assert dev <= 1e-5
    print(PASS.format(7, f"5 states x {g.N} agents, worst deviation {worst:.2e}"))


def own_block_deviation(c, x0, u, i):
    """The largest entry by which agent i's exact best response to the
    profile u moves off agent i's own block of u."""
    sl = c.game.agent_slice(i)
    return float(np.max(np.abs(G.best_response(c, x0, i, u, tol=1e-10) - u[sl])))


def test_criterion_7_best_response_nonsymmetric_crossroad(crossroad4):
    """Criterion 7 where the VI matrix is nonsymmetric: Q_i = I + E_i, E_i
    the identity on vehicle i's own state block, rebuilt from g.source. Each
    agent's best response lies within 1e-5 of its own block at the solution.
    A perturbed answer fails the same check: agent i's block moved by ~1e-3
    (which leaves agent i's constraints as they were) is not its best
    response."""
    spec, g, _ = crossroad4
    from gamevi.scenario import _state_layout, default_initial_state
    dims, off = _state_layout(spec)
    Q = []
    for i in range(g.N):
        own = np.zeros(g.n)
        own[off[i]:off[i] + dims[i]] = 1.0
        Q.append(np.eye(g.n) + np.diag(own))
    c = G.compile_vi(G.LqGame.from_stage_constraints(**{**g.source, "Q": Q}))
    assert np.linalg.norm((c.M_ol - c.M_ol.T) / 2.0, 2) > 1.0
    base = default_initial_state(spec)
    rng = np.random.default_rng(78)
    worst = 0.0
    for k, scale in enumerate((1.0, 0.75, 0.5, 0.25, 0.1)):
        x0 = scale * base + 0.2 * rng.normal(size=g.n)
        rep = dr_solve(c.avi_at(x0), SolverConfig(tol=1e-9, max_iter=3000,
                                                  qp_tol=1e-11))
        assert rep.converged
        for i in range(g.N):
            dev = own_block_deviation(c, x0, rep.solution, i)
            worst = max(worst, dev)
            assert dev <= 1e-5
        i = k % g.N
        perturbed = rep.solution.copy()
        perturbed[g.agent_slice(i)] += 1e-3 * rng.normal(size=g.m[i] * g.T)
        assert own_block_deviation(c, x0, perturbed, i) > 1e-5
    print(PASS.format(7, f"nonsymmetric crossroad, 5 states x {g.N} agents, "
                         f"worst deviation {worst:.2e}"))


def test_criterion_8_closed_loop_behavior(crossroad4):
    """300-step closed loop: constraint margins stay nonnegative (to working
    precision), the state is driven below 1e-2, and the final 50 steps all
    converge in a single iteration."""
    spec, g, c = crossroad4
    from gamevi.scenario import default_initial_state
    x0 = default_initial_state(spec)
    trace = rhc.simulate(c, x0, 300, SolverConfig(tol=1e-3, max_iter=5000))
    assert all(s == "converged" for s in trace.statuses)
    min_margin = trace.min_margin()
    assert min_margin >= -1e-9  # zero at double precision
    final_norm = float(np.linalg.norm(trace.states[-1]))
    assert final_norm < 1e-2
    assert all(it == 1 for it in trace.solver_iterations[-50:])
    print(PASS.format(8, f"min margin {min_margin:.2e}, final state norm "
                         f"{final_norm:.2e}, tail iterations all 1"))


def test_criterion_9_gradient_identity(crossroad4):
    """Finite-difference objective gradients match the VI operator blocks to
    1e-5 relative error at 50 random feasible points."""
    spec, g, c = crossroad4
    from gamevi.scenario import default_initial_state
    rng = np.random.default_rng(99)
    x0 = 0.5 * default_initial_state(spec)
    C = c.polyhedron_at(x0)
    T, n = g.T, g.n

    def J(i, v_i, u_all):
        blocks = g.split_input(u_all)
        mine = v_i.reshape(T, g.m[i])
        blocks_i = [mine if j == i else blocks[j] for j in range(g.N)]
        xs = simulate_states(g.A, g.B, x0, blocks_i)
        xs_all = simulate_states(g.A, g.B, x0, blocks)
        cost = 0.0
        for t in range(T):
            cost += 0.5 * xs[t] @ g.Q[i] @ xs[t] + 0.5 * mine[t] @ g.R[i] @ mine[t]
        z = np.concatenate([xs[T], xs_all[T]])
        return cost + 0.5 * z @ c.augmented.P_hat[i] @ z

    worst = 0.0
    for _ in range(50):
        u = project(C, rng.normal(size=g.input_dim) * 1.5)
        F = c.M_ol @ u + c.q_of(x0)
        i = int(rng.integers(0, g.N))
        sl = g.agent_slice(i)
        grad = finite_diff_gradient(lambda v: J(i, v, u), u[sl].copy())
        rel = float(np.max(np.abs(grad - F[sl]))) / max(1.0, float(np.max(np.abs(F[sl]))))
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(PASS.format(9, f"50 feasible points, worst relative gradient error "
                         f"{worst:.2e}"))


def test_criterion_10_splitting_algebra(crossroad4):
    """Exact M1 + M2 = M, symmetric M1, skew M2 - M1 (to 1e-12); skew
    matrices are rejected outright."""
    _, _, c = crossroad4
    mats = [random_avi(100, 20, seed=(1234, i)).M for i in range(10)]
    mats.append(c.M_ol)
    for M in mats:
        s = make_dr_splitting(M)
        assert np.array_equal(s.M1 + s.M2, M)
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(s.M1 - s.M1.T)) <= 1e-12 * scale
        skew = s.M2 - s.M1
        assert np.max(np.abs(skew + skew.T)) <= 1e-12 * scale
    with pytest.raises(InvalidSplitting):
        make_dr_splitting(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    print(PASS.format(10, f"{len(mats)} matrices: exact sum, symmetric M1, "
                          f"skew M2 - M1; skew M rejected"))
