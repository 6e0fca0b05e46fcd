import json
import time

import numpy as np
import pytest
import scipy.linalg

from gamevi import game as G, scenario
from gamevi.avi import (AviProblem, Polyhedron, monotonicity_constants,
                        natural_residual)
from gamevi.errors import (DimensionMismatch, InvalidSplitting, NoConvergence,
                           NonFiniteData, SpecError)
from gamevi.solvers import SolverConfig, dr_solve, make_dr_splitting

from oracles import (dense_vi_assembly, feedback_rollout, finite_diff_gradient,
                     power_norms, simulate_states, stagewise_feasible,
                     terminal_set_rollout)

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_game(T=3):
    one = np.array([[1.0]])
    return G.LqGame(one, [one], [one], [one], T=T)


def random_stable_game(rng, n=3, N=2, T=4, r_scale=4.0):
    A = rng.normal(size=(n, n))
    A = 0.85 * A / max(abs(np.linalg.eigvals(A)))
    B = [rng.normal(size=(n, rng.integers(1, 3))) for _ in range(N)]
    Q = []
    for _ in range(N):
        C = rng.normal(size=(n, n))
        Q.append(C.T @ C / n)
    R = [r_scale * np.eye(b.shape[1]) for b in B]
    return G.LqGame(A, B, Q, R, T=T)


@pytest.mark.parametrize("A, B, T", [
    (np.zeros((2, 3)), np.zeros((2, 1)), 2),   # non-square A
    (np.eye(2), np.zeros((3, 1)), 2),          # B height differs from n
    (np.eye(2), np.zeros((2, 1)), 0),          # empty horizon
], ids=["A-not-square", "B-height", "T-zero"])
def test_lq_game_rejects_shapes_the_predictors_need(A, B, T):
    """build_theta and build_gamma rely on these checks at the game boundary."""
    with pytest.raises(DimensionMismatch):
        G.LqGame(A, [B], [np.eye(2)], [np.eye(1)], T=T)


def test_lq_game_rejects_non_finite_data():
    one = [[1.0]]
    parts = {"A": one, "B": [one], "Q": [one], "R": [one], "Ex": one,
             "Eu": [one], "e": [-1.0], "Dx": one, "dx": [-1.0]}
    G.LqGame(T=2, **parts)
    for key, value in parts.items():
        for bad in (np.nan, np.inf):
            broken = dict(parts, **{key: np.full(np.shape(value), bad)})
            with pytest.raises(NonFiniteData):
                G.LqGame(T=2, **broken)
    with pytest.raises(NonFiniteData):
        G.LqGame.from_stage_constraints(one, [one], [one], [one], T=2,
                                        Du=[one], du=[np.inf])


# -------------------------------------------------- prediction and blocks

def test_kron_identity_times_scalar():
    assert np.array_equal(G.kron(np.eye(2), np.array([[5.0]])), np.diag([5.0, 5.0]))


def test_kron_scalar_identity_factor():
    B = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(G.kron(np.eye(1), B), B)


def test_kron_expansion_by_definition():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = G.kron(a, np.eye(2))
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            expected[2 * i:2 * i + 2, 2 * j:2 * j + 2] = a[i, j] * np.eye(2)
    assert np.array_equal(out, expected)


def test_kron_of_identities_is_identity():
    assert np.array_equal(G.kron(np.eye(3), np.eye(4)), np.eye(12))


def test_blkdg_single_block():
    assert np.array_equal(G.blkdg([np.eye(2)]), np.eye(2))


def test_blkdg_rectangular_fill():
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([[7.0]])
    out = G.blkdg([a, b])
    assert out.shape == (3, 4)
    assert np.array_equal(out[:2, :3], a)
    assert out[2, 3] == 7.0
    assert np.count_nonzero(out) == np.count_nonzero(a) + 1


def test_blkdg_of_identities_is_identity():
    assert np.array_equal(G.blkdg([np.eye(2), np.eye(3), np.eye(1)]), np.eye(6))


def test_blkdg_accepts_list_argument():
    assert np.array_equal(G.blkdg([np.eye(1), np.eye(1)]), np.eye(2))


def test_build_theta_scalar_powers():
    out = G.build_theta(np.array([[2.0]]), 3)
    assert np.array_equal(out, [[2.0], [4.0], [8.0]])


def test_build_theta_identity():
    out = G.build_theta(np.eye(3), 4)
    assert np.array_equal(out, np.vstack([np.eye(3)] * 4))


def test_build_theta_double_integrator():
    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    out = G.build_theta(a, 2)
    assert np.allclose(out[:2], a)
    assert np.allclose(out[2:], [[1.0, 0.2], [0.0, 1.0]])


def test_build_gamma_scalar_rollout():
    one = np.array([[1.0]])
    assert np.array_equal(G.build_gamma(one, one, 2), [[1.0, 0.0], [1.0, 1.0]])


def test_build_gamma_zero_input_matrix():
    out = G.build_gamma(np.eye(2), np.zeros((2, 1)), 3)
    assert np.array_equal(out, np.zeros((6, 3)))


def test_build_gamma_scalar_powers():
    out = G.build_gamma(np.array([[2.0]]), np.array([[1.0]]), 3)
    assert np.array_equal(out, [[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [4.0, 2.0, 1.0]])


def test_build_gamma_toeplitz_structure():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    T = 5
    out = G.build_gamma(a, b, T)
    first_col = out[:, :2]
    for c in range(T):
        block = out[:, 2 * c:2 * (c + 1)]
        assert np.array_equal(block[3 * c:], first_col[:3 * (T - c)])
        assert np.array_equal(block[:3 * c], np.zeros((3 * c, 2)))


def test_rollout_identity_random_systems():
    """col(x[1..T]) must equal Theta x0 + sum_i Gamma_i u_i on simulations."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 4)
        N = rng.integers(1, 4)
        T = rng.integers(1, 6)
        a = rng.normal(size=(n, n))
        bs = [rng.normal(size=(n, rng.integers(1, 3))) for _ in range(N)]
        x0 = rng.normal(size=n)
        u_blocks = [rng.normal(size=(T, b.shape[1])) for b in bs]
        xs = simulate_states(a, bs, x0, u_blocks)
        stacked = G.build_theta(a, T) @ x0
        for b, u in zip(bs, u_blocks):
            stacked = stacked + G.build_gamma(a, b, T) @ u.ravel()
        assert np.allclose(stacked, xs[1:].ravel(), atol=1e-12, rtol=1e-12)


# ------------------------------------------------------------ coupled ARE

def test_coupled_riccati_scalar_golden_ratio():
    r = G.solve_coupled_riccati(scalar_game(), tol=1e-13)
    assert r.P_ol[0][0, 0] == pytest.approx(PHI, abs=1e-9)
    assert r.K_ol[0][0, 0] == pytest.approx(-PHI / (1.0 + PHI), abs=1e-9)
    assert r.spectral_radius < 1.0


def test_coupled_riccati_zero_cost():
    one = np.array([[1.0]])
    g = G.LqGame(0.5 * one, [one], [np.zeros((1, 1))], [one], T=2)
    r = G.solve_coupled_riccati(g)
    assert np.allclose(r.P_ol[0], 0.0)
    assert np.allclose(r.K_ol[0], 0.0)


def test_coupled_riccati_random_two_agent_properties():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_stable_game(rng)
        r = G.solve_coupled_riccati(g, tol=1e-12)
        assert max(r.residuals) <= 1e-8
        assert r.spectral_radius < 1.0
        # substituting back into both coupled equations
        for i in range(g.N):
            lhs_p = r.P_ol[i]
            rhs_p = g.Q[i] + g.A.T @ r.P_ol[i] @ r.A_cl
            assert np.allclose(lhs_p, rhs_p, atol=1e-8)
            lhs_k = r.K_ol[i]
            rhs_k = -np.linalg.solve(g.R[i], g.B[i].T @ r.P_ol[i] @ r.A_cl)
            assert np.allclose(lhs_k, rhs_k, atol=1e-8)


def test_coupled_riccati_unstabilizable_diverges():
    # A = 2 with no control authority on the unstable mode
    g = G.LqGame([[2.0]], [[[0.0]]], [[[1.0]]], [[[1.0]]], T=2)
    with pytest.raises(NoConvergence):
        G.solve_coupled_riccati(g, max_iter=200)


def test_singular_input_weight_raises():
    # agent 1's R = 0: no solve of R_i^{-1} B_i' exists
    one = [[1.0]]
    g = G.LqGame([[0.5]], [one, one], [one, one], [one, [[0.0]]], T=2)
    with pytest.raises(NoConvergence, match=r"R\[1\] is singular"):
        G.solve_coupled_riccati(g)
    with pytest.raises(NoConvergence, match="R is singular"):
        G.solve_are([[0.5]], [[1.0]], [[1.0]], [[0.0]])


def test_coupled_riccati_unequal_input_widths():
    """Agents with m_i = 1 and m_i = 2 (non-diagonal R) exercise the
    block-diagonal R_i^{-1} B_i' stacking of the sweep."""
    rng = np.random.default_rng(7)
    n = 4
    A = rng.normal(size=(n, n))
    A = 0.9 * A / max(abs(np.linalg.eigvals(A)))
    B = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    Q = [np.eye(n), 0.5 * np.eye(n) + 0.1 * np.ones((n, n))]
    R = [np.array([[2.0]]), np.array([[1.5, 0.4], [0.4, 1.0]])]
    g = G.LqGame(A, B, Q, R, T=3)
    r = G.solve_coupled_riccati(g, tol=1e-12)
    assert [k.shape for k in r.K_ol] == [(1, n), (2, n)]
    A_cl = A + B[0] @ r.K_ol[0] + B[1] @ r.K_ol[1]
    assert np.allclose(r.A_cl, A_cl, atol=1e-14)
    assert r.spectral_radius < 1.0
    for i in range(2):
        res_p = r.P_ol[i] - (Q[i] + A.T @ r.P_ol[i] @ A_cl)
        res_k = r.K_ol[i] + np.linalg.solve(R[i], B[i].T @ r.P_ol[i] @ A_cl)
        assert np.max(np.abs(res_p)) <= 1e-9
        assert np.max(np.abs(res_k)) <= 1e-9
        assert r.residuals[i] <= 1e-9


@pytest.mark.parametrize("fixture", ["crossroad4", "crossroad15"])
def test_potential_game_riccati_starts_at_the_team_dare(fixture, request):
    # every Q_i = I: the team DARE solution passes the first sweep's check
    r = request.getfixturevalue(fixture)[-1].riccati
    assert r.iterations == 1
    assert all(np.array_equal(p, r.P_ol[0]) for p in r.P_ol)
    scale = 1.0 + max(np.max(np.abs(p)) for p in r.P_ol)
    assert max(r.residuals) <= 1e-12 * scale
    assert r.spectral_radius < 1.0


def crossroad_with_state_weights(vehicles, weights):
    """The default crossroad's first vehicles with Q_i = weights(spec, g, i)."""
    spec = scenario.default_15_vehicle_spec().prefix(vehicles)
    g = scenario.build_crossroad(spec, horizon=10)
    Q = [weights(spec, g, i) for i in range(g.N)]
    return G.LqGame.from_stage_constraints(**{**g.source, "Q": Q})


def own_block_weight(spec, g, i):
    # Q_i = I + E_i, E_i the identity on vehicle i's own state block
    dims, off = scenario._state_layout(spec)
    own = np.zeros(g.n)
    own[off[i]:off[i] + dims[i]] = 1.0
    return np.eye(g.n) + np.diag(own)


def one_entry_weight(spec, g, i):
    q = np.eye(g.n)
    q[0, 0] += 1e-3 if i == 2 else 0.0
    return q


def asymmetric_common_weight(spec, g, i):
    q = np.eye(g.n)
    q[0, 1] = 1e-3
    return q


@pytest.mark.parametrize("vehicles, weights, sweeps", [
    (15, own_block_weight, 484),
    (4, one_entry_weight, 197),
    (4, asymmetric_common_weight, 197),
])
def test_riccati_keeps_the_state_weight_start(vehicles, weights, sweeps):
    # unequal or asymmetric Q_i: the sweep starts from P_i = Q_i
    r = G.solve_coupled_riccati(crossroad_with_state_weights(vehicles, weights))
    assert r.iterations == sweeps
    assert max(r.residuals) <= 1e-8 and r.spectral_radius < 1.0


def test_potential_game_singular_input_weight_names_it(crossroad4):
    _, g, _ = crossroad4
    g = G.LqGame(g.A, g.B, g.Q, [g.R[0], np.zeros_like(g.R[1]), *g.R[2:]], g.T)
    with pytest.raises(NoConvergence, match=r"R\[1\] is singular"):
        G.solve_coupled_riccati(g)


# -------------------------------------------------------- augmented system

def test_build_augmented_single_agent_layout():
    g = scalar_game()
    r = G.solve_coupled_riccati(g)
    (A_hat, B_hat, Q_hat), = G.build_augmented(g, r)
    assert np.allclose(A_hat, G.blkdg([g.A, r.A_cl]))
    assert A_hat[0, 1] == 0.0
    assert np.allclose(B_hat, [[1.0], [0.0]])
    assert np.allclose(Q_hat, G.blkdg([g.Q[0], np.zeros((1, 1))]))


def test_build_augmented_zero_gains():
    one = np.array([[1.0]])
    g = G.LqGame(0.5 * one, [one], [np.zeros((1, 1))], [one], T=2)
    r = G.solve_coupled_riccati(g)
    (A_hat, _, _), = G.build_augmented(g, r)
    assert np.allclose(A_hat, G.blkdg([g.A, g.A]))


def test_build_augmented_two_agent_block_placement():
    rng = np.random.default_rng(2)
    g = random_stable_game(rng, n=2, N=2, T=2)
    r = G.solve_coupled_riccati(g)
    parts = G.build_augmented(g, r)
    for i, (A_hat, B_hat, Q_hat) in enumerate(parts):
        j = 1 - i
        assert np.allclose(A_hat[:2, :2], g.A)
        assert np.allclose(A_hat[:2, 2:], g.B[j] @ r.K_ol[j])
        assert np.allclose(A_hat[2:, :2], 0.0)
        assert np.allclose(A_hat[2:, 2:], r.A_cl)
        assert np.allclose(B_hat[:2], g.B[i])
        assert np.allclose(B_hat[2:], 0.0)


def test_solve_are_scalar_golden_ratio():
    one = np.array([[1.0]])
    P, K = G.solve_are(one, one, one, one, tol=1e-14)
    assert P[0, 0] == pytest.approx(PHI, abs=1e-9)


def test_solve_are_zero_cost():
    one = np.array([[1.0]])
    P, K = G.solve_are(0.5 * one, one, np.zeros((1, 1)), one)
    assert np.allclose(P, 0.0)
    assert np.allclose(K, 0.0)


def test_solve_are_residual_by_substitution():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) * 0.4
    B = rng.normal(size=(3, 2))
    Cq = rng.normal(size=(3, 3))
    Q = Cq.T @ Cq
    R = np.eye(2)
    P, K = G.solve_are(A, B, Q, R, tol=1e-13)
    res = P - (Q + A.T @ P @ (A + B @ K))
    assert np.max(np.abs(res)) <= 1e-8
    res_k = K + np.linalg.solve(R, B.T @ P @ (A + B @ K))
    assert np.max(np.abs(res_k)) <= 1e-8
    assert np.allclose(P, P.T)
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-10


def test_solve_are_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        A = rng.normal(size=(n, n)) * 0.7     # typically open-loop unstable
        B = rng.normal(size=(n, m))
        Cq = rng.normal(size=(n, n))
        Q = Cq.T @ Cq + 0.1 * np.eye(n)
        Cr = rng.normal(size=(m, m))
        R = Cr.T @ Cr + np.eye(m)
        P, K = G.solve_are(A, B, Q, R)
        P_ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
        assert np.max(np.abs(P - P_ref)) <= 1e-9 * np.max(np.abs(P_ref))
        K_ref = -np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        assert np.max(np.abs(K - K_ref)) <= 1e-9 * (1.0 + np.max(np.abs(K_ref)))


def test_solve_are_unstabilizable_raises_quickly():
    # A = 2 with no control authority: the doubling iterates overflow
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match="diverged"):
        G.solve_are([[2.0]], [[0.0]], [[1.0]], [[1.0]])
    assert time.perf_counter() - t0 < 1.0


def test_terminal_weight_identity():
    """P_i = Phat_11 + Phat_12: the augmented cost-to-go reproduces the
    coupled-ARE matrix (this is what makes the VI terminal block correct)."""
    rng = np.random.default_rng(4)
    g = random_stable_game(rng)
    r = G.solve_coupled_riccati(g, tol=1e-13)
    n = g.n
    for i, (A_hat, B_hat, Q_hat) in enumerate(G.build_augmented(g, r)):
        Ph, _ = G.solve_are(A_hat, B_hat, Q_hat, g.R[i], tol=1e-13)
        err = np.max(np.abs(r.P_ol[i] - (Ph[:n, :n] + Ph[:n, n:])))
        assert err < 1e-8


def unequal_width_game():
    """Three agents with inputs of widths 1, 2 and 3 on a stable 4-state
    system."""
    rng = np.random.default_rng(21)
    n = 4
    A = rng.normal(size=(n, n))
    A = 0.8 * A / max(abs(np.linalg.eigvals(A)))
    B = [rng.normal(size=(n, m)) for m in (1, 2, 3)]
    Q = []
    for _ in B:
        C = rng.normal(size=(n, n))
        Q.append(C.T @ C / n + 0.1 * np.eye(n))
    R = [10.0 * np.eye(b.shape[1]) for b in B]   # 4 I gives a non-monotone VI
    return G.LqGame(A, B, Q, R, T=3)


@pytest.mark.parametrize("case", ["crossroad4", "unequal_widths", "single_agent"])
def test_augmented_blocks_match_full_are(case, crossroad4):
    """compile_vi assembles P_hat_i from an n-dim DARE and two Stein
    equations; it must agree with the 2n-dim augmented DARE solved whole."""
    if case == "crossroad4":
        _, g, c = crossroad4
    else:
        g = unequal_width_game() if case == "unequal_widths" else scalar_game()
        c = G.compile_vi(g)
    n = g.n
    parts = G.build_augmented(g, c.riccati)
    assert len(c.augmented.P_hat) == g.N
    for i, (A_hat, B_hat, Q_hat) in enumerate(parts):
        P = c.augmented.P_hat[i]
        P_ref, _ = G.solve_are(A_hat, B_hat, Q_hat, g.R[i])
        scale = 1.0 + np.max(np.abs(P))
        assert np.max(np.abs(P - P_ref)) <= 1e-10 * scale
        assert np.array_equal(P, P.T)
        assert c.augmented.residuals[i] <= 1e-12 * scale
        if case == "single_agent":
            # no drift: the profile terms vanish exactly
            assert not P[:n, n:].any() and not P[n:, n:].any()


def test_stein_doubling_raises_quickly_when_unstable():
    L = 1.1 * np.eye(3)
    t0 = time.perf_counter()
    with pytest.raises(NoConvergence, match="diverged"):
        G._stein(L, np.ones((2, 3, 3)), L)
    assert time.perf_counter() - t0 < 1.0


def test_doubling_names_the_step_of_a_singular_solve():
    # W = I + G H is exactly zero at the first doubling
    with pytest.raises(NoConvergence, match="singular at step 1"):
        G._doubling(np.eye(2), -np.eye(2), np.eye(2))


def test_compile_vi_calls_solve_are_once_per_agent(monkeypatch):
    g = unequal_width_game()
    shapes = []
    solve_are = G.solve_are

    def counting(A, B, Q, R, *args, **kwargs):
        shapes.append(np.shape(A))
        return solve_are(A, B, Q, R, *args, **kwargs)

    monkeypatch.setattr(G, "solve_are", counting)
    G.compile_vi(g)
    assert shapes == [(g.n, g.n)] * g.N


# ------------------------------------------------------------- compilation

def test_compile_single_agent_symmetric():
    g = scalar_game()
    c = G.compile_vi(g)
    assert np.allclose(c.M_ol, c.M_ol.T)


def test_compile_scalar_two_agent_hand_expansion():
    """n=1, N=2, T=2: expand M entry-wise with plain floats."""
    a, b1, b2 = 0.5, 1.0, 2.0
    q1, q2, r1, r2 = 1.0, 2.0, 3.0, 5.0
    g = G.LqGame([[a]], [[[b1]], [[b2]]], [[[q1]], [[q2]]], [[[r1]], [[r2]]], T=2)
    c = G.compile_vi(g)
    P1 = c.riccati.P_ol[0][0, 0]
    P2 = c.riccati.P_ol[1][0, 0]
    gam = {1: np.array([[b1, 0.0], [a * b1, b1]]), 2: np.array([[b2, 0.0], [a * b2, b2]])}
    Qb = {1: np.diag([q1, P1]), 2: np.diag([q2, P2])}
    Rb = {1: r1 * np.eye(2), 2: r2 * np.eye(2)}
    expected = np.block([
        [gam[1].T @ Qb[1] @ gam[1] + Rb[1], gam[1].T @ Qb[1] @ gam[2]],
        [gam[2].T @ Qb[2] @ gam[1], gam[2].T @ Qb[2] @ gam[2] + Rb[2]],
    ])
    assert np.allclose(c.M_ol, expected, atol=1e-12)
    x0 = np.array([1.7])
    expected_q = np.concatenate([
        gam[1].T @ Qb[1] @ np.array([a, a * a]) * 1.7,
        gam[2].T @ Qb[2] @ np.array([a, a * a]) * 1.7,
    ])
    assert np.allclose(c.q_of(x0), expected_q, atol=1e-12)


def test_q_of_zero_and_linearity(small_game2):
    g, c = small_game2
    assert np.allclose(c.q_of(np.zeros(g.n)), 0.0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=g.n)
    assert np.allclose(c.q_of(2.5 * x), 2.5 * c.q_of(x), atol=1e-12)


def test_compile_zero_state_solution_is_zero(small_game2):
    g, c = small_game2
    p = c.avi_at(np.zeros(g.n))
    assert natural_residual(p, np.zeros(p.dim)) <= 1e-10


def test_avi_at_checks_only_state_data(small_game2):
    # avi_at gives the problem the constructors build, checking only what
    # depends on the state; each call owns its q and offsets
    g, c = small_game2
    x = np.random.default_rng(7).normal(size=g.n)
    p, other = c.avi_at(x), c.avi_at(2.0 * x)
    want = AviProblem(c.M_ol, c.q_of(x), Polyhedron(c.D, c.offsets_at(x)))
    for a, b in ((p.M, want.M), (p.q, want.q), (p.C.D, want.C.D), (p.C.d, want.C.d)):
        assert np.array_equal(a, b)
    assert np.array_equal(other.C.d, c.offsets_at(2.0 * x))
    assert not np.array_equal(p.C.d, other.C.d)
    assert np.array_equal(c.polyhedron_at(x).d, p.C.d)
    with np.errstate(invalid="ignore"):  # inf * 0 in the matvecs
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteData):
                c.avi_at(np.full(g.n, bad))
            with pytest.raises(NonFiniteData):
                c.polyhedron_at(np.full(g.n, bad))


def test_compile_raises_invalid_splitting_with_mu():
    rng = np.random.default_rng(6)
    g = random_stable_game(rng, r_scale=0.05)  # tiny input weight: mu < 0
    with pytest.raises(InvalidSplitting) as err:
        G.compile_vi(g)
    assert err.value.mu is not None and err.value.mu <= 0


def test_eq24_block_splitting_identity(small_game2):
    """(M + M')/4 equals the agent-block formula
    blkdg(Rbar_i/2) + [Gamma_i'(Qbar_i + Qbar_j')Gamma_j/4]_ij."""
    g, c = small_game2
    s = make_dr_splitting(c.M_ol)
    T = g.T
    Qbar = [G.blkdg([g.Q[i]] * (T - 1) + [c.riccati.P_ol[i]]) for i in range(g.N)]
    Rbar = [np.kron(np.eye(T), g.R[i]) for i in range(g.N)]
    grid = [[c.gammas[i].T @ (Qbar[i] + Qbar[j].T) @ c.gammas[j] / 4.0
             for j in range(g.N)] for i in range(g.N)]
    M1_blocks = G.blkdg([Rb / 2.0 for Rb in Rbar]) + np.block(grid)
    assert np.max(np.abs(s.M1 - M1_blocks)) <= 1e-12 * max(1, np.max(np.abs(s.M1)))


def test_constraint_stacking_matches_stagewise_oracle(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(7)
    for _ in range(40):
        x0 = rng.normal(size=g.n)
        u = rng.normal(size=g.input_dim) * 2.0
        stacked = bool(np.max(c.D @ u + c.offsets_at(x0)) <= 1e-9)
        assert stacked == stagewise_feasible(g, x0, u)


@pytest.mark.parametrize("fixture", ["small_game2", "crossroad4"])
def test_predict_and_first_stage_match_per_agent_oracle(fixture, request):
    """The condensed predictor theta x0 + gamma u reproduces the explicit
    rollout, and first_stage picks u_i[0] out of each agent's block."""
    g, c = request.getfixturevalue(fixture)[-2:]
    rng = np.random.default_rng(9)
    for i in range(g.N):
        assert np.array_equal(c.gammas[i], G.build_gamma(g.A, g.B[i], g.T))
    for _ in range(5):
        x0 = rng.normal(size=g.n)
        u = rng.normal(size=g.input_dim)
        xs = simulate_states(g.A, g.B, x0, g.split_input(u))
        got = c.predict(x0, u)
        assert np.max(np.abs(got - xs[1:].ravel())) <= 1e-12 * (1 + np.max(np.abs(xs)))
        want = np.concatenate([u[g.agent_slice(i)][:g.m[i]] for i in range(g.N)])
        assert np.array_equal(c.first_stage(u), want)


def rows_game(mixed, state, N=2, T=3):
    """A stable game with pre-stabilized shared input rows (so Ex != 0) when
    mixed, and state rows when state."""
    rng = np.random.default_rng(5)
    n = 3
    A = rng.normal(size=(n, n))
    A = 0.9 * A / max(abs(np.linalg.eigvals(A)))
    B = [rng.normal(size=(n, k + 1)) for k in range(N)]
    kw = {}
    if mixed:
        # shared rows -3 <= sum_i 1'u_i <= 3, made mixed by the pre-stabilizer
        kw["Du"] = [np.vstack([np.ones((1, b.shape[1])), -np.ones((1, b.shape[1]))])
                    for b in B]
        kw["du"] = np.full(2, -3.0)
        kw["K_pre"] = [-0.1 * rng.normal(size=(b.shape[1], n)) for b in B]
    if state:
        kw["Dx"] = np.vstack([np.eye(n), -np.eye(n)])
        kw["dx"] = np.full(2 * n, -5.0)
    return G.LqGame.from_stage_constraints(
        A, B, [np.eye(n) * (1.0 + 0.5 * i) for i in range(N)],
        [4.0 * np.eye(b.shape[1]) for b in B], T, **kw)


ASSEMBLY_CASES = ["crossroad4", "small_game2", "unequal_widths", "no_mixed_rows",
                  "no_state_rows", "horizon_1", "single_agent"]


def assembly_case(case, request):
    if case in ("crossroad4", "small_game2"):
        g = request.getfixturevalue(case)[-2]
    elif case == "unequal_widths":
        g = unequal_width_game()
    elif case == "horizon_1":
        g = with_horizon(request.getfixturevalue("small_game2")[0], 1)
    else:
        g = rows_game(mixed=case != "no_mixed_rows", state=case != "no_state_rows",
                      N=1 if case == "single_agent" else 2)
    return g, G.compile_vi(g)


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_vi_data_match_dense_assembly(case, request):
    """compile_vi's stage-by-stage products give the VI data of the dense
    kron / block-diagonal definition to 1e-13 relative."""
    g, c = assembly_case(case, request)
    want = dense_vi_assembly(g, c.riccati.P_ol)
    got = (c.M_ol, c.qmap, c.D, c.d0, c.Dmap)
    for name, a, b in zip(("M_ol", "qmap", "D", "d0", "Dmap"), got, want):
        assert a.shape == b.shape, name
        err = np.max(np.abs(a - b), initial=0.0)
        assert err <= 1e-13 * np.max(np.abs(b), initial=0.0), name


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_closed_loop_powers_match_per_power_walk(case, request):
    """The batched power norms are bit-identical to a walk that takes them
    one np.linalg.norm(., 2) at a time, and so are the powers."""
    g, c = assembly_case(case, request)
    for count in (1, max(G._TERMINAL_HORIZON + 1, g.T)):
        powers, norms = G._closed_loop_powers(c.riccati.A_cl, count)
        want_powers, want_norms = power_norms(c.riccati.A_cl, count)
        assert norms == want_norms
        assert len(powers) == len(want_powers)
        assert all(np.array_equal(a, b) for a, b in zip(powers, want_powers))


@pytest.mark.parametrize("A", [np.zeros((3, 3)), np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.array([[0.99, 1.0], [0.0, 0.99]])])
@pytest.mark.parametrize("count", [1, 3, 51])
def test_closed_loop_powers_match_per_power_walk_on_edge_matrices(A, count):
    """Zero, nilpotent and late-transient loops."""
    powers, norms = G._closed_loop_powers(A, count)
    want_powers, want_norms = power_norms(A, count)
    assert norms == want_norms
    assert all(np.array_equal(a, b) for a, b in zip(powers, want_powers))


def test_compile_vi_builds_no_state_block_diagonal(crossroad4, monkeypatch):
    """The stage-wise assembly never calls kron on the state matrices Ex and
    Dx, and builds no nT x nT block-diagonal Qbar_i."""
    _, g, _ = crossroad4
    krons, blocks = [], []
    kron, blkdg = G.kron, G.blkdg

    def recording_kron(a, b):
        krons.append(np.shape(b))
        return kron(a, b)

    def recording_blkdg(parts):
        out = blkdg(parts)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(G, "kron", recording_kron)
    monkeypatch.setattr(G, "blkdg", recording_blkdg)
    G.compile_vi(g)
    assert g.Ex.any() and g.Dx.any()
    assert krons and all(shape[1] != g.n for shape in krons)
    assert blocks and (g.n * g.T, g.n * g.T) not in blocks


def test_gradient_identity_on_feasible_points(small_game2):
    """col_i(grad_{u_i} J_i) must equal M u + q at generic points, where J_i
    is evaluated by explicit rollout with the augmented terminal weight."""
    g, c = small_game2
    rng = np.random.default_rng(8)
    n, T = g.n, g.T
    x0 = 0.2 * rng.normal(size=n)

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

    for _ in range(5):
        u = rng.normal(size=g.input_dim) * 0.5
        F = c.M_ol @ u + c.q_of(x0)
        for i in range(g.N):
            sl = g.agent_slice(i)
            grad = finite_diff_gradient(lambda v: J(i, v, u), u[sl].copy())
            scale = max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(grad - F[sl])) / scale < 1e-6


# ------------------------------------------------- feedback sequence and sets

def with_horizon(g, T):
    """The game g over the horizon T."""
    return G.LqGame(g.A, g.B, g.Q, g.R, T, Ex=g.Ex, Eu=g.Eu, e=g.e, Dx=g.Dx,
                    dx=g.dx)


def test_unconstrained_ne_sequence_zero_and_t1(small_game2):
    g, c = small_game2
    assert np.allclose(G.unconstrained_ne_sequence(c, np.zeros(g.n)), 0.0)
    x = np.array([0.1, -0.2, 0.3])
    c1 = G.compile_vi(with_horizon(g, 1))
    u1 = G.unconstrained_ne_sequence(c1, x)
    expected = np.concatenate([c1.riccati.K_ol[i] @ x for i in range(g.N)])
    assert np.allclose(u1, expected)


def test_unconstrained_ne_sequence_scalar_hand():
    g = scalar_game(T=2)
    c = G.compile_vi(g)
    k = c.riccati.K_ol[0][0, 0]
    a_cl = c.riccati.A_cl[0, 0]
    x0 = 0.7
    seq = G.unconstrained_ne_sequence(c, [x0])
    assert seq == pytest.approx([k * x0, k * a_cl * x0], abs=1e-12)


def assert_matches_rollout_oracle(c, rng):
    for x in rng.normal(size=(3, c.game.n)):
        want = feedback_rollout(c.riccati.K_ol, c.riccati.A_cl, x, c.game.T)
        got = G.unconstrained_ne_sequence(c, x)
        assert got.shape == want.shape
        # matrix powers against repeated matvecs: round-off only
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("fixture", ["small_game2", "crossroad4", "crossroad15"])
def test_unconstrained_ne_sequence_matches_rollout_oracle(fixture, request):
    c = request.getfixturevalue(fixture)[-1]
    rng = np.random.default_rng(23)
    assert_matches_rollout_oracle(c, rng)
    x = rng.normal(size=c.game.n)
    assert np.array_equal(G.unconstrained_ne_sequence(c, x), c.F @ x)
    assert np.array_equal(c.E, c.M_ol @ c.F + c.qmap)


@pytest.mark.parametrize("T", [1, 2, 60])
def test_unconstrained_ne_sequence_at_other_horizons(crossroad4, T):
    # the rollout rows come from the powers of the terminal-set test below
    # the horizon 50 and extend them beyond it
    c = G.compile_vi(scenario.build_crossroad(crossroad4[0], horizon=T))
    assert c.F.shape == (c.game.input_dim, c.game.n)
    assert_matches_rollout_oracle(c, np.random.default_rng(24))


def test_terminal_test_owns_its_tail_power(small_game2):
    # A_cl^h used to be a view into the whole (h + 1) x n x n power stack
    _, c = small_game2
    tail = c._terminal_test[3]
    assert tail.flags.owndata
    assert np.allclose(tail, np.linalg.matrix_power(c.riccati.A_cl, 50),
                       rtol=1e-12, atol=1e-15)


def test_in_terminal_set_origin_and_violation(small_game2):
    g, c = small_game2
    assert G.in_terminal_set(c, np.zeros(g.n))
    assert not G.in_terminal_set(c, 100.0 * np.ones(g.n))


def test_in_terminal_set_sound_vs_long_rollout(small_game2):
    """Membership implies the 10x longer simulation stays strictly inside."""
    g, c = small_game2
    G_fb = np.vstack([g.Ex + sum(Eu @ K for Eu, K in zip(g.Eu, c.riccati.K_ol)),
                      g.Dx])
    g_fb = np.concatenate([g.e, g.dx])
    rng = np.random.default_rng(9)
    horizon = 50
    accepted = 0
    for _ in range(200):
        x = rng.normal(size=g.n) * rng.uniform(0.05, 3.0)
        if not G.in_terminal_set(c, x):
            continue
        accepted += 1
        y = x.copy()
        for _ in range(10 * horizon):
            assert np.max(G_fb @ y + g_fb) < 0.0
            y = c.riccati.A_cl @ y
    assert accepted >= 5


TERMINAL_GAMES = ["small_game2", "crossroad4", "crossroad15"]


def rollout_oracle(compiled, horizon):
    return terminal_set_rollout(compiled.game, compiled.riccati.K_ol,
                                compiled.riccati.A_cl, horizon)


# in_terminal_set's horizon, which the oracle shares
@pytest.mark.parametrize("horizon", [50])
@pytest.mark.parametrize("fixture", TERMINAL_GAMES)
def test_in_terminal_set_matches_rollout_oracle(fixture, horizon, request):
    """The stacked test decides as the plain rollout on random states at
    scales 1e-3 to 10, inside and outside the set."""
    c = request.getfixturevalue(fixture)[-1]
    oracle = rollout_oracle(c, horizon)
    rng = np.random.default_rng(11)
    xs = [scale * rng.normal(size=c.game.n)
          for scale in np.logspace(-3, 1, 13) for _ in range(15)]
    want = [oracle(x) for x in xs]
    assert [G.in_terminal_set(c, x) for x in xs] == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("horizon", [50])
@pytest.mark.parametrize("fixture", TERMINAL_GAMES)
def test_in_terminal_set_matches_rollout_oracle_at_boundary(fixture, horizon,
                                                             request):
    """Along random rays from the origin the set is an interval; bisected
    on the oracle to a relative width of 1e-9, its inner end passes the
    stacked test and its outer end fails it."""
    c = request.getfixturevalue(fixture)[-1]
    oracle = rollout_oracle(c, horizon)
    assert oracle(np.zeros(c.game.n))
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = rng.normal(size=c.game.n)
        lo, hi = 0.0, 1.0
        while oracle(hi * d):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if oracle(mid * d) else (lo, mid)
        assert G.in_terminal_set(c, lo * d)
        assert not G.in_terminal_set(c, hi * d)


@pytest.mark.parametrize("fixture", TERMINAL_GAMES)
def test_in_terminal_set_rejects_non_finite_states(fixture, request):
    c = request.getfixturevalue(fixture)[-1]
    oracle = rollout_oracle(c, 50)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(c.game.n)
        x[0] = bad
        assert not oracle(x)
        assert not G.in_terminal_set(c, x)


@pytest.mark.parametrize("dx, inside", [
    (None, True),                         # no constraint rows
    (np.array([-1.0]), True),             # a row that holds everywhere
    (np.array([-0.5e-9]), False),         # a row short of the margin
])
def test_in_terminal_set_state_free_rows(dx, inside):
    """Rows that do not depend on the state decide alone: no rows or only
    rows that keep the margin accept every finite state, and any row short
    of it accepts none."""
    one = np.array([[1.0]])
    Dx = None if dx is None else np.zeros((1, 1))
    c = G.compile_vi(G.LqGame(0.5 * one, [one], [one], [one], T=2, Dx=Dx, dx=dx))
    oracle = rollout_oracle(c, 50)
    for x in ([0.0], [3.0], [-1e6]):
        assert oracle(x) == inside
        assert G.in_terminal_set(c, x) == inside
    assert not G.in_terminal_set(c, [np.nan])


def stacked_test(compiled, x):
    """in_terminal_set's stacked rows test alone, read from compiled."""
    rows, lower, upper, tail = compiled._terminal_test
    v = rows @ x
    return bool((lower <= v).all() and (v <= upper).all()
                and np.linalg.norm(tail @ x) <= compiled._terminal_radius)


@pytest.mark.parametrize("fixture", TERMINAL_GAMES)
def test_terminal_ball_inside_stacked_test(fixture, request):
    """Every state within the inner ball passes the stacked rows test: random
    directions at random radii and on the ball's surface, and the directions
    that tighten the ball's own bound (the row setting rho_rows and the top
    right singular vector of A_cl^h)."""
    c = request.getfixturevalue(fixture)[-1]
    ball, n = c._terminal_ball, c.game.n
    assert 0.0 < ball < np.inf
    rows, lower, upper, tail = c._terminal_test
    norms = np.linalg.norm(rows, axis=1)
    reach = np.minimum(upper, -lower) / norms
    tight = [rows[np.argmin(reach)] / norms[np.argmin(reach)],
             np.linalg.svd(tail)[2][0]]
    rng = np.random.default_rng(21)
    for d in tight + list(rng.normal(size=(300, n))):
        d = d / np.linalg.norm(d)
        for scale in (1.0, -1.0, rng.uniform(-1.0, 1.0)):
            x = scale * ball * d
            if np.sqrt(x @ x) < ball:
                assert stacked_test(c, x), (d, scale)
                assert G.in_terminal_set(c, x)
    # and it is no smaller than its bound: 1% beyond the slack, one of the
    # tight directions leaves the set
    outside = 1.01 * ball / (1.0 - 1e-6)
    assert not all(stacked_test(c, s * outside * d) for d in tight for s in (1, -1))


@pytest.mark.parametrize("dx, ball", [
    (None, np.inf),                        # no constraint rows
    (np.array([-1.0]), np.inf),            # a row that holds everywhere
    (np.array([-0.5e-9]), -np.inf),        # a row short of the margin
])
def test_terminal_ball_state_free_rows(dx, ball):
    """With no row on the state the ball is everything or nothing, as the
    set is; a state whose x @ x overflows decides the same."""
    one = np.array([[1.0]])
    Dx = None if dx is None else np.zeros((1, 1))
    c = G.compile_vi(G.LqGame(0.5 * one, [one], [one], [one], T=2, Dx=Dx, dx=dx))
    assert c._terminal_ball == ball
    assert G.in_terminal_set(c, [1e160]) == (ball > 0)


@pytest.mark.parametrize("rows, lower, upper, radius", [
    # lower = -inf rows bound one side; the tighter side of a two-sided row
    ([[3.0, 4.0]], [-np.inf], [10.0], 2.0),
    ([[3.0, 4.0], [0.0, 2.0]], [-5.0, -np.inf], [10.0, 3.0], 1.0),
    # a zero row inside the margin is ignored, one outside it excludes all
    ([[0.0, 0.0], [0.0, 2.0]], [-np.inf, -np.inf], [0.0, 3.0], 1.5),
    ([[0.0, 0.0], [0.0, 2.0]], [-np.inf, -np.inf], [-1e-12, 3.0], -np.inf),
    ([[0.0, 0.0], [0.0, 2.0]], [1e-12, -np.inf], [1.0, 3.0], -np.inf),
    # no row depends on the state
    ([[0.0, 0.0]], [-1.0], [1.0], np.inf),
    (np.zeros((0, 2)), [], [], np.inf),
])
def test_inner_radius(rows, lower, upper, radius):
    got = G._inner_radius(np.array(rows, dtype=float).reshape(-1, 2),
                          np.array(lower, dtype=float), np.array(upper, dtype=float))
    assert got == radius


def test_closed_loop_powers_walk_past_count(monkeypatch):
    """The norms go on past count until one is <= 1/2, so max(norms) is the
    sup even when the transient peaks late (here near k = 100); no power
    past count is kept. Without a norm <= 1/2 the walk gives up."""
    A = np.array([[0.99, 1.0], [0.0, 0.99]])
    powers, norms = G._closed_loop_powers(A, 3)
    assert len(powers) == 3 and np.array_equal(powers[2], np.eye(2) @ A @ A)
    assert norms[0] == 1.0 and norms[-1] <= 0.5 < min(norms[1:-1])
    brute = [np.linalg.norm(np.linalg.matrix_power(A, k), 2) for k in range(2000)]
    assert max(norms) == pytest.approx(max(brute), rel=1e-12)
    monkeypatch.setattr(G, "_POWER_CAP", 10)
    with pytest.raises(NoConvergence):
        G._closed_loop_powers(np.eye(2), 3)


@pytest.mark.parametrize("fixture", TERMINAL_GAMES)
def test_wrong_length_state_raises(fixture, request):
    """A state of the wrong length raises DimensionMismatch wherever the
    compiled VI takes a state, also one of norm 0 that the inner ball would
    otherwise accept."""
    c = request.getfixturevalue(fixture)[-1]
    n = c.game.n
    for x in (np.zeros(n - 1), np.zeros(n + 1), np.ones(n + 2), np.zeros((n, 2))):
        with pytest.raises(DimensionMismatch):
            G.in_terminal_set(c, x)
        with pytest.raises(DimensionMismatch):
            G.unconstrained_ne_sequence(c, x)
        u = np.zeros(c.game.input_dim)
        for call in (c.q_of, c.offsets_at, c.polyhedron_at, c.avi_at,
                     lambda x: c.predict(x, u),
                     lambda x: G.best_response(c, x, 0, u)):
            with pytest.raises(DimensionMismatch):
                call(x)
    # a single row or column of n entries is still a state
    assert G.in_terminal_set(c, np.zeros((1, n)))
    assert G.unconstrained_ne_sequence(c, np.zeros((n, 1))).shape == (c.F.shape[0],)


def test_in_terminal_set_repeated_and_opposite_rows():
    """Rows that repeat or negate one another bound one quantity from both
    sides, the tightest offset on each side deciding."""
    one = np.array([[1.0]])
    Dx = np.array([[1.0], [1.0], [-1.0], [-1.0], [2.0]])
    dx = np.array([-1.0, -0.5, -2.0, -3.0, -4.0])
    c = G.compile_vi(G.LqGame(0.5 * one, [one], [one], [one], T=2, Dx=Dx, dx=dx))
    oracle = rollout_oracle(c, 50)
    xs = np.linspace(-2.5, 1.0, 351)
    want = [oracle([x]) for x in xs]
    assert [G.in_terminal_set(c, [x]) for x in xs] == want
    assert want[0] is False and True in want and want[-1] is False


# ------------------------------------------------------------ best response

def test_best_response_zero_state(small_game2):
    g, c = small_game2
    u0 = np.zeros(g.input_dim)
    for i in range(g.N):
        br = G.best_response(c, np.zeros(g.n), i, u0)
        assert np.allclose(br, 0.0, atol=1e-9)


def test_best_response_fixed_point_at_vi_solution(small_game2):
    g, c = small_game2
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=g.n)
    p = c.avi_at(x0)
    rep = dr_solve(p, SolverConfig(tol=1e-9, max_iter=2000, qp_tol=1e-11))
    assert rep.converged
    for i in range(g.N):
        br = G.best_response(c, x0, i, rep.solution, tol=1e-10)
        assert np.max(np.abs(br - rep.solution[g.agent_slice(i)])) <= 1e-5


def test_best_response_raises_when_qp_misses_tol(small_game2, monkeypatch):
    # a QP that stops short of its KKT tolerance must not pass its iterate
    # off as the best response
    g, c = small_game2
    solve = G.qp.QpEngine.solve

    def short(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        sol.status, sol.kkt_residual = G.qp.ITER_LIMIT, 1e-3
        return sol

    monkeypatch.setattr(G.qp.QpEngine, "solve", short)
    with pytest.raises(NoConvergence, match="agent 1"):
        G.best_response(c, np.zeros(g.n), 1, np.zeros(g.input_dim))


def test_best_response_single_agent_matches_lqr_sequence():
    one = np.array([[1.0]])
    g = G.LqGame(0.9 * one, [one], [one], [one], T=6)
    c = G.compile_vi(g)
    x0 = np.array([1.3])
    br = G.best_response(c, x0, 0, np.zeros(g.input_dim), tol=1e-12)
    # infinite-horizon LQR feedback rollout from the augmented gains
    P, K = G.solve_are(g.A, g.B[0], g.Q[0], g.R[0], tol=1e-14)
    x = x0.copy()
    expected = []
    for _ in range(g.T):
        u = K @ x
        expected.append(u[0])
        x = g.A @ x + g.B[0] @ u
    assert np.allclose(br, expected, atol=1e-7)


# ------------------------------------------------------------ transform, io

def test_prestabilized_dynamics_and_constraints_equivalence():
    rng = np.random.default_rng(11)
    n = 3
    A = rng.normal(size=(n, n)) * 0.4
    B = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    Du = [np.vstack([np.eye(1), -np.eye(1), np.zeros((4, 1))]),
          np.vstack([np.zeros((2, 2)), np.eye(2), -np.eye(2)])]
    du = np.full(6, -1.0)
    base = G.LqGame.from_stage_constraints(A, B, [np.eye(n)] * 2,
                                           [np.eye(1), np.eye(2)], T=3,
                                           Du=Du, du=du)
    gains = [rng.normal(size=(1, n)) * 0.1, rng.normal(size=(2, n)) * 0.1]
    pre = base.prestabilized(gains)
    assert np.allclose(pre.A, A + B[0] @ gains[0] + B[1] @ gains[1])
    for _ in range(20):
        x = rng.normal(size=n)
        v = [rng.normal(size=1), rng.normal(size=2)]
        u_total = [gains[i] @ x + v[i] for i in range(2)]
        orig = base.Ex @ x + sum(base.Eu[i] @ u_total[i] for i in range(2)) + base.e
        trans = pre.Ex @ x + sum(pre.Eu[i] @ v[i] for i in range(2)) + pre.e
        assert np.allclose(orig, trans, atol=1e-12)


def test_game_json_round_trip(tmp_path, small_game2):
    g, c = small_game2
    path = tmp_path / "game.json"
    G.write_game(g, path)
    g2 = G.read_game(path)
    c2 = G.compile_vi(g2)
    assert np.array_equal(c2.M_ol, c.M_ol)
    assert np.array_equal(c2.D, c.D)
    assert np.array_equal(c2.d0, c.d0)


def test_game_json_round_trip_with_prestabilizer(tmp_path):
    rng = np.random.default_rng(12)
    n = 2
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = [np.array([[0.005], [0.1]])]
    gains = [np.array([[-0.5, -0.8]])]
    g = G.LqGame.from_stage_constraints(
        A, B, [np.eye(2)], [np.eye(1)], T=3,
        Du=[np.array([[1.0], [-1.0]])], du=np.array([-2.0, -2.0]),
        K_pre=gains)
    path = tmp_path / "game.json"
    G.write_game(g, path)
    g2 = G.read_game(path)
    assert np.array_equal(g2.A, g.A)
    assert np.array_equal(g2.Ex, g.Ex)
    assert np.array_equal(g2.e, g.e)


GOOD_GAME = {"A": [[0.5, 1.0], [0.0, 1.0]], "B": [[[0.0], [1.0]]],
             "Q": [[[1.0, 0.0], [0.0, 1.0]]], "R": [[[1.0]]], "T": 2}


@pytest.mark.parametrize("text", [
    json.dumps(dict(GOOD_GAME, T="x")),             # wrong JSON type
    json.dumps(dict(GOOD_GAME, T=None)),
    json.dumps(dict(GOOD_GAME, A=[[0.5, 1.0], [1.0]])),  # ragged matrix
    json.dumps(dict(GOOD_GAME, B=3)),
    json.dumps(GOOD_GAME)[:-5],                     # truncated file
    "[1, 2]",                                       # not an object
], ids=["T-string", "T-null", "ragged-A", "B-number", "truncated", "list"])
def test_read_game_malformed_file_raises_spec_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SpecError, match="bad.json"):
        G.read_game(path)

