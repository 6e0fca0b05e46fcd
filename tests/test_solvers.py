import csv

import numpy as np
import pytest

from gamevi.avi import AviProblem, Polyhedron, monotonicity_constants, natural_residual
from gamevi import qp, scenario, solvers
from gamevi.errors import (InvalidConfig, InvalidSplitting, NonFiniteData,
                           NotStronglyMonotone)
from gamevi.scenario import random_avi
from gamevi.solvers import (ALGORITHMS, CONVERGED, INNER_INEXACT, DrWorkspace,
                            SolverConfig, agraal_solve, dr_solve, exgd_solve,
                            make_dr_splitting, nagd_solve, pgd_solve,
                            prgd_solve, solve, write_residual_csv)

from oracles import dr_exact_residuals, kkt_enumerate, loglinear_fit


def scalar_problem():
    # M = 1, q = -1, C = R: solution u* = 1
    return AviProblem([[1.0]], [-1.0], Polyhedron.unconstrained(1))


# ---------------------------------------------------------------- splitting

def test_make_dr_splitting_symmetric_pd():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    s = make_dr_splitting(M)
    assert np.allclose(s.M1, M / 2)
    assert np.allclose(s.M2, M / 2)


def test_make_dr_splitting_direct_arithmetic():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    s = make_dr_splitting(M)
    assert np.allclose(s.M1, [[1.0, 0.25], [0.25, 1.0]])
    assert np.allclose(s.M2, M - s.M1)


def test_make_dr_splitting_rejects_skew():
    with pytest.raises(InvalidSplitting) as err:
        make_dr_splitting(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert err.value.mu is not None and err.value.mu <= 0


def test_make_dr_splitting_rejects_indefinite_with_mu():
    # symmetric part [[1, 1], [1, -1]], eigenvalues -sqrt(2) and sqrt(2):
    # indefinite, not skew, so the failed factorization is not at a zero
    # pivot, and the smallest eigenvalue rides along
    with pytest.raises(InvalidSplitting) as err:
        make_dr_splitting(np.array([[1.0, 2.0], [0.0, -1.0]]))
    assert err.value.mu == pytest.approx(-np.sqrt(2.0), rel=1e-12)


def test_make_dr_splitting_accepts_barely_definite():
    # symmetric part with smallest eigenvalue 1e-8 plus a skew part: the
    # Cholesky test accepts it, and the splitting is M1 = (M + M')/4,
    # M2 = M - M1 bit for bit
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    K = rng.normal(size=(6, 6))
    M = Q @ np.diag([1e-8, 0.1, 0.5, 1.0, 2.0, 3.0]) @ Q.T + (K - K.T)
    assert 0.0 < np.linalg.eigvalsh((M + M.T) / 2.0)[0] < 2e-8
    s = make_dr_splitting(M)
    M1 = (M + M.T) * 0.25
    M2 = M - M1
    if not np.array_equal(M1 + M2, M):
        M1 = M - M2
    assert np.array_equal(s.M1, M1) and np.array_equal(s.M2, M2)


def test_splitting_identities():
    rng = np.random.default_rng(0)
    for seed in range(5):
        p = random_avi(12, 4, seed)
        s = make_dr_splitting(p.M)
        assert np.array_equal(s.M1 + s.M2, p.M)
        assert np.max(np.abs(s.M1 - s.M1.T)) <= 1e-12
        skew = s.M2 - s.M1
        assert np.max(np.abs(skew + skew.T)) <= 1e-12


def test_dr_metric_finite_where_frobenius_norm_overflows():
    # entries above ~1e154 overflow a plain ||M||_F; gamma is computed on
    # M / max|M| and scales with M
    unit = np.array([[2.0, 1.0], [0.0, 2.0]])
    s = make_dr_splitting(1e200 * unit)
    assert s.gamma == pytest.approx(1e200 * 3.0 / (2.0 * np.sqrt(2.0)), rel=1e-15)
    assert s.gamma == pytest.approx(1e200 * make_dr_splitting(unit).gamma, rel=1e-15)


def skew_heavy(n, diag, skew):
    K = np.triu(np.ones((n, n)), 1)
    return diag * np.eye(n) + skew * (K - K.T)


@pytest.mark.parametrize("M, match", [
    (1e308 * np.eye(2), "M \\+ M' is not finite"),
    (skew_heavy(10, 0.5e308, 1.7e308), "not representable"),
    (skew_heavy(2, 5e-324, 0.0), "not representable"),
], ids=["sum_overflow", "gamma_overflow", "gamma_underflow"])
def test_make_dr_splitting_rejects_unrepresentable_data(M, match):
    # a finite M whose M + M' overflows comes back as no splitting with
    # +-inf entries; past the Cholesky test, gamma = ||M||_F/(2 sqrt(n)) can
    # still overflow, and gamma = lambda/2 of the smallest subnormal rounds
    # to 0
    with pytest.raises(NonFiniteData, match=match):
        make_dr_splitting(M)


def test_dr_metric_positive_where_lambda_min_reads_nonpositive():
    # a symmetric M with eigenvalues (1e-16, 1, 2): M + M' passes the
    # Cholesky test, but eigvalsh reads lambda_min <= 0, which is round-off
    # of lambda_max, so the rule takes eps lambda_max in its place
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = Q @ np.diag([1e-16, 1.0, 2.0]) @ Q.T
    M = (M + M.T) / 2.0
    scale = np.abs(M).max()
    lo, hi = np.linalg.eigvalsh(M / scale)[[0, -1]]
    assert lo <= 0.0
    gamma = make_dr_splitting(M).gamma
    assert gamma == pytest.approx(scale * np.sqrt(np.finfo(float).eps) * hi / 2.0,
                                  rel=1e-12)


def test_dr_metric_rule_pinned(crossroad15):
    """gamma against values computed here: sqrt(lambda_min lambda_max)/2 for
    a symmetric M, ||M||_F / (2 sqrt(n)) otherwise."""
    assert make_dr_splitting([[1.0]]).gamma == 0.5
    M = crossroad15[2].M_ol
    lam = np.linalg.eigvalsh(M)
    gamma = make_dr_splitting(M).gamma
    assert gamma == pytest.approx(np.sqrt(lam[0] * lam[-1]) / 2.0, rel=1e-12)
    assert round(gamma, 3) == 1.406
    for i in range(3):
        M = random_avi(100, 20, seed=(0, i)).M
        assert make_dr_splitting(M).gamma == pytest.approx(
            np.linalg.norm(M) / 20.0, rel=1e-12)


@pytest.mark.parametrize("which", ["random", "crossroad4"])
def test_dr_iterates_invariant_to_problem_scale(which, crossroad4):
    """DR on (4^k M, 4^k q) runs the iterates of (M, q): the metric scales
    with M, so the units of the data do not move the path."""
    if which == "random":
        p = random_avi(30, 10, seed=(0, 4))
    else:
        spec, _, c = crossroad4
        p = c.avi_at(scenario.default_initial_state(spec))
    cfg = SolverConfig(tol=1e-16, max_iter=30)
    base = dr_solve(p, cfg).solution
    for k in (-1, 1, 2):
        f = 4.0 ** k
        u = dr_solve(AviProblem(f * p.M, f * p.q, p.C), cfg).solution
        assert np.max(np.abs(u - base)) <= 1e-12 * np.max(np.abs(base))


# ----------------------------------------------------------------------- DR

def test_dr_hand_rolled_first_iterations():
    """Scalar instance: M1 = M2 = 0.5, H = gamma = 1/2, lambda = 0.5, u0 = 0."""
    p = scalar_problem()
    assert make_dr_splitting(p.M).gamma == 0.5
    rep1 = dr_solve(p, cfg=SolverConfig(tol=1e-16, max_iter=1))
    assert rep1.solution[0] == pytest.approx(0.5, abs=1e-12)
    # independent scalar recursion of the same update rule
    u, H = 0.0, 0.5
    for _ in range(7):
        y = (-(-1.0 + (0.5 - H) * u)) / (H + 0.5)    # (H+M1) y = -(q + (M2-H)u)
        u = (H * y + 0.5 * u) / (H + 0.5)            # (H+M2) u+ = H y + M2 u
    rep7 = dr_solve(p, cfg=SolverConfig(tol=1e-16, max_iter=7))
    assert rep7.solution[0] == pytest.approx(u, abs=1e-12)


def test_dr_fixed_point_at_solution():
    p = scalar_problem()
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-8), warm=[1.0])
    assert rep.iterations == 1
    assert rep.converged
    assert rep.solution[0] == pytest.approx(1.0, abs=1e-10)


def test_dr_converges_to_solution():
    p = scalar_problem()
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-10, max_iter=500))
    assert rep.converged
    assert rep.solution[0] == pytest.approx(1.0, abs=1e-9)


def test_dr_iteration_counts_step_a_solves():
    p = scalar_problem()
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-16, max_iter=13))
    assert rep.iterations == 13
    assert len(rep.residuals) == 13
    assert rep.status == "iter_limit"


def test_dr_validates_splitting_against_problem():
    """dr_solve splits the problem's own M; a skew M has no valid splitting."""
    skew = AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                      Polyhedron.unconstrained(2))
    with pytest.raises(InvalidSplitting) as err:
        dr_solve(skew)
    assert err.value.mu is not None and err.value.mu <= 0


def test_dr_fixed_point_property_constrained():
    rng = np.random.default_rng(9)
    p = random_avi(5, 3, 17)
    u_star = kkt_enumerate(p.M, p.q, p.C.D, p.C.d)
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-16, max_iter=1, qp_tol=1e-12),
                   warm=u_star)
    assert np.max(np.abs(rep.solution - u_star)) < 1e-8


def test_dr_iteration_counts_pinned():
    # the DR iteration counts of the benchmark's random instances; a change
    # to the QP engine or the splitting that moves one shows here
    counts = [dr_solve(random_avi(100, 20, seed=(0, i)),
                       cfg=SolverConfig(tol=1e-3, max_iter=5000)).iterations
              for i in range(10)]
    assert counts == [55, 54, 54, 53, 66, 47, 48, 57, 56, 60]


def test_dr_linear_convergence_tail():
    p = random_avi(20, 6, 3)
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-9, max_iter=4000))
    assert rep.converged
    tail = rep.residuals[len(rep.residuals) // 2:]
    slope, r2 = loglinear_fit(tail)
    assert slope < 0
    assert r2 >= 0.9


# ---------------------------------------------------------- residual bound

def fresh_residual(p, u):
    return natural_residual(p, u, engine=qp.QpEngine(np.eye(p.dim), p.C.D))


@pytest.mark.parametrize("i", range(3))
def test_residual_bound_below_fresh_residual_random(i, residual_bounds):
    p = random_avi(100, 20, seed=(0, i))
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-3, max_iter=5000))
    assert rep.converged and len(residual_bounds) == rep.iterations
    assert sum(r > 0.0 for _, _, r in residual_bounds) > rep.iterations // 2
    for _, u, r in residual_bounds:
        assert r <= fresh_residual(p, u)


def test_residual_bound_skips_zero_rows(residual_bounds):
    # an all-zero row bounds no distance: it must neither divide by zero
    # nor enter the bound
    base = random_avi(6, 5, seed=(77, 0))
    D = np.vstack([base.C.D, np.zeros((1, 6))])
    p = AviProblem(base.M, base.q, Polyhedron(D, np.append(base.C.d, -1.0)))
    assert np.array_equal(solvers._inverse_row_norms(D)[-1:], [0.0])
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-8, max_iter=5000))
    assert rep.converged and rep.lower_bound.any()
    for _, u, r in residual_bounds:
        assert np.isfinite(r) and r <= fresh_residual(p, u)


def test_residual_bound_zero_without_rows(residual_bounds):
    p = random_avi(10, 0, seed=41)
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-8, max_iter=5000))
    assert rep.converged and rep.lower_bound is None
    assert [r for _, _, r in residual_bounds] == [0.0] * rep.iterations


@pytest.mark.parametrize("seed", range(3))
def test_dr_residuals_match_exact_oracle(seed):
    """Against DR with the exact residual at every iterate: entries not
    marked are that residual, marked ones lie below it, and the run stops
    at the same iteration."""
    p = random_avi(6, 5, seed=(77, seed))
    tol = 1e-8
    rep = dr_solve(p, cfg=SolverConfig(tol=tol, max_iter=5000, qp_tol=1e-12))
    exact = np.array(dr_exact_residuals(p.M, p.q, p.C.D, p.C.d, tol, 5000,
                                        make_dr_splitting(p.M).gamma))
    got = np.array(rep.residuals)
    mark = rep.lower_bound
    assert rep.converged and mark.shape == got.shape == exact.shape
    assert mark.any() and not mark[-1]
    assert np.allclose(got[~mark], exact[~mark], rtol=1e-6, atol=1e-10)
    assert np.all(got[mark] <= exact[mark])
    assert np.all(got[mark] > tol)


def test_dr_skips_most_residual_solves(monkeypatch):
    p = random_avi(100, 20, seed=(0, 0))
    ws = DrWorkspace(make_dr_splitting(p.M), p.C.D)
    calls = []
    resid_solve = ws.resid_engine.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return resid_solve(*args, **kwargs)

    monkeypatch.setattr(ws.resid_engine, "solve", counted)
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-3, max_iter=5000), workspace=ws)
    assert rep.converged and rep.iterations == 55
    assert len(calls) == rep.iterations - int(rep.lower_bound.sum())
    assert len(calls) < rep.iterations // 2


def test_dr_final_residual_exact_at_iteration_limit():
    # capped while the affine iterate is still infeasible: a skipped final
    # iterate would report its row-violation bound, not its residual
    p = random_avi(100, 20, seed=(0, 0))
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-3, max_iter=5))
    exact = fresh_residual(p, rep.solution)
    assert rep.status == "iter_limit" and not p.C.contains(rep.solution)
    assert abs(rep.final_residual - exact) <= 1e-7
    assert rep.lower_bound.tolist() == [True] * 4 + [False]
    assert solvers._Run(p, None, "dr").residual_bound(rep.solution) < exact - 1e-3


def test_residual_csv_marks_bound_entries(tmp_path):
    p = random_avi(6, 5, seed=(77, 0))
    reps = [dr_solve(p, cfg=SolverConfig(tol=1e-8, max_iter=5000)),
            dr_solve(random_avi(10, 0, seed=41), cfg=SolverConfig(tol=1e-8))]
    path = tmp_path / "traces.csv"
    write_residual_csv([("dr", f"inst-{k}", r) for k, r in enumerate(reps)], path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    marks = [int(r["lower_bound"]) for r in rows]
    assert marks == reps[0].lower_bound.astype(int).tolist() + [0] * reps[1].iterations
    assert [float(r["residual"]) for r in rows] == reps[0].residuals + reps[1].residuals


# ---------------------------------------------------------------- baselines

def test_pgd_geometric_recursion():
    p = scalar_problem()
    cfg1 = SolverConfig(tol=1e-16, max_iter=1, step=0.5)
    assert pgd_solve(p, cfg1).solution[0] == pytest.approx(0.5)
    cfg2 = SolverConfig(tol=1e-16, max_iter=2, step=0.5)
    assert pgd_solve(p, cfg2).solution[0] == pytest.approx(0.75)
    rep = pgd_solve(p, SolverConfig(tol=1e-8, max_iter=100, step=0.5))
    assert rep.converged and rep.solution[0] == pytest.approx(1.0, abs=1e-7)


def test_pgd_warm_at_solution():
    rep = pgd_solve(scalar_problem(), SolverConfig(tol=1e-10, step=0.5), warm=[1.0])
    assert rep.iterations == 1


def test_pgd_rejects_out_of_range_step():
    p = scalar_problem()  # mu = L = 1, range (0, 2)
    with pytest.raises(InvalidConfig):
        pgd_solve(p, SolverConfig(step=2.0))
    with pytest.raises(InvalidConfig):
        pgd_solve(p, SolverConfig(step=-0.1))


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_pgd_default_step_at_extreme_scale(scale):
    # the default step mu / L^2 = 1/scale: L ** 2 overflowed (OverflowError)
    # at 1e160 and underflowed to a zero division at 1e-170
    p = AviProblem(scale * np.eye(2), -scale * np.ones(2),
                   Polyhedron([[1.0, 0.0]], [-2.0]))
    rep = pgd_solve(p, SolverConfig(tol=1e-8))
    assert rep.converged
    assert np.allclose(rep.solution, [1.0, 1.0], rtol=0.0, atol=1e-12)


def test_pgd_unrepresentable_default_step_needs_explicit_step():
    # mu = L = 1e-310: the default step 1/L overflows, so only cfg.step runs
    p = AviProblem(1e-310 * np.eye(2), np.zeros(2), Polyhedron.unconstrained(2))
    with pytest.raises(InvalidConfig, match="got inf"):
        pgd_solve(p)


def test_pgd_requires_strong_monotonicity():
    skew = AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                      Polyhedron.unconstrained(2))
    with pytest.raises(NotStronglyMonotone):
        pgd_solve(skew)


def huge_strongly_monotone_problem():
    # mu = L = 1e308: M + M' overflows although M is finite
    return AviProblem(1e308 * np.eye(2), np.array([1.0, -1.0]),
                      Polyhedron.unconstrained(2))


@pytest.mark.parametrize("solve", [pgd_solve, nagd_solve])
def test_strong_monotonicity_of_huge_finite_matrix(solve):
    assert monotonicity_constants(huge_strongly_monotone_problem().M).mu == 1e308
    rep = solve(huge_strongly_monotone_problem())
    assert rep.converged
    assert np.array_equal(rep.solution, [-1e-308, 1e-308])


def test_exgd_hand_rollout():
    # lambda = 0.9: y0 = 0.9, u1 = -0.9 * (0.9 - 1) = 0.09
    p = scalar_problem()
    rep = exgd_solve(p, SolverConfig(tol=1e-16, max_iter=1, step=0.9))
    assert rep.solution[0] == pytest.approx(0.09, abs=1e-12)


def test_exgd_warm_at_solution():
    rep = exgd_solve(scalar_problem(), SolverConfig(tol=1e-10), warm=[1.0])
    assert rep.iterations == 1


def test_exgd_converges_on_skew_where_pgd_cannot():
    skew = AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                      Polyhedron.unconstrained(2))
    rep = exgd_solve(skew, SolverConfig(tol=1e-6, max_iter=5000), warm=[1.0, 1.0])
    assert rep.converged
    assert np.max(np.abs(rep.solution)) < 1e-5


def test_nagd_first_update_is_projected_gradient_with_mu():
    # scalar: u0 = proj(y0 - F(y0)/mu); with mu = 1 this lands on u* at once
    p = scalar_problem()
    rep = nagd_solve(p, SolverConfig(tol=1e-12, max_iter=5), warm=[0.3])
    assert rep.iterations == 1
    assert rep.solution[0] == pytest.approx(1.0, abs=1e-12)


def test_nagd_warm_at_solution():
    rep = nagd_solve(scalar_problem(), SolverConfig(tol=1e-10), warm=[1.0])
    assert rep.iterations == 1
    assert rep.residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_nagd_requires_strong_monotonicity():
    skew = AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                      Polyhedron.unconstrained(2))
    with pytest.raises(NotStronglyMonotone):
        nagd_solve(skew)


def test_prgd_first_iteration_equals_pgd():
    p = random_avi(6, 3, 21)
    mono = monotonicity_constants(p.M)
    lam = mono.mu / mono.L ** 2  # admissible for both methods
    a = prgd_solve(p, SolverConfig(tol=1e-16, max_iter=1, step=lam))
    b = pgd_solve(p, SolverConfig(tol=1e-16, max_iter=1, step=lam))
    assert np.allclose(a.solution, b.solution, atol=1e-10)


def test_prgd_two_step_hand_rollout():
    p = scalar_problem()
    lam = 0.3
    rep = prgd_solve(p, SolverConfig(tol=1e-16, max_iter=2, step=lam))
    u0, um1 = 0.0, 0.0
    u1 = u0 - lam * ((2 * u0 - um1) - 1.0)
    u2 = u1 - lam * ((2 * u1 - u0) - 1.0)
    assert rep.solution[0] == pytest.approx(u2, abs=1e-12)


def test_prgd_rejects_out_of_range_step():
    with pytest.raises(InvalidConfig):
        prgd_solve(scalar_problem(), SolverConfig(step=0.5))  # bound ~0.414


def constant_operator_problem():
    """F(u) = (1, 0.5) over the box [-1, 1]^2: M = 0, so L = 0."""
    return AviProblem(np.zeros((2, 2)), np.array([1.0, 0.5]),
                      Polyhedron(np.vstack([np.eye(2), -np.eye(2)]),
                                 -np.ones(4)))


def test_agraal_guard_selects_growth_branch():
    # constant operator: F(u) - F(v) = 0, so the adaptive ratio degenerates
    p = constant_operator_problem()
    rep = agraal_solve(p, SolverConfig(tol=1e-8, max_iter=200, step=0.5))
    assert rep.converged
    assert np.allclose(rep.solution, [-1.0, -1.0], atol=1e-6)


@pytest.mark.parametrize("solver", [exgd_solve, prgd_solve])
def test_constant_operator_needs_explicit_step(solver):
    # L = 0 leaves no default step (as for aGRAAL); cfg.step runs
    p = constant_operator_problem()
    with pytest.raises(InvalidConfig, match="got inf"):
        solver(p)
    rep = solver(p, SolverConfig(tol=1e-8, max_iter=200, step=0.5))
    assert rep.converged
    assert np.allclose(rep.solution, [-1.0, -1.0], atol=1e-6)


def test_agraal_three_step_hand_rollout():
    M = np.array([[2.0, 0.5], [-0.5, 1.0]])
    q = np.array([-1.0, 0.5])
    p = AviProblem(M, q, Polyhedron.unconstrained(2))
    beta = (np.sqrt(5.0) - 1.0) / 2.0
    L = monotonicity_constants(M).L
    rep = agraal_solve(p, SolverConfig(tol=1e-16, max_iter=3))
    u_prev = None
    u = np.zeros(2)
    ybar = u.copy()
    lam_km1 = lam_km2 = 1.0 / L
    for k in range(3):
        if k == 0:
            lam_k = 1.0 / L
        else:
            grow = (beta + beta ** 2) * lam_km1
            dF = np.sum((M @ u - M @ u_prev) ** 2)
            du = np.sum((u - u_prev) ** 2)
            lam_k = grow if dF == 0 else min(grow, du / (4 * beta ** 2 * lam_km2 * dF))
        ybar = (1 - beta) * u + beta * ybar
        u_next = ybar - lam_k * (M @ u + q)  # C = R^2: projection is identity
        u_prev, u = u, u_next
        lam_km2, lam_km1 = lam_km1, lam_k
    assert np.allclose(rep.solution, u, atol=1e-12)


def test_agraal_warm_at_solution():
    rep = agraal_solve(scalar_problem(), SolverConfig(tol=1e-10), warm=[1.0])
    assert rep.iterations == 1


# ------------------------------------------------------- cross-solver checks

def test_all_solvers_agree_on_strongly_monotone_instance():
    p = random_avi(10, 4, 5)
    cfg = SolverConfig(tol=1e-8, max_iter=60_000)
    solutions = {}
    for algo in ALGORITHMS:
        rep = solve(p, algo, cfg)
        if rep.converged:
            solutions[algo] = rep.solution
            assert natural_residual(p, rep.solution) <= 1e-8 * 1.01
    assert len(solutions) >= 4
    names = sorted(solutions)
    for a in names:
        for b in names:
            assert np.max(np.abs(solutions[a] - solutions[b])) <= 1e-6


def test_reports_are_deterministic():
    p = random_avi(12, 5, 8)
    cfg = SolverConfig(tol=1e-6, max_iter=5000)
    r1 = dr_solve(p, cfg=cfg)
    r2 = dr_solve(p, cfg=cfg)
    assert np.array_equal(r1.solution, r2.solution)
    assert r1.residuals == r2.residuals
    assert r1.iterations == r2.iterations


def test_solve_dispatcher_rejects_unknown():
    with pytest.raises(InvalidConfig):
        solve(scalar_problem(), "newton")


@pytest.mark.parametrize("qp_tol", [0.0, -1.0, np.nan, np.inf])
def test_config_rejects_non_positive_qp_tol(qp_tol):
    # a negative qp_tol used to be accepted: every inner QP then missed its
    # tolerance while the run still reported converged
    with pytest.raises(InvalidConfig):
        SolverConfig(qp_tol=qp_tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_config_rejects_non_positive_or_non_finite_tol(tol):
    # tol = inf used to report converged at any residual, and tol = nan ran
    # to the iteration limit
    with pytest.raises(InvalidConfig):
        SolverConfig(tol=tol)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_warm_start_rejected(algorithm, bad):
    p = random_avi(10, 4, seed=1)
    warm = np.zeros(p.dim)
    warm[3] = bad
    with pytest.raises(NonFiniteData):
        solve(p, algorithm, SolverConfig(max_iter=5), warm=warm)


# inner QP solves per run of k iterations: each iterate costs one residual
# projection plus the algorithm's own solves; NAGD's lookahead projection
# after its last iterate is never made
QP_CALLS = {"dr": lambda k: 2 * k, "pgd": lambda k: 2 * k,
            "exgd": lambda k: 3 * k, "nagd": lambda k: 3 * k - 1,
            "prgd": lambda k: 2 * k, "agraal": lambda k: 2 * k}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_iteration_limit_pulls_no_extra_iterate(algorithm, monkeypatch):
    assert set(QP_CALLS) == set(ALGORITHMS)
    calls = []
    solve_qp = qp.QpEngine.solve

    def counted(engine, *args, **kwargs):
        calls.append(engine)
        return solve_qp(engine, *args, **kwargs)

    monkeypatch.setattr(qp.QpEngine, "solve", counted)
    p = random_avi(10, 4, seed=1)
    for k in (1, 2, 7):
        calls.clear()
        rep = solve(p, algorithm, SolverConfig(tol=1e-300, max_iter=k))
        assert rep.status == "iter_limit" and rep.iterations == k
        assert len(calls) == QP_CALLS[algorithm](k)


def test_dr_workspace_reuse_across_offsets():
    """One workspace serves a family of problems sharing (M, D): changing q
    and d must give the same solutions as fresh solves."""
    rng = np.random.default_rng(30)
    base = random_avi(8, 4, 30)
    ws = DrWorkspace(make_dr_splitting(base.M), base.C.D)
    cfg = SolverConfig(tol=1e-8, max_iter=2000)
    for _ in range(4):
        p = AviProblem(base.M, rng.normal(size=8),
                       Polyhedron(base.C.D, base.C.d + rng.uniform(-0.05, 0.3, 4)))
        shared = dr_solve(p, cfg, workspace=ws)
        fresh = dr_solve(p, cfg)
        assert shared.converged and fresh.converged
        assert np.max(np.abs(shared.solution - fresh.solution)) <= 1e-7


def test_dr_workspace_carries_duals_across_solves(monkeypatch):
    """Each dr_solve through a workspace starts its step-(a) and residual
    solves from the last duals of the previous one, as consecutive RHC
    steps do; that picks only the first active-set guess, so every answer
    matches a fresh solve to round-off, with equal iteration counts."""
    rng = np.random.default_rng(33)
    base = random_avi(20, 12, 33)
    ws = DrWorkspace(make_dr_splitting(base.M), base.C.D)
    first_duals = []
    step_solve = ws.step_engine.solve

    def recording(c, b=None, warm_dual=None, tol=qp.DEFAULT_TOL):
        first_duals.append(warm_dual)
        return step_solve(c, b=b, warm_dual=warm_dual, tol=tol)

    monkeypatch.setattr(ws.step_engine, "solve", recording)
    cfg = SolverConfig(tol=1e-6, max_iter=3000)
    q, d = base.q.copy(), base.C.d.copy()
    for k in range(8):
        q = q + 0.05 * rng.normal(size=20)
        d = d + 0.02 * rng.normal(size=12)
        p = AviProblem(base.M, q, Polyhedron(base.C.D, d))
        carried = dict(ws.duals)
        first_duals.clear()
        shared = dr_solve(p, cfg, workspace=ws)
        fresh = dr_solve(p, cfg)
        assert first_duals[0] is carried.get("a")
        assert (k == 0) == (not carried)
        assert shared.converged and fresh.converged
        assert shared.iterations == fresh.iterations
        assert np.max(np.abs(shared.solution - fresh.solution)) <= 1e-12
        assert np.allclose(shared.residuals, fresh.residuals, rtol=0.0, atol=1e-12)
        assert set(ws.duals) == {"a", "resid"}
        assert all(lam.shape == (12,) for lam in ws.duals.values())


def test_dr_workspace_shape_mismatch_rejected():
    base = random_avi(8, 4, 31)
    ws = DrWorkspace(make_dr_splitting(base.M), base.C.D)
    other = random_avi(6, 4, 31)
    with pytest.raises(InvalidConfig):
        dr_solve(other, SolverConfig(), workspace=ws)


def test_dr_workspace_carries_its_splitting():
    """A workspace holds the splitting it was built from, and a solve
    through it is bit-identical to a fresh solve, which builds the same
    splitting from p.M."""
    p = random_avi(30, 8, seed=5)
    s = make_dr_splitting(p.M)
    ws = DrWorkspace(s, p.C.D)
    assert ws.splitting is s
    cfg = SolverConfig(tol=1e-6, max_iter=3000)
    fresh = dr_solve(p, cfg)
    shared = dr_solve(p, cfg, workspace=ws)
    assert fresh.converged and shared.converged
    assert np.array_equal(shared.solution, fresh.solution)
    assert shared.residuals == fresh.residuals


def test_solvers_handle_unconstrained_instances():
    p = random_avi(10, 0, 32)
    assert p.C.n_rows == 0
    for algo in ("dr", "exgd", "agraal"):
        rep = solve(p, algo, SolverConfig(tol=1e-8, max_iter=4000))
        assert rep.converged
        assert np.max(np.abs(p.M @ rep.solution + p.q)) <= 1e-6


def test_dr_solves_an_empty_problem():
    # no variable and no row: the empty vector is the solution, and the
    # metric rule, which has no eigenvalue to read, leaves it alone
    p = AviProblem(np.zeros((0, 0)), np.zeros(0), Polyhedron.unconstrained(0))
    rep = dr_solve(p)
    assert rep.converged and rep.iterations == 1 and rep.solution.shape == (0,)


def test_residual_csv_schema(tmp_path):
    p = scalar_problem()
    rep = dr_solve(p, cfg=SolverConfig(tol=1e-6))
    path = tmp_path / "traces.csv"
    write_residual_csv([("dr", "inst-0", rep)], path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"algorithm", "instance_id", "iteration", "residual",
                            "lower_bound", "wall_time_s"}
    assert len(rows) == rep.iterations
    assert [int(r["iteration"]) for r in rows] == list(range(1, rep.iterations + 1))
    assert float(rows[-1]["residual"]) == rep.residuals[-1]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_inner_qp_misses_are_reported(algorithm):
    # qp_tol far below round-off: the inner solves return iter_limit, so a
    # run that meets tol must not report converged
    p = random_avi(12, 6, seed=21)
    exact = solve(p, algorithm, SolverConfig(tol=1e-4, max_iter=20000))
    assert exact.status == CONVERGED and exact.qp_not_optimal == 0
    rep = solve(p, algorithm, SolverConfig(tol=1e-4, max_iter=20000, qp_tol=1e-300))
    assert rep.qp_not_optimal > 0
    assert rep.status == INNER_INEXACT and not rep.converged
    assert rep.final_residual <= 1e-4
