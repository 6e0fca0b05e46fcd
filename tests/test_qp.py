import numpy as np
import pytest

from gamevi import qp as qp_module
from gamevi.avi import Polyhedron
from gamevi.errors import Infeasible
from gamevi.qp import (ITER_LIMIT, OPTIMAL, QpEngine, QpProblem,
                       certify_feasibility, solve_qp)

from oracles import kkt_enumerate


def make_box(lo, hi, n):
    return Polyhedron(np.vstack([np.eye(n), -np.eye(n)]),
                      np.concatenate([-hi * np.ones(n), lo * np.ones(n)]))


def random_problem(rng, n, m):
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    D = rng.normal(size=(m, n))
    d = -D @ rng.normal(size=n) - rng.uniform(0.1, 1.0, m)
    return QpProblem(P, c, Polyhedron(D, d))


def test_unconstrained_minimizer():
    sol = solve_qp(QpProblem(np.eye(2), [-1.0, -1.0], Polyhedron.unconstrained(2)))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.y, [1.0, 1.0])
    assert sol.lam.size == 0


def test_one_dimensional_kkt_by_hand():
    # min y^2 s.t. y >= 1  ->  y = 1, multiplier 2
    prob = QpProblem([[2.0]], [0.0], Polyhedron([[-1.0]], [1.0]))
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.lam[0] == pytest.approx(2.0, abs=1e-8)


def test_certified_infeasibility():
    C = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                   np.array([1.0, 0.0, 0.0]))  # u1+u2 <= -1, u >= 0
    with pytest.raises(Infeasible) as err:
        solve_qp(QpProblem(np.eye(2), np.zeros(2), C))
    assert err.value.slack < 0


def test_kkt_conditions_on_random_instances():
    rng = np.random.default_rng(0)
    tol = 1e-8
    for _ in range(25):
        prob = random_problem(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        sol = solve_qp(prob, tol=tol)
        assert sol.status == OPTIMAL
        D, d = prob.C.D, prob.C.d
        stationarity = prob.P @ sol.y + prob.c + D.T @ sol.lam
        assert np.max(np.abs(stationarity)) <= tol
        assert np.max(D @ sol.y + d) <= tol
        assert abs(sol.lam @ (D @ sol.y + d)) <= tol
        assert np.all(sol.lam >= 0.0)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        prob = random_problem(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        sol = solve_qp(prob, tol=1e-10)
        expected = kkt_enumerate(prob.P, prob.c, prob.C.D, prob.C.d)
        assert np.allclose(sol.y, expected, atol=1e-7)


def test_solution_unique_across_warm_starts():
    rng = np.random.default_rng(2)
    prob = random_problem(rng, 6, 4)
    tol = 1e-9
    a = solve_qp(prob, tol=tol)
    b = solve_qp(prob, tol=tol, warm_dual=rng.uniform(0, 1, 4))
    assert np.max(np.abs(a.y - b.y)) <= 10 * tol + 1e-10


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(3)
    prob = random_problem(rng, 5, 3)
    sol = solve_qp(prob)

    def obj(y):
        return 0.5 * y @ prob.P @ y + prob.c @ y

    count = 0
    while count < 100:
        y = rng.normal(size=5) * 2
        if np.max(prob.C.D @ y + prob.C.d) <= 0:
            assert obj(sol.y) <= obj(y) + 1e-8
            count += 1


def test_engine_reuse_with_changing_linear_term():
    rng = np.random.default_rng(4)
    n, m = 8, 5
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + np.eye(n)
    D = rng.normal(size=(m, n))
    b = D @ rng.normal(size=n) + rng.uniform(0.2, 1.0, m)
    engine = QpEngine(P, D)
    dual = None
    for _ in range(10):
        c = rng.normal(size=n)
        sol = engine.solve(c, b=b, warm_dual=dual, tol=1e-9)
        assert sol.status == OPTIMAL
        one_shot = solve_qp(QpProblem(P, c, Polyhedron(D, -b)), tol=1e-9)
        assert np.allclose(sol.y, one_shot.y, atol=1e-7)
        dual = sol.lam


def test_iter_limit_returns_best_iterate():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 6, 4)
    sol = solve_qp(prob, tol=1e-16)
    assert sol.status == ITER_LIMIT
    assert np.all(np.isfinite(sol.y))
    assert sol.kkt_residual < 1.0  # best iterate is still a reasonable point


def test_feasibility_phase_classifications():
    strict = certify_feasibility(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert strict.strictly_feasible and strict.feasible and strict.slack > 0.5
    marginal = certify_feasibility(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    assert marginal.feasible and not marginal.strictly_feasible
    empty = certify_feasibility(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]))
    assert not empty.feasible and empty.slack < 0
    free = certify_feasibility(np.zeros((0, 3)), np.zeros(0))
    assert free.strictly_feasible


def test_rejects_asymmetric_p():
    with pytest.raises(ValueError):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2),
                  Polyhedron.unconstrained(2))


def test_box_qp_active_at_bounds():
    # strongly pulled toward a corner outside the box
    prob = QpProblem(np.eye(3), np.array([-10.0, 10.0, 0.0]), make_box(-1, 1, 3))
    sol = solve_qp(prob)
    assert np.allclose(sol.y, [1.0, -1.0, 0.0], atol=1e-8)


def test_equality_encoded_as_paired_inequalities():
    # y = 1 via y <= 1 and -y <= -1 (degenerate duals); min 0.5 y^2 - 2y
    prob = QpProblem([[1.0]], [-2.0],
                     Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 1.0])))
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(sol.lam >= 0.0)


def test_duplicated_active_rows():
    # the same face twice: least-squares polish must split the multiplier
    D = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = np.array([-1.0, -1.0, -5.0])
    prob = QpProblem(np.eye(2), np.array([-3.0, 0.0]), Polyhedron(D, d))
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.y, [1.0, 0.0], atol=1e-8)
    assert sol.lam[0] + sol.lam[1] == pytest.approx(2.0, abs=1e-7)


def degenerate_problem(rng, n, m):
    """QP over m random rows plus copies of the first m // 2, and the set
    of the m distinct rows alone (the same polyhedron)."""
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + 0.5 * np.eye(n)
    c = rng.normal(size=n) * 3
    D = rng.normal(size=(m, n))
    d = -D @ rng.normal(size=n) - rng.uniform(0.1, 1.0, m)
    dup = m // 2
    return (QpProblem(P, c, Polyhedron(np.vstack([D, D[:dup]]),
                                       np.concatenate([d, d[:dup]]))),
            Polyhedron(D, d))


def test_kkt_enumerate_agrees_with_solve_qp_on_degenerate_rows():
    # duplicated rows and m > n distinct rows give rank-deficient active
    # sets, whose singular KKT systems the oracle must skip
    for seed in (1, 2, 3, 4, 186):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            prob, unique = degenerate_problem(rng, n, int(rng.integers(n + 1, 6)))
            sol = solve_qp(prob, tol=1e-10)
            assert sol.status == OPTIMAL
            for C in (prob.C, unique):
                assert np.allclose(kkt_enumerate(prob.P, prob.c, C.D, C.d),
                                   sol.y, atol=1e-7)


def test_least_distance_fallback_on_degenerate_instances():
    # neither direct guess succeeds on a good share of these; the exact
    # fallback must then reach the tolerance and agree with the oracle.
    # Each instance is solved again with an all-zero row violated by 1e-11,
    # as best_response builds them; that row must not empty the set.
    rng = np.random.default_rng(6)
    tol = 1e-10
    fallbacks = [0, 0]
    for _ in range(30):
        n = int(rng.integers(2, 5))
        prob, _ = degenerate_problem(rng, n, int(rng.integers(n + 1, 6)))
        expected = kkt_enumerate(prob.P, prob.c, prob.C.D, prob.C.d)
        round_off = Polyhedron(np.vstack([prob.C.D, np.zeros((1, n))]),
                               np.append(prob.C.d, 1e-11))
        for k, C in enumerate([prob.C, round_off]):
            sol = solve_qp(QpProblem(prob.P, prob.c, C), tol=tol)
            assert sol.status == OPTIMAL
            assert sol.kkt_residual <= tol
            assert np.allclose(sol.y, expected, atol=1e-7)
            fallbacks[k] += sol.iterations == 1
    assert min(fallbacks) >= 5


def test_least_distance_certifies_infeasibility(monkeypatch):
    # u1 <= -1 (twice), u1 >= 1, u2 <= 0: empty, and only the fallback sees it
    calls = []
    nnls = qp_module.nnls

    def counting_nnls(A, b):
        calls.append(A.shape)
        return nnls(A, b)

    monkeypatch.setattr(qp_module, "nnls", counting_nnls)
    C = Polyhedron(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.array([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(Infeasible) as err:
        solve_qp(QpProblem(np.eye(2), np.array([0.0, -1.0]), C))
    assert calls
    assert err.value.slack < 0
