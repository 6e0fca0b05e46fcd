import collections
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gamevi import qp as qp_module
from gamevi.avi import Polyhedron
from gamevi.errors import (DimensionMismatch, GameViError, Infeasible,
                           NonFiniteData, NotStronglyMonotone, NotSymmetric)
from gamevi.qp import ITER_LIMIT, OPTIMAL, QpEngine, certify_feasibility

from oracles import kkt_enumerate

# min 0.5 y'Py + c'y over the polyhedron C = {y : Dy + d <= 0}
Qp = collections.namedtuple("Qp", "P c C")


def solve(prob, tol=qp_module.DEFAULT_TOL, warm_dual=None):
    """One solve of prob by a fresh engine."""
    return QpEngine(prob.P, prob.C.D).solve(prob.c, b=-prob.C.d, warm_dual=warm_dual,
                                            tol=tol)


def make_box(lo, hi, n):
    return Polyhedron(np.vstack([np.eye(n), -np.eye(n)]),
                      np.concatenate([-hi * np.ones(n), lo * np.ones(n)]))


def random_problem(rng, n, m):
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    D = rng.normal(size=(m, n))
    d = -D @ rng.normal(size=n) - rng.uniform(0.1, 1.0, m)
    return Qp(P, c, Polyhedron(D, d))


def test_unconstrained_minimizer():
    sol = solve(Qp(np.eye(2), [-1.0, -1.0], Polyhedron.unconstrained(2)))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.y, [1.0, 1.0])
    assert sol.lam.size == 0


def test_one_dimensional_kkt_by_hand():
    # min y^2 s.t. y >= 1  ->  y = 1, multiplier 2
    prob = Qp([[2.0]], [0.0], Polyhedron([[-1.0]], [1.0]))
    sol = solve(prob)
    assert sol.status == OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.lam[0] == pytest.approx(2.0, abs=1e-8)


def test_certified_infeasibility():
    C = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                   np.array([1.0, 0.0, 0.0]))  # u1+u2 <= -1, u >= 0
    with pytest.raises(Infeasible) as err:
        solve(Qp(np.eye(2), np.zeros(2), C))
    assert err.value.slack < 0


def test_kkt_conditions_on_random_instances():
    rng = np.random.default_rng(0)
    tol = 1e-8
    for _ in range(25):
        prob = random_problem(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        sol = solve(prob, tol=tol)
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
        sol = solve(prob, tol=1e-10)
        expected = kkt_enumerate(prob.P, prob.c, prob.C.D, prob.C.d)
        assert np.allclose(sol.y, expected, atol=1e-7)


def test_solution_unique_across_warm_starts():
    rng = np.random.default_rng(2)
    prob = random_problem(rng, 6, 4)
    tol = 1e-9
    a = solve(prob, tol=tol)
    b = solve(prob, tol=tol, warm_dual=rng.uniform(0, 1, 4))
    assert np.max(np.abs(a.y - b.y)) <= 10 * tol + 1e-10


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(3)
    prob = random_problem(rng, 5, 3)
    sol = solve(prob)

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
        one_shot = solve(Qp(P, c, Polyhedron(D, -b)), tol=1e-9)
        assert np.allclose(sol.y, one_shot.y, atol=1e-7)
        dual = sol.lam


def test_iter_limit_returns_best_iterate():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 6, 4)
    sol = solve(prob, tol=1e-16)
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
        QpEngine(np.array([[1.0, 0.5], [0.0, 1.0]]), make_box(-1, 1, 2).D)


def test_asymmetric_p_raises_not_symmetric():
    # the engine's Cholesky factor reads one triangle of P, so it used to
    # solve the QP of a different matrix and blame the iteration count
    P = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NotSymmetric):
        QpEngine(P, np.zeros((0, 2)))
    assert issubclass(NotSymmetric, GameViError)
    # asymmetry within 1e-12 relative is accepted
    near = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
    sol = QpEngine(near, np.zeros((0, 2))).solve(np.ones(2), b=np.zeros(0))
    assert sol.optimal


def test_identity_metric_detected_exactly():
    # P = I skips every solve with P, so only P == I entrywise may take it
    # (a -0.0 off the diagonal compares equal to 0.0)
    signed_zero = np.eye(3)
    signed_zero[0, 1] = signed_zero[1, 0] = -0.0
    for P in (np.eye(3), signed_zero):
        assert QpEngine(P, np.zeros((0, 3)))._identity
    # a diagonal entry a few ulps above 1, and off-diagonal entries of 1e-300
    # (the diagonal stays 1.0 exactly)
    for P in (np.diag([1.0, 1.0, 1.0 + 1e-15]), np.eye(3) + 1e-300):
        assert not QpEngine(P, np.zeros((0, 3)))._identity


def test_typed_errors_at_the_qp_boundary():
    # each used to escape as numpy's LinAlgError, scipy's ValueError or a
    # bare ValueError; each is now a GameViError and still a ValueError
    box = make_box(-1, 1, 2)
    engine = QpEngine(np.eye(2), box.D)
    cases = [
        (NotStronglyMonotone, lambda: QpEngine(np.diag([1.0, -1.0]), box.D)),
        (NotStronglyMonotone, lambda: QpEngine(np.zeros((2, 2)), box.D)),
        (NonFiniteData, lambda: QpEngine([[1.0, np.nan], [np.nan, 1.0]], box.D)),
        (NonFiniteData, lambda: QpEngine(np.diag([np.inf, 1.0]), box.D)),
        (DimensionMismatch, lambda: QpEngine(np.ones(2), box.D)),
        (DimensionMismatch, lambda: QpEngine(np.eye(3), box.D)),
        (DimensionMismatch, lambda: QpEngine(np.eye(2), np.ones(2))),
        (DimensionMismatch, lambda: engine.solve(np.zeros(3), b=np.ones(4))),
        (DimensionMismatch, lambda: engine.solve(np.zeros(2))),
        (DimensionMismatch, lambda: engine.solve(np.array([5.0, 0.0]), b=np.ones(4),
                                                 warm_dual=np.ones(3))),
    ]
    for error, call in cases:
        with pytest.raises(error) as err:
            call()
        assert isinstance(err.value, GameViError) and isinstance(err.value, ValueError)


def test_box_qp_active_at_bounds():
    # strongly pulled toward a corner outside the box
    prob = Qp(np.eye(3), np.array([-10.0, 10.0, 0.0]), make_box(-1, 1, 3))
    sol = solve(prob)
    assert np.allclose(sol.y, [1.0, -1.0, 0.0], atol=1e-8)


def test_equality_encoded_as_paired_inequalities():
    # y = 1 via y <= 1 and -y <= -1 (degenerate duals); min 0.5 y^2 - 2y
    prob = Qp([[1.0]], [-2.0],
              Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 1.0])))
    sol = solve(prob)
    assert sol.status == OPTIMAL
    assert sol.y[0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(sol.lam >= 0.0)


def test_duplicated_active_rows():
    # the same face twice: the two copies share the multiplier
    D = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = np.array([-1.0, -1.0, -5.0])
    prob = Qp(np.eye(2), np.array([-3.0, 0.0]), Polyhedron(D, d))
    sol = solve(prob)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.y, [1.0, 0.0], atol=1e-8)
    assert sol.lam[0] + sol.lam[1] == pytest.approx(2.0, abs=1e-7)
    # the singular Schur complement of rows {0, 1}, the start set, is
    # cached as None, and every later call starts from the empty set
    engine = QpEngine(prob.P, D)
    for _ in range(2):
        again = engine.solve(prob.c, b=-d)
        assert again.status == OPTIMAL
        assert np.allclose(again.y, sol.y, atol=1e-12)
    assert engine._factors[np.array([0, 1]).tobytes()] is None


def degenerate_problem(rng, n, m):
    """QP over m random rows plus copies of the first m // 2, and the set
    of the m distinct rows alone (the same polyhedron)."""
    L = rng.normal(size=(n, n))
    P = L @ L.T / n + 0.5 * np.eye(n)
    c = rng.normal(size=n) * 3
    D = rng.normal(size=(m, n))
    d = -D @ rng.normal(size=n) - rng.uniform(0.1, 1.0, m)
    dup = m // 2
    return (Qp(P, c, Polyhedron(np.vstack([D, D[:dup]]),
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
            sol = solve(prob, tol=1e-10)
            assert sol.status == OPTIMAL
            for C in (prob.C, unique):
                assert np.allclose(kkt_enumerate(prob.P, prob.c, C.D, C.d),
                                   sol.y, atol=1e-7)


def test_dual_active_set_on_degenerate_instances():
    # the start set misses on a good share of these; the dual active-set
    # steps must then reach the tolerance and agree with the oracle.
    # Each instance is solved again with an all-zero row violated by 1e-11,
    # as best_response builds them; that row must not empty the set. The
    # test also counts the engines that met an active set whose Schur
    # complement was singular (cached as None).
    rng = np.random.default_rng(6)
    tol = 1e-10
    fallbacks = [0, 0]
    singular = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        prob, _ = degenerate_problem(rng, n, int(rng.integers(n + 1, 6)))
        expected = kkt_enumerate(prob.P, prob.c, prob.C.D, prob.C.d)
        round_off = Polyhedron(np.vstack([prob.C.D, np.zeros((1, n))]),
                               np.append(prob.C.d, 1e-11))
        for k, C in enumerate([prob.C, round_off]):
            engine = QpEngine(prob.P, C.D)
            sol = engine.solve(prob.c, b=-C.d, tol=tol)
            assert sol.status == OPTIMAL
            assert sol.kkt_residual <= tol
            assert np.allclose(sol.y, expected, atol=1e-7)
            fallbacks[k] += sol.iterations == 1
            singular += any(f is None for f in engine._factors.values())
    assert min(fallbacks) >= 5
    assert singular >= 5


def test_dual_active_set_certifies_infeasibility(monkeypatch):
    # u1 <= -1 (twice), u1 >= 1, u2 <= 0: empty, and only the dual
    # active-set steps see it: they then have no step and ask the slack LP
    calls = []
    certify = qp_module.certify_feasibility

    def counting_certify(D, d):
        calls.append(D.shape)
        return certify(D, d)

    monkeypatch.setattr(qp_module, "certify_feasibility", counting_certify)
    C = Polyhedron(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                   np.array([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(Infeasible) as err:
        solve(Qp(np.eye(2), np.array([0.0, -1.0]), C))
    assert calls == [(4, 2)]
    assert err.value.slack < 0


def test_non_finite_data_rejected():
    # a NaN offset used to pass: the certificate dropped the NaN violation
    # and reported an optimal solution with KKT residual 0
    engine = QpEngine(np.eye(2), np.eye(2))
    with pytest.raises(NonFiniteData):
        engine.solve(np.array([-1.0, -1.0]), b=np.array([np.nan, 0.0]))
    with pytest.raises(NonFiniteData):
        engine.solve(np.array([np.inf, -1.0]), b=np.zeros(2))
    general = QpEngine(np.diag([2.0, 3.0]), np.eye(2))
    with pytest.raises(NonFiniteData):
        general.solve(np.array([np.nan, -1.0]), b=np.zeros(2))
    with pytest.raises(NonFiniteData):
        QpEngine(np.eye(2), np.array([[1.0, np.nan]]))


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_finite_data_with_overflowing_square_sum_accepted():
    # the engine's finiteness test first sums c'c + b'b, which overflows
    # (with numpy's warning) here; only then is each entry tested
    engine = QpEngine(np.eye(2), np.eye(2))
    sol = engine.solve(np.array([-1e200, 1.0]), b=np.array([1e200, 0.0]))
    assert sol.optimal and np.array_equal(sol.y, [1e200, -1.0])
    with pytest.raises(NonFiniteData):
        engine.solve(np.array([-1e200, 1.0]), b=np.array([1e200, -np.inf]))


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kkt_certificate_rejects_non_finite_terms(position, bad):
    terms = [np.zeros(3), np.full(2, -1.0), 0.0]
    if position == 2:
        terms[2] = bad
    else:
        terms[position][1] = bad
    assert not qp_module._kkt_error(*terms) <= 1.0


def spd(rng, n):
    L = rng.normal(size=(n, n))
    return L @ L.T / n + 0.5 * np.eye(n)


def count_factorizations(monkeypatch):
    """Record the size of every Schur-complement factorization."""
    calls = []
    dpotrf = qp_module.dpotrf
    monkeypatch.setattr(qp_module, "dpotrf",
                        lambda S: calls.append(S.shape[0]) or dpotrf(S))
    return calls


@pytest.mark.parametrize("metric", ["identity", "spd"])
def test_cached_factors_agree_with_fresh_engines(metric, monkeypatch):
    # a warm-started family sharing (P, D): every answer matches a fresh
    # engine and the enumeration oracle, and each distinct active set is
    # factored exactly once
    factored = count_factorizations(monkeypatch)
    rng = np.random.default_rng(11)
    n, m = 5, 6
    P = np.eye(n) if metric == "identity" else spd(rng, n)
    D = rng.normal(size=(m, n))
    b = D @ rng.normal(size=n) + rng.uniform(0.1, 0.5, m)
    engine = QpEngine(P, D)
    factored.clear()  # the engine factors P itself through dpotrf too
    c0, direction = 3.0 * rng.normal(size=n), rng.normal(size=n)
    family, dual = [], None
    for k in range(40):
        c = c0 + 0.1 * k * direction
        family.append((c, dual, engine.solve(c, b=b, warm_dual=dual, tol=1e-10)))
        dual = family[-1][2].lam
    polished = sum(s.iterations == 0 and bool(np.any(s.lam)) for _, _, s in family)
    assert polished >= 30
    assert 0 < len(factored) == len(engine._factors) < polished
    for c, dual, sol in family:
        fresh = QpEngine(P, D).solve(c, b=b, warm_dual=dual, tol=1e-10)
        assert sol.status == fresh.status == OPTIMAL
        assert np.allclose(sol.y, fresh.y, atol=1e-10)
        assert np.allclose(sol.y, kkt_enumerate(P, c, D, -b), atol=1e-7)


def test_factor_cache_is_bounded(monkeypatch):
    # more distinct active sets than the bound: the cache keeps exactly
    # _FACTOR_CACHE of them and every answer still certifies
    calls = count_factorizations(monkeypatch)
    rng = np.random.default_rng(12)
    n = 10
    D = np.vstack([np.eye(n), -np.eye(n)])
    b = np.ones(2 * n)
    tol = 1e-10
    for P in (np.eye(n), spd(rng, n)):
        calls.clear()
        engine = QpEngine(P, D)
        family = [4.0 * rng.normal(size=n) for _ in range(200)]
        solutions = [engine.solve(c, b=b, tol=tol) for c in family]
        assert len(calls) > qp_module._FACTOR_CACHE
        assert len(engine._factors) == qp_module._FACTOR_CACHE
        for c, sol in zip(family, solutions):
            assert sol.status == OPTIMAL and sol.kkt_residual <= tol
            assert np.max(D @ sol.y - b) <= tol
            fresh = QpEngine(P, D).solve(c, b=b, tol=tol)
            assert np.allclose(sol.y, fresh.y, atol=1e-9)


def test_near_singular_start_set_starts_from_empty_set():
    # row 3 duplicates row 0: in floating point the Cholesky factorization
    # of S_A succeeds with a pivot near 1e-8, which the pivot test rejects,
    # so the start set (all four rows violated) is replaced by the empty
    # set and the dual active-set steps split row 0's multiplier between
    # the two copies, not necessarily evenly
    rng = np.random.default_rng(0)
    D3 = np.eye(3, 5) + 0.1 * rng.normal(size=(3, 5))
    D = np.vstack([D3, D3[:1]])
    assert qp_module.dpotrf(D @ D.T)[1] == 0
    y_star = np.linalg.svd(D3)[2][-1]  # D3 y_star = 0
    c = -(y_star + D3.T @ np.array([1.0, 0.5, 0.8]))
    engine = QpEngine(np.eye(5), D)
    sol = engine.solve(c, b=np.zeros(4), tol=1e-10)
    assert sol.status == OPTIMAL and sol.kkt_residual <= 1e-10
    assert np.allclose(sol.y, y_star, atol=1e-9)
    assert np.all(sol.lam >= 0.0)
    assert np.allclose(sol.lam[[1, 2]], [0.5, 0.8], atol=1e-9)
    assert sol.lam[0] + sol.lam[3] == pytest.approx(1.0, abs=1e-9)
    assert engine._factors[np.arange(4).tobytes()] is None


def solve_and_check(engine, P, c, D, b, tol, warm_dual=None):
    """Solve, assert the KKT certificate and the enumeration oracle, and
    return the solution."""
    sol = engine.solve(c, b=b, warm_dual=warm_dual, tol=tol)
    assert sol.status == OPTIMAL and sol.kkt_residual <= tol
    assert np.max(D @ sol.y - b) <= tol and np.all(sol.lam >= 0.0)
    assert np.allclose(sol.y, kkt_enumerate(P, c, D, -b), atol=1e-7)
    return sol


@pytest.mark.parametrize("metric", ["identity", "spd"])
def test_dual_active_set_from_warm_sets_off_by_rows(metric):
    # warm duals on the exact active set with one or two rows dropped,
    # added or swapped: the warm start set often misses, and the dual
    # active-set steps from it must still end at the oracle's point
    rng = np.random.default_rng(21)
    tol = 1e-10
    fallbacks = 0
    for _ in range(40):
        n, m = 5, 8
        P = np.eye(n) if metric == "identity" else spd(rng, n)
        D = rng.normal(size=(m, n))
        b = D @ rng.normal(size=n) + rng.uniform(0.05, 0.5, m)
        c = 4.0 * rng.normal(size=n)
        engine = QpEngine(P, D)
        exact = engine.solve(c, b=b, tol=tol)
        warm = (exact.lam > 0.0).astype(float)
        for row in rng.choice(m, int(rng.integers(1, 3)), replace=False):
            warm[row] = 1.0 - warm[row]
        sol = solve_and_check(engine, P, c, D, b, tol, warm_dual=warm)
        assert np.allclose(sol.y, exact.y, atol=1e-10)
        fallbacks += sol.iterations == 1
    assert fallbacks >= 15


@pytest.mark.parametrize("metric", ["identity", "spd"])
def test_start_rule_edge_cases(metric):
    # two warm starts: an all-zero warm dual, left by a solve that took the
    # free exit, and a numerically singular warm set (row 5 duplicates row
    # 0, and both are warm), which is cached as None and replaced by the
    # empty set; both must end at the oracle's point
    rng = np.random.default_rng(23)
    tol = 1e-10
    n = 4
    P = np.eye(n) if metric == "identity" else spd(rng, n)
    D = rng.normal(size=(5, n))
    y_star = rng.normal(size=n)
    b = D @ y_star + np.concatenate([[0.0, 0.0], rng.uniform(0.1, 0.5, 3)])
    D, b = np.vstack([D, D[:1]]), np.append(b, b[0])
    c = -(P @ y_star + D[0] + 0.5 * D[1])  # rows 0 and 1 active at y_star
    engine = QpEngine(P, D)
    interior = certify_feasibility(D, -b)
    assert interior.strictly_feasible
    free = engine.solve(-P @ interior.point, b=b, tol=tol)
    assert free.optimal and free.iterations == 0 and not np.any(free.lam)
    singular = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.5])
    for warm in (free.lam, singular):
        sol = solve_and_check(engine, P, c, D, b, tol, warm_dual=warm)
        assert np.allclose(sol.y, y_star, atol=1e-9)
        assert sol.lam[0] + sol.lam[5] == pytest.approx(1.0, abs=1e-9)
        assert sol.iterations == 1
    assert engine._factors[np.array([0, 1, 5]).tobytes()] is None


def collinear_problem(rng, n):
    """QP whose rows include a positive multiple of one row (the same
    half-space or a parallel one) and a negative multiple of another (a
    slab, an equality when both slacks are 0), as the crossroad's D has;
    the slacks at a feasible point are 0 (the point on the face) or not."""
    m = n + 2
    D = rng.normal(size=(m, n))
    i, j = rng.choice(m, 2, replace=False)
    alpha = rng.uniform(0.5, 2.0, 2)
    D = np.vstack([D, alpha[0] * D[i], -alpha[1] * D[j]])
    b = D @ rng.normal(size=n) + rng.choice([0.0, 0.0, 0.2, 0.5], size=m + 2)
    return D, b, 3.0 * rng.normal(size=n)


@pytest.mark.parametrize("metric", ["identity", "spd"])
def test_dual_active_set_on_collinear_rows(metric):
    rng = np.random.default_rng(22)
    tol = 1e-10
    fallbacks = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        P = np.eye(n) if metric == "identity" else spd(rng, n)
        D, b, c = collinear_problem(rng, n)
        sol = solve_and_check(QpEngine(P, D), P, c, D, b, tol)
        fallbacks += sol.iterations == 1
    assert fallbacks >= 25


def test_feasible_solves_do_not_import_scipy_optimize():
    # only the slack LP of certify_feasibility needs scipy.optimize, which
    # costs about 20 MB resident; the dual active-set steps must not load it
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import gamevi
        from gamevi.qp import QpEngine
        D = np.array([[0.0, -2.3], [-0.2, -1.2], [-0.7, -0.5]])
        engine = QpEngine(np.eye(2), D)
        sol = engine.solve(np.array([-0.4, 4.1]), b=np.array([0.5, 0.3, 0.4]))
        assert sol.optimal and sol.iterations == 1, sol
        print("scipy.optimize" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
