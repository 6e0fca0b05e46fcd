import json

import numpy as np
import pytest

from gamevi.avi import (AviProblem, Polyhedron, monotonicity_constants,
                        natural_residual, project, read_avi, validate,
                        write_avi)
from gamevi.errors import GameViError, Infeasible, NonFiniteData, SpecError

from oracles import kkt_enumerate, project_enumerate


def box(lo, hi, n):
    return Polyhedron(np.vstack([np.eye(n), -np.eye(n)]),
                      np.concatenate([-hi * np.ones(n), lo * np.ones(n)]))


def test_project_idempotent_inside():
    C = box(-1.0, 1.0, 2)
    v = np.array([0.3, -0.7])
    assert np.allclose(project(C, v), v)


def test_project_halfline_clamp():
    C = Polyhedron([[-1.0]], [1.0])  # u >= 1
    assert np.allclose(project(C, [0.0]), [1.0])


def test_project_box_componentwise():
    C = box(-1.0, 1.0, 2)
    assert np.allclose(project(C, [3.0, -0.5]), [1.0, -0.5])


def test_project_unconstrained_is_identity():
    C = Polyhedron.unconstrained(3)
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(project(C, v), v)


def test_problem_rejects_non_finite_data():
    C = Polyhedron.unconstrained(2)
    for M, q in [([[1.0, np.nan], [0.0, 1.0]], [0.0, 0.0]),
                 (np.eye(2), [np.inf, 0.0])]:
        with pytest.raises(NonFiniteData) as err:
            AviProblem(M, q, C)
        assert isinstance(err.value, GameViError)
        assert isinstance(err.value, ValueError)
    with pytest.raises(NonFiniteData):
        Polyhedron([[np.nan]], [0.0])


def test_project_infeasible_raises():
    C = Polyhedron([[1.0], [-1.0]], [0.0, 1.0])  # u <= 0 and u >= 1
    with pytest.raises(Infeasible):
        project(C, [0.5])


def test_projection_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 5)
        m = rng.integers(1, 5)
        D = rng.normal(size=(m, n))
        u0 = rng.normal(size=n)
        d = -D @ u0 - rng.uniform(0.1, 1.0, size=m)
        C = Polyhedron(D, d)
        v = rng.normal(size=n) * 2.0
        expected = project_enumerate(D, d, v)
        assert np.allclose(project(C, v), expected, atol=1e-7)


def test_projection_firmly_nonexpansive():
    rng = np.random.default_rng(5)
    C = box(-1.0, 2.0, 3)
    for _ in range(50):
        v, w = rng.normal(size=3) * 3, rng.normal(size=3) * 3
        pv, pw = project(C, v), project(C, w)
        assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-10


def test_natural_residual_hand_values():
    p = AviProblem([[1.0]], [-1.0], Polyhedron.unconstrained(1))
    assert natural_residual(p, [0.0]) == pytest.approx(1.0)
    p2 = AviProblem([[1.0]], [0.0], Polyhedron([[-1.0]], [1.0]))
    assert natural_residual(p2, [1.0]) == pytest.approx(0.0, abs=1e-10)


def test_natural_residual_zero_at_solution():
    rng = np.random.default_rng(11)
    n, m = 4, 3
    M = rng.normal(size=(n, n))
    M = 0.5 * np.eye(n) + M @ M.T / n
    q = rng.normal(size=n)
    D = rng.normal(size=(m, n))
    d = -D @ rng.normal(size=n) - rng.uniform(0.2, 1.0, m)
    p = AviProblem(M, q, Polyhedron(D, d))
    u_star = kkt_enumerate(M, q, D, d)
    assert natural_residual(p, u_star) < 5e-8
    # and strictly positive away from it
    assert natural_residual(p, u_star + 0.1) > 1e-3


def test_natural_residual_cross_checked_with_kkt_oracle():
    """r(u) = 0 iff u solves the VI, on enumeration-sized instances."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = rng.integers(2, 7)
        m = rng.integers(1, 5)
        M = rng.normal(size=(n, n))
        M = 0.3 * np.eye(n) + M @ M.T / n + (M - M.T) / 4
        q = rng.normal(size=n)
        D = rng.normal(size=(m, n))
        d = -D @ rng.normal(size=n) - rng.uniform(0.2, 1.0, m)
        p = AviProblem(M, q, Polyhedron(D, d))
        u_star = kkt_enumerate(M, q, D, d)
        assert natural_residual(p, u_star) < 5e-8


def test_monotonicity_identity():
    c = monotonicity_constants(np.eye(3))
    assert c.mu == pytest.approx(1.0)
    assert c.L == pytest.approx(1.0)


def test_monotonicity_skew():
    c = monotonicity_constants([[0.0, 1.0], [-1.0, 0.0]])
    assert c.mu == pytest.approx(0.0, abs=1e-12)
    assert c.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert c.L == pytest.approx(1.0)
    assert not c.strongly_monotone


def test_monotonicity_upper_triangular():
    c = monotonicity_constants([[2.0, 1.0], [0.0, 2.0]])
    assert c.mu == pytest.approx(1.5)


def test_monotonicity_inequalities_random_pairs():
    rng = np.random.default_rng(17)
    M = rng.normal(size=(5, 5))
    c = monotonicity_constants(M)
    for _ in range(1000):
        u, v = rng.normal(size=5), rng.normal(size=5)
        du = u - v
        gap = float((M @ du) @ du)
        assert gap >= c.lambda_min * du @ du - 1e-9
        assert np.linalg.norm(M @ du) <= c.L * np.linalg.norm(du) + 1e-9


def test_validate_well_formed():
    p = AviProblem(np.eye(2), np.zeros(2), box(-1.0, 1.0, 2))
    diag = validate(p)
    assert diag.ok
    assert diag.strictly_feasible
    assert diag.messages == []


def test_validate_skew_flags_monotonicity():
    p = AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2), box(-1.0, 1.0, 2))
    diag = validate(p)
    assert not diag.strongly_monotone
    assert any("monotone" in msg for msg in diag.messages)


def test_validate_contradictory_rows():
    C = Polyhedron([[1.0], [-1.0]], [0.0, 1.0])  # u <= 0 and u >= 1
    p = AviProblem([[1.0]], [0.0], C)
    diag = validate(p)
    assert not diag.feasible
    assert diag.slack < 0
    assert any("infeasible" in msg for msg in diag.messages)


def test_json_round_trip_bit_faithful(tmp_path):
    rng = np.random.default_rng(23)
    n, m = 5, 3
    M = rng.normal(size=(n, n)) * np.pi
    q = rng.normal(size=n) / 3.0
    D = rng.normal(size=(m, n)) * 1e-7
    d = rng.normal(size=m) * 1e9
    p = AviProblem(M, q, Polyhedron(D, d))
    path = tmp_path / "avi.json"
    write_avi(p, path)
    p2 = read_avi(path)
    assert np.array_equal(p2.M, p.M)
    assert np.array_equal(p2.q, p.q)
    assert np.array_equal(p2.C.D, p.C.D)
    assert np.array_equal(p2.C.d, p.C.d)


GOOD_AVI = {"n": 2, "m": 1, "M": [2.0, 0.0, 0.0, 1.0], "q": [0.0, 1.0],
            "D": [1.0, 1.0], "d": [-1.0]}


@pytest.mark.parametrize("text", [
    json.dumps(dict(GOOD_AVI, n="x")),              # wrong JSON type
    json.dumps(dict(GOOD_AVI, n=None)),
    json.dumps(dict(GOOD_AVI, M=[[2.0, 0.0], [1.0]])),  # ragged matrix
    json.dumps(dict(GOOD_AVI, q="abc")),
    json.dumps(GOOD_AVI)[:-5],                      # truncated file
    "[1, 2]",                                       # not an object
], ids=["n-string", "n-null", "ragged-M", "q-string", "truncated", "list"])
def test_read_avi_malformed_file_raises_spec_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SpecError, match="bad.json"):
        read_avi(path)
