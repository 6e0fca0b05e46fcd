import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gamevi import game, rhc, scenario, solvers


@pytest.fixture(scope="session")
def crossroad4():
    """Compiled 4-vehicle crossroad game (shared; compilation is not free)."""
    spec = scenario.default_15_vehicle_spec().prefix(4)
    g = scenario.build_crossroad(spec, horizon=10)
    compiled = game.compile_vi(g)
    return spec, g, compiled


@pytest.fixture(scope="session")
def crossroad15():
    """Compiled 15-vehicle crossroad game, the `gamevi crossroad` default."""
    spec = scenario.default_15_vehicle_spec()
    g = scenario.build_crossroad(spec, horizon=10)
    return spec, g, game.compile_vi(g)


@pytest.fixture(scope="session")
def crossroad15_run(crossroad15):
    """The 300-step crossroad closed loop from the default start at tol 1e-3
    (the `gamevi crossroad` defaults): its trace, and every state the loop
    passed to in_terminal_set with the answer."""
    spec, _, compiled = crossroad15
    calls = []
    test = rhc.in_terminal_set

    def recording(c, x, *args, **kwargs):
        accepted = test(c, x, *args, **kwargs)
        calls.append((np.array(x, dtype=float), accepted))
        return accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rhc, "in_terminal_set", recording)
        trace = rhc.simulate(compiled, scenario.default_initial_state(spec), 300,
                             solvers.SolverConfig(tol=1e-3, max_iter=5000))
    return trace, calls


@pytest.fixture(scope="session")
def small_game2():
    """Strongly monotone 2-agent game with box and state constraints."""
    rng = np.random.default_rng(42)
    n = 3
    A = rng.normal(size=(n, n))
    A = 0.85 * A / max(abs(np.linalg.eigvals(A)))
    B = [rng.normal(size=(n, 1)), rng.normal(size=(n, 2))]
    Q = [np.eye(n), 0.5 * np.eye(n)]
    R = [4.0 * np.eye(1), 4.0 * np.eye(2)]
    Du = [np.vstack([np.array([[1.0], [-1.0]]), np.zeros((4, 1))]),
          np.vstack([np.zeros((2, 2)), np.eye(2), -np.eye(2)])]
    du = np.full(6, -2.0)
    Dx = np.vstack([np.eye(n), -np.eye(n)])
    dx = np.full(2 * n, -8.0)
    g = game.LqGame.from_stage_constraints(A, B, Q, R, T=4, Du=Du, du=du,
                                           Dx=Dx, dx=dx)
    return g, game.compile_vi(g)


@pytest.fixture
def residual_bounds(monkeypatch):
    """Every solvers._Run.residual_bound call of the test, recorded as
    (problem, iterate, bound)."""
    seen = []
    bound = solvers._Run.residual_bound

    def recording(run, u):
        r = bound(run, u)
        seen.append((run.p, np.array(u), r))
        return r

    monkeypatch.setattr(solvers._Run, "residual_bound", recording)
    return seen
