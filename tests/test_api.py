"""The package's public API, pinned: a change to ``gamevi.__all__`` shows up
as a change to this list."""

import importlib
import pkgutil

import pytest

import gamevi

PUBLIC = [
    "ALGORITHMS", "AviProblem", "ClosedLoopTrace", "CompiledGameVi",
    "CrossroadSpec", "LqGame", "Polyhedron", "QpSolution", "SolverConfig",
    "SolverReport", "Splitting", "agraal_solve", "best_response",
    "build_crossroad", "compile_vi",
    "default_15_vehicle_spec", "dr_solve", "exgd_solve", "in_terminal_set",
    "make_dr_splitting", "monotonicity_constants", "nagd_solve",
    "natural_residual", "pgd_solve", "prgd_solve", "project", "random_avi",
    "rhc_step", "shift_warm_start", "simulate", "solve", "solve_are",
    "solve_coupled_riccati", "unconstrained_ne_sequence", "validate",
]


def test_public_api_is_pinned():
    assert sorted(gamevi.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(gamevi, name), name


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(gamevi.__path__) if m.name != "__main__"))
def test_module_all_names_exist(module):
    # a stale __all__ entry names something the module no longer defines
    mod = importlib.import_module(f"gamevi.{module}")
    assert [name for name in getattr(mod, "__all__", [])
            if not hasattr(mod, name)] == []
