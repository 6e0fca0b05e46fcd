"""Dynamic-game VI toolkit: LQ games compiled to affine variational
inequalities, operator-splitting solvers, and a receding-horizon loop."""

__version__ = "0.1.0"

from .avi import (AviProblem, Polyhedron, monotonicity_constants,
                  natural_residual, project, validate)
from .game import (CompiledGameVi, LqGame, best_response, compile_vi,
                   in_terminal_set, solve_are, solve_coupled_riccati,
                   unconstrained_ne_sequence)
from .qp import QpSolution
from .rhc import ClosedLoopTrace, rhc_step, shift_warm_start, simulate
from .scenario import (CrossroadSpec, build_crossroad, default_15_vehicle_spec,
                       random_avi)
from .solvers import (ALGORITHMS, SolverConfig, SolverReport, Splitting,
                      agraal_solve, dr_solve, exgd_solve, make_dr_splitting,
                      nagd_solve, pgd_solve, prgd_solve, solve)

__all__ = [
    "AviProblem", "Polyhedron", "monotonicity_constants", "natural_residual",
    "project", "validate",
    "CompiledGameVi", "LqGame", "best_response", "compile_vi",
    "in_terminal_set", "solve_are", "solve_coupled_riccati",
    "unconstrained_ne_sequence",
    "QpSolution",
    "ClosedLoopTrace", "rhc_step", "shift_warm_start", "simulate",
    "CrossroadSpec", "build_crossroad", "default_15_vehicle_spec", "random_avi",
    "ALGORITHMS", "SolverConfig", "SolverReport", "Splitting", "agraal_solve",
    "dr_solve", "exgd_solve", "make_dr_splitting", "nagd_solve", "pgd_solve",
    "prgd_solve", "solve",
]
