"""First-order solvers for strongly monotone affine VIs.

The headline method is the Douglas-Rachford splitting-like iteration

    y_k     = sol(C, I + M1, q + (M2 - I) u_k)          (a symmetric AVI == QP)
    u_{k+1} = (I + M2)^{-1} (2 l y_k + (1 - 2 l) u_k + M2 u_k)

for a splitting M = M1 + M2 with M1 = M1' >= 0 and M2 positive definite (not
necessarily symmetric); it converges linearly for a relaxation l in (0, 1].
This is the paper's iteration with the metric H = I, the one every caller
uses. The remaining algorithms (PGD, EXGD, NAGD, PRGD, aGRAAL) are
projection-based baselines under the same reporting interface.

Every solver records the natural residual with step 1 at every iteration, so
iteration counts are directly comparable.
"""

import csv
import dataclasses
import time

import numpy as np
import scipy.linalg

from . import qp
from .avi import monotonicity_constants
from .errors import InvalidConfig, InvalidSplitting, NotStronglyMonotone

__all__ = [
    "Splitting", "SolverConfig", "SolverReport", "DrWorkspace",
    "make_dr_splitting", "dr_solve", "pgd_solve", "exgd_solve", "nagd_solve",
    "prgd_solve", "agraal_solve", "solve", "write_residual_csv",
    "ALGORITHMS", "CONVERGED", "ITER_LIMIT",
]

CONVERGED = "converged"
ITER_LIMIT = "iter_limit"

ALGORITHMS = ("dr", "pgd", "exgd", "nagd", "prgd", "agraal")


@dataclasses.dataclass
class Splitting:
    """Matrices of the splitting M = M1 + M2."""
    M1: np.ndarray
    M2: np.ndarray

    def validate(self, M=None):
        """Check the convergence conditions; raises InvalidSplitting."""
        M1, M2 = self.M1, self.M2
        scale = max(1.0, float(np.max(np.abs(M1))), float(np.max(np.abs(M2))))
        if np.max(np.abs(M1 - M1.T)) > 1e-10 * scale:
            raise InvalidSplitting("M1 must be symmetric")
        eig_m1 = float(np.linalg.eigvalsh(M1)[0])
        if eig_m1 < -1e-10:
            raise InvalidSplitting(f"M1 must be positive semidefinite (min eig {eig_m1:.3e})")
        mu2 = float(np.linalg.eigvalsh((M2 + M2.T) / 2.0)[0])
        if mu2 <= 0:
            raise InvalidSplitting(f"M2 must be positive definite (min sym eig {mu2:.3e})", mu=mu2)
        if M is not None:
            err = np.max(np.abs(M1 + M2 - M))
            if err > 1e-12 * max(1.0, float(np.max(np.abs(M)))):
                raise InvalidSplitting(f"M1 + M2 does not reproduce M (max err {err:.3e})")


def make_dr_splitting(M):
    """Canonical splitting M1 = (M + M')/4, M2 = M - M1.

    Valid whenever the symmetric part of M is positive definite: M1 is then
    symmetric PSD, and M2 = M1 + (M - M')/2 has symmetric part M1, hence a
    positive definite M2, so the DR iteration converges linearly. Only that
    condition is checked here; DrWorkspace validates the splitting.
    """
    M = np.asarray(M, dtype=float)
    mu = float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])
    if mu <= 0:
        raise InvalidSplitting(
            f"symmetric part of M is not positive definite (min eig {mu:.3e})", mu=mu)
    M1 = (M + M.T) * 0.25
    M2 = M - M1
    if not np.array_equal(M1 + M2, M):
        # one correction pass restores bitwise M1 + M2 == M
        M1 = M - M2
    return Splitting(M1, M2)


@dataclasses.dataclass
class SolverConfig:
    """Shared solver options.

    relaxation is the constant DR relaxation l in (0, 1]. step is the
    algorithm-specific stepsize (lambda for PGD/EXGD/PRGD, lambda_0 for
    aGRAAL); None selects the documented default derived from (mu, L).
    qp_tol is the KKT tolerance of every inner QP solve (the DR step (a),
    residual projections and the baselines' projections); the QP engine
    never iterates, so there is no inner iteration cap.
    """
    tol: float = 1e-3
    max_iter: int = 10_000
    relaxation: float = 0.5
    step: float = None
    qp_tol: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidConfig("tol must be positive")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be >= 1")
        if not (0.0 < self.relaxation <= 1.0):
            raise InvalidConfig(
                f"DR relaxation must lie in (0, 1], got {self.relaxation}")


@dataclasses.dataclass
class SolverReport:
    """Outcome of one solver run; residuals has one entry per iteration."""
    solution: np.ndarray
    residuals: list
    iterations: int
    status: str
    wall_time: float
    algorithm: str = ""

    @property
    def converged(self):
        return self.status == CONVERGED

    @property
    def final_residual(self):
        return self.residuals[-1]


class _Run:
    """Shared bookkeeping: projection, residual trace, timing, termination.

    project(v, slot) projects onto the problem's polyhedron with the run's
    identity-metric engine, warm-starting each slot from its own last duals;
    the residual uses the slot "resid".
    """

    def __init__(self, p, cfg, algorithm, engine=None):
        self.p = p
        self.cfg = cfg
        self.algorithm = algorithm
        self.t0 = time.perf_counter()
        self.residuals = []
        self.engine = engine or qp.QpEngine(np.eye(p.dim), p.C.D)
        self.duals = {}
        self.b = -p.C.d

    def project(self, v, slot="x"):
        sol = self.engine.solve(-v, b=self.b, warm_dual=self.duals.get(slot),
                                tol=self.cfg.qp_tol)
        self.duals[slot] = sol.lam
        return sol.y

    def residual(self, u):
        return float(np.linalg.norm(u - self.project(u - self.p.F(u), "resid")))

    def record(self, u):
        """Append the residual at u; returns True when converged."""
        r = self.residual(u)
        self.residuals.append(r)
        return r <= self.cfg.tol

    def report(self, u, converged):
        return SolverReport(
            solution=np.asarray(u, dtype=float).copy(),
            residuals=self.residuals,
            iterations=len(self.residuals),
            status=CONVERGED if converged else ITER_LIMIT,
            wall_time=time.perf_counter() - self.t0,
            algorithm=self.algorithm,
        )


def _start(p, warm):
    if warm is None:
        return np.zeros(p.dim)
    u = np.asarray(warm, dtype=float).ravel().copy()
    if u.shape != (p.dim,):
        raise InvalidConfig("warm start has wrong dimension")
    return u


class DrWorkspace:
    """Factorizations reused across dr_solve calls sharing (M, splitting, D).

    The one place a splitting is validated (against M). Holds the splitting,
    the LU factors of I + M2, the QP engine on I + M1 for the step-(a)
    solve, M2 - I, and the identity-metric engine for residuals and
    projections; q and the constraint offsets d may vary call to call,
    which is what the receding-horizon loop exploits.
    """

    def __init__(self, M, splitting, C):
        splitting.validate(np.asarray(M, dtype=float))
        eye = np.eye(C.D.shape[1])
        self.splitting = splitting
        self.lu_IM2 = scipy.linalg.lu_factor(eye + splitting.M2)
        self.step_engine = qp.QpEngine(eye + splitting.M1, C.D)
        self.resid_engine = qp.QpEngine(eye, C.D)
        self.M2mI = splitting.M2 - eye


def dr_solve(p, s=None, cfg=None, warm=None, workspace=None):
    """Douglas-Rachford splitting iteration for AVI(C, M, q).

    Step (a) solves the symmetric AVI as the QP
    min 0.5 y'(I+M1)y + (q + (M2 - I) u_k)' y over C; step (b) is an affine
    update through the pre-factored I + M2. Stops when the natural residual
    drops to cfg.tol; the iteration count equals the number of step-(a)
    solves performed.

    Parameters
    ----------
    p : AviProblem
    s : Splitting, optional
        Defaults to make_dr_splitting(p.M). With a workspace it may only be
        the workspace's own splitting.
    cfg : SolverConfig, optional
    warm : array, optional
        Starting point u_0 (defaults to zero).
    workspace : DrWorkspace, optional
        Reusable factorizations for repeated solves with the same (M, C.D).
    """
    cfg = cfg or SolverConfig()
    if workspace is None:
        workspace = DrWorkspace(p.M, make_dr_splitting(p.M) if s is None else s, p.C)
    elif s is not None and s is not workspace.splitting:
        raise InvalidConfig("s differs from the workspace's splitting")
    elif (workspace.step_engine.n != p.dim
          or workspace.step_engine.m != p.C.n_rows):
        raise InvalidConfig("workspace was built for a different problem shape")
    run = _Run(p, cfg, "dr", engine=workspace.resid_engine)
    u = _start(p, warm)
    b = -p.C.d
    M2 = workspace.splitting.M2
    lam = cfg.relaxation
    y_dual = None
    converged = False
    for _ in range(cfg.max_iter):
        c = p.q + workspace.M2mI @ u
        sol = workspace.step_engine.solve(c, b=b, warm_dual=y_dual, tol=cfg.qp_tol)
        y, y_dual = sol.y, sol.lam
        u = scipy.linalg.lu_solve(
            workspace.lu_IM2, 2.0 * lam * y + (1.0 - 2.0 * lam) * u + M2 @ u)
        if run.record(u):
            converged = True
            break
    return run.report(u, converged)


def pgd_solve(p, cfg=None, warm=None):
    """Projected gradient descent; needs mu > 0 and step in (0, 2 mu / L^2)."""
    cfg = cfg or SolverConfig()
    mono = monotonicity_constants(p.M)
    if not mono.strongly_monotone:
        raise NotStronglyMonotone(
            f"PGD requires mu > 0 (lambda_min = {mono.lambda_min:.3e})")
    mu, L = mono.mu, mono.L
    lam = cfg.step if cfg.step is not None else mu / L ** 2
    if not (0.0 < lam < 2.0 * mu / L ** 2):
        raise InvalidConfig(f"PGD step must lie in (0, 2 mu/L^2) = (0, {2*mu/L**2:.3e})")
    run = _Run(p, cfg, "pgd")
    proj = run.project
    u = _start(p, warm)
    converged = False
    for _ in range(cfg.max_iter):
        u = proj(u - lam * p.F(u))
        if run.record(u):
            converged = True
            break
    return run.report(u, converged)


def exgd_solve(p, cfg=None, warm=None):
    """Extragradient method; step in (0, 1/L), default 0.9 / L."""
    cfg = cfg or SolverConfig()
    L = monotonicity_constants(p.M).L
    lam = cfg.step if cfg.step is not None else 0.9 / L
    if not (0.0 < lam < 1.0 / L):
        raise InvalidConfig(f"EXGD step must lie in (0, 1/L) = (0, {1/L:.3e})")
    run = _Run(p, cfg, "exgd")
    proj = run.project
    u = _start(p, warm)
    converged = False
    for _ in range(cfg.max_iter):
        y = proj(u - lam * p.F(u), slot="y")
        u = proj(u - lam * p.F(y), slot="x")
        if run.record(u):
            converged = True
            break
    return run.report(u, converged)


def nagd_solve(p, cfg=None, warm=None):
    """Nesterov's dual-averaging scheme for strongly monotone VIs.

    Both per-iteration argmax subproblems reduce to projections: the
    averaged update is proj(S_k / (mu Lambda_k)) with the running sums
    S_k = sum_i l_i (mu y_i - F(y_i)), Lambda_k = sum_i l_i, and the
    lookahead is proj(u_k - F(u_k)/L). Weights follow
    l_{k+1} = (mu / L) Lambda_k from l_0 = 1.
    """
    cfg = cfg or SolverConfig()
    mono = monotonicity_constants(p.M)
    if not mono.strongly_monotone:
        raise NotStronglyMonotone(
            f"NAGD requires mu > 0 (lambda_min = {mono.lambda_min:.3e})")
    mu, L = mono.mu, mono.L
    run = _Run(p, cfg, "nagd")
    proj = run.project
    y = _start(p, warm)
    lam_k = 1.0
    S = np.zeros(p.dim)
    Lambda = 0.0
    u = y.copy()
    converged = False
    for _ in range(cfg.max_iter):
        Fy = p.F(y)
        S += lam_k * (mu * y - Fy)
        Lambda += lam_k
        u = proj(S / (mu * Lambda), slot="u")
        if run.record(u):
            converged = True
            break
        y = proj(u - p.F(u) / L, slot="y")
        lam_k = (mu / L) * Lambda
    return run.report(u, converged)


def prgd_solve(p, cfg=None, warm=None):
    """Projected reflected gradient; step in (0, (sqrt(2)-1)/L).

    The history point starts at u_{-1} = u_0, so the first update is a plain
    PGD step.
    """
    cfg = cfg or SolverConfig()
    L = monotonicity_constants(p.M).L
    bound = (np.sqrt(2.0) - 1.0) / L
    lam = cfg.step if cfg.step is not None else 0.9 * bound
    if not (0.0 < lam < bound):
        raise InvalidConfig(f"PRGD step must lie in (0, (sqrt(2)-1)/L) = (0, {bound:.3e})")
    run = _Run(p, cfg, "prgd")
    proj = run.project
    u = _start(p, warm)
    u_prev = u.copy()
    converged = False
    for _ in range(cfg.max_iter):
        u_next = proj(u - lam * p.F(2.0 * u - u_prev))
        u_prev, u = u, u_next
        if run.record(u):
            converged = True
            break
    return run.report(u, converged)


def agraal_solve(p, cfg=None, warm=None):
    """Adaptive golden-ratio algorithm.

    beta = (sqrt(5)-1)/2 and lambda_0 = lambda_{-1} = 1/L unless cfg.step
    sets lambda_0; the adaptive stepsize is
    min{(beta + beta^2) lambda_{k-1},
        ||u_k - u_{k-1}||^2 / (4 beta^2 lambda_{k-2} ||F(u_k) - F(u_{k-1})||^2)},
    with a guard selecting the first branch when the ratio degenerates to 0/0.
    """
    cfg = cfg or SolverConfig()
    L = monotonicity_constants(p.M).L
    beta = (np.sqrt(5.0) - 1.0) / 2.0
    lam0 = cfg.step if cfg.step is not None else 1.0 / L
    if lam0 <= 0:
        raise InvalidConfig("aGRAAL needs lambda_0 > 0")
    run = _Run(p, cfg, "agraal")
    proj = run.project
    u = _start(p, warm)
    ybar = u.copy()
    Fu = p.F(u)
    lam_km1 = lam_km2 = lam0
    u_prev = None
    Fu_prev = None
    converged = False
    for k in range(cfg.max_iter):
        if k == 0:
            lam_k = lam0
        else:
            grow = (beta + beta ** 2) * lam_km1
            dF = float(np.sum((Fu - Fu_prev) ** 2))
            if dF == 0.0:
                lam_k = grow
            else:
                du = float(np.sum((u - u_prev) ** 2))
                lam_k = min(grow, du / (4.0 * beta ** 2 * lam_km2 * dF))
        ybar = (1.0 - beta) * u + beta * ybar
        u_next = proj(ybar - lam_k * Fu)
        u_prev, Fu_prev = u, Fu
        u = u_next
        Fu = p.F(u)
        lam_km2, lam_km1 = lam_km1, lam_k
        if run.record(u):
            converged = True
            break
    return run.report(u, converged)


_SOLVERS = {
    "dr": dr_solve,
    "pgd": pgd_solve,
    "exgd": exgd_solve,
    "nagd": nagd_solve,
    "prgd": prgd_solve,
    "agraal": agraal_solve,
}


def solve(p, algorithm, cfg=None, warm=None):
    """Dispatch to one of the named algorithms (see ALGORITHMS)."""
    if algorithm not in _SOLVERS:
        raise InvalidConfig(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return _SOLVERS[algorithm](p, cfg=cfg, warm=warm)


def write_residual_csv(rows, path):
    """Write residual traces.

    rows is an iterable of (algorithm, instance_id, SolverReport); one CSV
    line per iteration with the run's total wall time repeated per line.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "instance_id", "iteration", "residual",
                         "wall_time_s"])
        for algorithm, instance_id, report in rows:
            for it, r in enumerate(report.residuals, start=1):
                writer.writerow([algorithm, instance_id, it, repr(float(r)),
                                 f"{report.wall_time:.6f}"])
