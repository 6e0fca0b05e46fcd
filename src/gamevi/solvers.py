"""First-order solvers for strongly monotone affine VIs.

The headline method is the paper's Douglas-Rachford splitting-like iteration
with the metric H = I, the relaxation 1/2 and the canonical splitting
M1 = (M + M')/4, M2 = M - M1 of make_dr_splitting:

    y_k     = sol(C, I + M1, q + (M2 - I) u_k)          (a symmetric AVI == QP)
    u_{k+1} = (I + M2)^{-1} (y_k + M2 u_k)

M1 is symmetric positive semidefinite and M2 positive definite (not
necessarily symmetric) whenever the symmetric part of M is positive
definite, and the iteration then converges linearly. This is the one
configuration every caller runs, so DR has no option of its own. The
remaining algorithms (PGD, EXGD, NAGD, PRGD, aGRAAL) are projection-based
baselines.

Every solver is a generator of iterates driven by one loop, _Run.drive,
which pulls at most cfg.max_iter iterates, records for each the exact
natural residual (step 1), or a certified lower bound above cfg.tol, and
stops at the first whose residual is within cfg.tol, so iteration counts
are directly comparable. The bound is free: since proj_C(.) lies in C, the
residual of u is at least its distance to C, hence at least the violation
of any row over its norm, one matvec. While DR's affine iterate is
infeasible it usually exceeds cfg.tol, and the residual QP, which could not
stop the run, is skipped. A run that meets cfg.tol reports ``converged``
only when every inner QP solve (DR step (a), projections, residuals) met
cfg.qp_tol, and ``inner_inexact`` otherwise.
"""

import csv
import dataclasses
import itertools
import time

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf

from . import qp
from .avi import monotonicity_constants
from .errors import (InvalidConfig, InvalidSplitting, NonFiniteData,
                     NotStronglyMonotone)

__all__ = [
    "Splitting", "SolverConfig", "SolverReport", "DrWorkspace",
    "make_dr_splitting", "dr_solve", "pgd_solve", "exgd_solve", "nagd_solve",
    "prgd_solve", "agraal_solve", "solve", "write_residual_csv",
    "ALGORITHMS", "CONVERGED", "ITER_LIMIT", "INNER_INEXACT",
]

CONVERGED = "converged"
ITER_LIMIT = "iter_limit"
# the residual met tol, but an inner QP solve missed its KKT tolerance
INNER_INEXACT = "inner_inexact"


@dataclasses.dataclass
class Splitting:
    """Matrices of the splitting M = M1 + M2."""
    M1: np.ndarray
    M2: np.ndarray


def make_dr_splitting(M):
    """Canonical splitting M1 = (M + M')/4, M2 = M - M1, the one dr_solve uses.

    Valid whenever the symmetric part of M is positive definite: M1 is then
    symmetric PSD, and M2 = M1 + (M - M')/2 has symmetric part M1, hence a
    positive definite M2, so the DR iteration converges linearly. The test
    is one Cholesky factorization of M + M' (twice the symmetric part, an
    exact scaling); when it fails, InvalidSplitting is raised carrying mu,
    the smallest eigenvalue of the symmetric part, which only then is
    computed.
    """
    M = np.asarray(M, dtype=float)
    S = M + M.T
    if dpotrf(S, overwrite_a=False)[1]:
        mu = float(np.linalg.eigvalsh(S / 2.0)[0])
        raise InvalidSplitting(
            f"symmetric part of M is not positive definite (min eig {mu:.3e})", mu=mu)
    M1 = S * 0.25
    M2 = M - M1
    if not np.array_equal(M1 + M2, M):
        # one correction pass restores bitwise M1 + M2 == M
        M1 = M - M2
    return Splitting(M1, M2)


@dataclasses.dataclass
class SolverConfig:
    """Shared solver options.

    DR always runs the canonical splitting of make_dr_splitting with the
    relaxation 1/2. tol is the natural-residual threshold. step is the
    baselines' algorithm-specific stepsize (lambda for PGD/EXGD/PRGD,
    lambda_0 for aGRAAL); None selects the documented default derived from
    (mu, L). qp_tol is the KKT tolerance of every inner QP solve (the DR
    step (a), residual projections and the baselines' projections); the QP
    engine never iterates, so there is no inner iteration cap. Both
    tolerances must be positive and finite.
    """
    tol: float = 1e-3
    max_iter: int = 10_000
    step: float = None
    qp_tol: float = 1e-8

    def __post_init__(self):
        # "not 0 < x < inf" also rejects NaN, which would never stop a run
        if not 0.0 < self.tol < np.inf:
            raise InvalidConfig(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be >= 1")
        if not 0.0 < self.qp_tol < np.inf:
            raise InvalidConfig(f"qp_tol must be positive and finite, got {self.qp_tol}")


@dataclasses.dataclass(slots=True)
class SolverReport:
    """Outcome of one solver run; residuals has one entry per iteration: the
    exact natural residual, or a certified lower bound above tol where the
    bool array lower_bound (one flag per entry) is set. lower_bound is None
    when every entry is exact, and the last entry always is. wall_time
    covers the iterations and qp_not_optimal counts the inner QP solves
    that missed cfg.qp_tol. Slots and the None marks keep a report small
    for callers that keep one per closed-loop step."""
    solution: np.ndarray
    residuals: list
    iterations: int
    status: str
    wall_time: float
    algorithm: str = ""
    qp_not_optimal: int = 0
    lower_bound: np.ndarray = None

    @property
    def converged(self):
        return self.status == CONVERGED

    @property
    def final_residual(self):
        return self.residuals[-1]


def _inverse_row_norms(D):
    """1 / ||D_i|| for each row of D, and 0 for an all-zero row, which
    bounds no distance."""
    norms = np.linalg.norm(D, axis=1)
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)


class _Run:
    """One solver run: its configuration, projections and stopping loop.

    project(v, slot) projects onto the problem's polyhedron with the run's
    identity-metric engine, warm-starting each slot from its own last duals;
    the residual uses the slot "resid". Every inner solve goes through
    inner, which counts those that miss cfg.qp_tol. inv_norms are the
    inverse row norms of C.D (_inverse_row_norms), computed here unless the
    caller holds them.
    """

    def __init__(self, p, cfg, algorithm, engine=None, inv_norms=None):
        self.p = p
        self.cfg = cfg or SolverConfig()
        self.algorithm = algorithm
        self.engine = engine or qp.QpEngine(np.eye(p.dim), p.C.D)
        self.inv_norms = (_inverse_row_norms(p.C.D) if inv_norms is None
                          else inv_norms)
        self.duals = {}
        self.b = -p.C.d
        self.not_optimal = 0

    def inner(self, engine, c, warm_dual):
        """One inner QP solve over the problem's polyhedron at cfg.qp_tol."""
        sol = engine.solve(c, b=self.b, warm_dual=warm_dual, tol=self.cfg.qp_tol)
        self.not_optimal += not sol.optimal
        return sol

    def project(self, v, slot="x"):
        sol = self.inner(self.engine, -v, self.duals.get(slot))
        self.duals[slot] = sol.lam
        return sol.y

    def constants(self, strongly_monotone=False):
        """(mu, L) of M; raises NotStronglyMonotone if required and mu <= 0."""
        mono = monotonicity_constants(self.p.M)
        if strongly_monotone and not mono.strongly_monotone:
            raise NotStronglyMonotone(
                f"{self.algorithm.upper()} requires mu > 0 "
                f"(lambda_min = {mono.lambda_min:.3e})")
        return mono.mu, mono.L

    def step(self, default, upper=np.inf):
        """cfg.step, or default when unset; it must lie in (0, upper)."""
        lam = default if self.cfg.step is None else self.cfg.step
        if not 0.0 < lam < upper:
            raise InvalidConfig(f"{self.algorithm.upper()} step must lie in "
                                f"(0, {upper:.3e}), got {lam}")
        return lam

    def residual_bound(self, u):
        """max_i (D_i u + d_i - qp_tol)_+ / ||D_i||, 0 when C has no rows.

        The natural residual ||u - y||, y = proj_C(u - F(u)), is at least
        (D_i u + d_i - (D_i y + d_i)) / ||D_i|| for every row i, and an inner
        solve that meets qp_tol leaves D_i y + d_i <= qp_tol: so this bounds
        both the exact residual and the one the residual QP would compute.
        """
        # in place, in the order D u - b - qp_tol: a precomputed b + qp_tol
        # would move the bound's last bits
        excess = self.p.C.D @ u
        excess -= self.b
        excess -= self.cfg.qp_tol
        excess *= self.inv_norms
        return float(excess.max(initial=0.0))

    def drive(self, iterates):
        """Pull at most cfg.max_iter iterates and record for each the exact
        natural residual, or residual_bound where that exceeds cfg.tol (the
        iterate cannot stop the run, so its residual QP is skipped); the
        last iterate pulled is always exact. Stop at the first whose
        residual is within cfg.tol; that stop is ``converged`` only if no
        inner solve missed cfg.qp_tol."""
        t0 = time.perf_counter()
        tol, last = self.cfg.tol, self.cfg.max_iter - 1
        residuals, bounds, status = [], [], ITER_LIMIT
        for k, u in enumerate(itertools.islice(iterates, self.cfg.max_iter)):
            r = self.residual_bound(u)
            if r > tol and k < last:
                residuals.append(r)
                bounds.append(k)
                continue
            residuals.append(float(np.linalg.norm(
                u - self.project(u - self.p.F(u), "resid"))))
            if residuals[-1] <= tol:
                status = INNER_INEXACT if self.not_optimal else CONVERGED
                break
        lower_bound = None
        if bounds:
            lower_bound = np.zeros(len(residuals), dtype=bool)
            lower_bound[bounds] = True
        return SolverReport(
            solution=np.asarray(u, dtype=float).copy(), residuals=residuals,
            iterations=len(residuals), status=status,
            wall_time=time.perf_counter() - t0, algorithm=self.algorithm,
            qp_not_optimal=self.not_optimal, lower_bound=lower_bound)


def _start(p, warm):
    if warm is None:
        return np.zeros(p.dim)
    u = np.asarray(warm, dtype=float).ravel()
    if u.shape != (p.dim,):
        raise InvalidConfig("warm start has wrong dimension")
    if not np.all(np.isfinite(u)):
        raise NonFiniteData("warm start contains NaN or infinite entries")
    return u


class DrWorkspace:
    """Factorizations and warm duals reused across dr_solve calls sharing
    (M, D).

    Built from the splitting of M (make_dr_splitting) and the constraint
    matrix D: holds the splitting, the LU factors of I + M2, the QP engine
    on I + M1 for the step-(a) solve, M2 - I, and the identity-metric engine
    for residuals and projections, and the inverse row norms of D behind
    the residual bound; q and the constraint offsets d may vary call to
    call, which is what the receding-horizon loop exploits. duals
    holds the last step-(a) multipliers (key "a") and residual multipliers
    ("resid") of the latest dr_solve through the workspace; the next one
    starts its inner solves from them, so consecutive receding-horizon steps
    warm-start each other. They only pick the first active-set guess, and
    each inner solve still meets its KKT tolerance.
    """

    def __init__(self, splitting, D):
        eye = np.eye(D.shape[1])
        self.splitting = splitting
        self.lu_IM2 = scipy.linalg.lu_factor(eye + splitting.M2)
        self.step_engine = qp.QpEngine(eye + splitting.M1, D)
        self.resid_engine = qp.QpEngine(eye, D)
        self.inv_norms = _inverse_row_norms(D)
        self.M2mI = splitting.M2 - eye
        self.duals = {}


def dr_solve(p, cfg=None, warm=None, workspace=None):
    """Douglas-Rachford splitting iteration for AVI(C, M, q).

    Step (a) solves the symmetric AVI as the QP
    min 0.5 y'(I+M1)y + (q + (M2 - I) u_k)' y over C; step (b) is the affine
    update u_{k+1} = (I + M2)^{-1} (y_k + M2 u_k) through the pre-factored
    I + M2. Stops when the natural residual drops to cfg.tol; the iteration
    count equals the number of step-(a) solves performed. The residual QP
    runs only on iterates whose row-violation bound is within cfg.tol (and
    on the last), so the iterates never depend on it.

    Parameters
    ----------
    p : AviProblem
    cfg : SolverConfig, optional
    warm : array, optional
        Starting point u_0 (defaults to zero).
    workspace : DrWorkspace, optional
        Reusable factorizations for repeated solves with the same (M, C.D),
        and the warm duals this solve starts from and leaves for the next;
        built from make_dr_splitting(p.M) when omitted.
    """
    if workspace is None:
        workspace = DrWorkspace(make_dr_splitting(p.M), p.C.D)
    elif (workspace.step_engine.n != p.dim
          or workspace.step_engine.m != p.C.n_rows):
        raise InvalidConfig("workspace was built for a different problem shape")
    run = _Run(p, cfg, "dr", engine=workspace.resid_engine,
               inv_norms=workspace.inv_norms)
    run.duals = workspace.duals  # carried to the next solve
    M2 = workspace.splitting.M2

    def iterates(u):
        while True:
            sol = run.inner(workspace.step_engine, p.q + workspace.M2mI @ u,
                            run.duals.get("a"))
            run.duals["a"] = sol.lam
            u = scipy.linalg.lu_solve(workspace.lu_IM2, sol.y + M2 @ u,
                                      check_finite=False)
            yield u

    return run.drive(iterates(_start(p, warm)))


def pgd_solve(p, cfg=None, warm=None):
    """Projected gradient descent; needs mu > 0 and step in (0, 2 mu / L^2)."""
    run = _Run(p, cfg, "pgd")
    mu, L = run.constants(strongly_monotone=True)
    lam = run.step(mu / L ** 2, 2.0 * mu / L ** 2)

    def iterates(u):
        while True:
            u = run.project(u - lam * p.F(u))
            yield u

    return run.drive(iterates(_start(p, warm)))


def exgd_solve(p, cfg=None, warm=None):
    """Extragradient method; step in (0, 1/L), default 0.9 / L."""
    run = _Run(p, cfg, "exgd")
    _, L = run.constants()
    lam = run.step(0.9 / L, 1.0 / L)

    def iterates(u):
        while True:
            y = run.project(u - lam * p.F(u), slot="y")
            u = run.project(u - lam * p.F(y), slot="x")
            yield u

    return run.drive(iterates(_start(p, warm)))


def nagd_solve(p, cfg=None, warm=None):
    """Nesterov's dual-averaging scheme for strongly monotone VIs.

    Both per-iteration argmax subproblems reduce to projections: the
    averaged update is proj(S_k / (mu Lambda_k)) with the running sums
    S_k = sum_i l_i (mu y_i - F(y_i)), Lambda_k = sum_i l_i, and the
    lookahead is proj(u_k - F(u_k)/L). Weights follow
    l_{k+1} = (mu / L) Lambda_k from l_0 = 1.
    """
    run = _Run(p, cfg, "nagd")
    mu, L = run.constants(strongly_monotone=True)

    def iterates(y):
        lam_k, S, Lambda = 1.0, np.zeros(p.dim), 0.0
        while True:
            S += lam_k * (mu * y - p.F(y))
            Lambda += lam_k
            u = run.project(S / (mu * Lambda), slot="u")
            yield u
            y = run.project(u - p.F(u) / L, slot="y")
            lam_k = (mu / L) * Lambda

    return run.drive(iterates(_start(p, warm)))


def prgd_solve(p, cfg=None, warm=None):
    """Projected reflected gradient; step in (0, (sqrt(2)-1)/L).

    The history point starts at u_{-1} = u_0, so the first update is a plain
    PGD step.
    """
    run = _Run(p, cfg, "prgd")
    _, L = run.constants()
    bound = (np.sqrt(2.0) - 1.0) / L
    lam = run.step(0.9 * bound, bound)

    def iterates(u):
        u_prev = u
        while True:
            u_prev, u = u, run.project(u - lam * p.F(2.0 * u - u_prev))
            yield u

    return run.drive(iterates(_start(p, warm)))


def agraal_solve(p, cfg=None, warm=None):
    """Adaptive golden-ratio algorithm.

    beta = (sqrt(5)-1)/2 and lambda_0 = lambda_{-1} = 1/L unless cfg.step
    sets lambda_0; the adaptive stepsize is
    min{(beta + beta^2) lambda_{k-1},
        ||u_k - u_{k-1}||^2 / (4 beta^2 lambda_{k-2} ||F(u_k) - F(u_{k-1})||^2)},
    with a guard selecting the first branch when the ratio degenerates to 0/0.
    """
    run = _Run(p, cfg, "agraal")
    _, L = run.constants()
    beta = (np.sqrt(5.0) - 1.0) / 2.0
    # a constant operator (L = 0) has no default lambda_0, only cfg.step
    lam0 = run.step(1.0 / L if L else np.inf)

    def iterates(u):
        ybar, Fu, lam_k, lam_km1 = u, p.F(u), lam0, lam0
        while True:
            ybar = (1.0 - beta) * u + beta * ybar
            u_prev, Fu_prev = u, Fu
            u = run.project(ybar - lam_k * Fu)
            Fu = p.F(u)
            yield u
            lam_km2, lam_km1 = lam_km1, lam_k
            grow = (beta + beta ** 2) * lam_km1
            dF = float(np.sum((Fu - Fu_prev) ** 2))
            if dF == 0.0:
                lam_k = grow
            else:
                du = float(np.sum((u - u_prev) ** 2))
                lam_k = min(grow, du / (4.0 * beta ** 2 * lam_km2 * dF))

    return run.drive(iterates(_start(p, warm)))


_SOLVERS = {"dr": dr_solve, "pgd": pgd_solve, "exgd": exgd_solve,
            "nagd": nagd_solve, "prgd": prgd_solve, "agraal": agraal_solve}
ALGORITHMS = tuple(_SOLVERS)


def solve(p, algorithm, cfg=None, warm=None):
    """Dispatch to one of the named algorithms (see ALGORITHMS)."""
    if algorithm not in _SOLVERS:
        raise InvalidConfig(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return _SOLVERS[algorithm](p, cfg=cfg, warm=warm)


def write_residual_csv(rows, path):
    """Write residual traces.

    rows is an iterable of (algorithm, instance_id, SolverReport); one CSV
    line per iteration with the run's total wall time repeated per line.
    lower_bound is 1 where the residual is a certified lower bound (above
    tol) rather than the exact natural residual, and 0 otherwise.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "instance_id", "iteration", "residual",
                         "lower_bound", "wall_time_s"])
        for algorithm, instance_id, report in rows:
            marks = report.lower_bound
            for it, r in enumerate(report.residuals, start=1):
                bound = marks is not None and marks[it - 1]
                writer.writerow([algorithm, instance_id, it, repr(float(r)),
                                 int(bound), f"{report.wall_time:.6f}"])
