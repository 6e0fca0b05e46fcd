"""Convex QP subsolver over polyhedra.

Minimizes ``0.5 y' P y + c' y`` over ``{y : D y + d <= 0}`` with P symmetric
positive definite. The engine first tries direct active-set guesses (a
Schur-complement solve through the cached Cholesky factor of P): the
caller's warm duals, then the rows violated by the unconstrained minimizer.
Warm duals from a previous nearby solve usually make the first guess exact,
which is the performance lever for receding-horizon re-solves. When both
guesses miss, the change of variables z = U (y - y_free), with P = U'U,
turns the QP into a least-distance problem that one nonnegative
least-squares call solves exactly (Lawson & Hanson, *Solving Least Squares
Problems*, 1974, ch. 23). No path iterates; the contract is the KKT
tolerance, and ``iter_limit`` means the exact solve missed it.

Infeasibility is never inferred from round-off: it is certified by the
slack-maximization phase (maximize s subject to D u + d + s <= 0, s <= 1).
"""

import dataclasses

import numpy as np
import scipy.linalg
from scipy.optimize import linprog, nnls

from .errors import Infeasible, GameViError

__all__ = [
    "QpProblem", "QpSolution", "QpEngine", "FeasibilityReport",
    "solve_qp", "certify_feasibility",
    "OPTIMAL", "ITER_LIMIT", "INFEASIBLE",
]

OPTIMAL = "optimal"
ITER_LIMIT = "iter_limit"
INFEASIBLE = "infeasible"

DEFAULT_TOL = 1e-8

# least-distance residual -r[n] at or below this: the relaxed rows look
# inconsistent, so the slack LP decides
_LDP_EMPTY = 1e-12


@dataclasses.dataclass
class QpProblem:
    """Data of min 0.5 y'Py + c'y over the polyhedron C = {y : Dy + d <= 0}.

    P must be symmetric (to 1e-12, relative) positive definite; C is any
    object with ``D`` and ``d`` attributes (avi.Polyhedron).
    """
    P: np.ndarray
    c: np.ndarray
    C: object

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.P.shape[0]
        if self.P.shape != (n, n) or self.c.shape != (n,):
            raise ValueError("P must be square and c of matching length")
        scale = max(1.0, np.max(np.abs(self.P)))
        if np.max(np.abs(self.P - self.P.T)) > 1e-12 * scale:
            raise ValueError("P must be symmetric")
        if self.C.D.shape[1] != n:
            raise ValueError("constraint dimension does not match P")


@dataclasses.dataclass
class QpSolution:
    """Solution report. ``lam`` are the inequality multipliers (>= 0)."""
    y: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    status: str
    iterations: int

    @property
    def optimal(self):
        return self.status == OPTIMAL


@dataclasses.dataclass
class FeasibilityReport:
    """Outcome of the slack-maximization phase on {u : Du + d <= 0}."""
    slack: float
    point: np.ndarray
    strictly_feasible: bool
    feasible: bool


def certify_feasibility(D, d, strict_tol=1e-9):
    """Maximize s subject to Du + d + s*1 <= 0, s <= 1 (an LP).

    The polyhedron is strictly feasible iff the optimal s is positive,
    feasible iff s >= 0, and certifiably empty iff s < 0.
    """
    D = np.asarray(D, dtype=float)
    d = np.asarray(d, dtype=float).ravel()
    m, n = D.shape
    if m == 0:
        return FeasibilityReport(1.0, np.zeros(n), True, True)
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A_ub = np.hstack([D, np.ones((m, 1))])
    bounds = [(None, None)] * n + [(None, 1.0)]
    res = linprog(cost, A_ub=A_ub, b_ub=-d, bounds=bounds, method="highs")
    if res.status != 0:
        raise GameViError(f"slack-maximization LP failed: {res.message}")
    s = float(res.x[-1])
    return FeasibilityReport(s, res.x[:n].copy(), s > strict_tol, s >= -strict_tol)


def _kkt_error(P, c, D, b, y, lam):
    """max of stationarity, primal violation and |lam'(Dy - b)|."""
    if D.shape[0]:
        stat = float(np.max(np.abs(P @ y + c + D.T @ lam)))
        viol = D @ y - b
        prim = max(0.0, float(np.max(viol)))
        compl_ = abs(float(lam @ viol))
        return max(stat, prim, compl_)
    return float(np.max(np.abs(P @ y + c)))


class QpEngine:
    """Reusable solver for a family of QPs sharing (P, D).

    The linear term c and the offsets may change between calls; the
    Cholesky factor P = U'U, the projected Gram matrix D P^{-1} D' and the
    least-distance matrix D U^{-1} are computed once. Warm duals are passed
    per call, so one engine can serve several independent iterate streams.
    """

    def __init__(self, P, D):
        self.P = np.asarray(P, dtype=float)
        self.D = np.asarray(D, dtype=float)
        self.n = self.P.shape[0]
        self.m = self.D.shape[0]
        self._chol = scipy.linalg.cho_factor(self.P)
        if self.m:
            self._PinvDt = scipy.linalg.cho_solve(self._chol, self.D.T)
            self._gram = self.D @ self._PinvDt
            self._Et = scipy.linalg.solve_triangular(self._chol[0], self.D.T,
                                                     trans="T")

    def _try_active_set(self, c, b, y_free, active, tol):
        """Solve assuming the given rows are active; None unless KKT <= tol.

        Uses the Schur complement D_A P^{-1} D_A' lam = D_A y_free - b_A, so
        the only per-call dense work is one small least-squares solve and a
        rank-|A| update of the free minimizer.
        """
        active = np.asarray(active, dtype=int)
        if active.size == 0:
            return None
        S = self._gram[np.ix_(active, active)]
        rhs = self.D[active] @ y_free - b[active]
        lam_a, *_ = np.linalg.lstsq(S, rhs, rcond=None)
        neg = lam_a < 0.0
        if np.any(lam_a < -1e-9 * max(1.0, float(np.max(np.abs(lam_a))))):
            # retry once without the clearly inactive rows
            keep = ~neg
            if not np.any(keep):
                return None
            active = active[keep]
            S = self._gram[np.ix_(active, active)]
            rhs = self.D[active] @ y_free - b[active]
            lam_a, *_ = np.linalg.lstsq(S, rhs, rcond=None)
        lam_a = np.maximum(lam_a, 0.0)
        y = y_free - self._PinvDt[:, active] @ lam_a
        lam = np.zeros(self.m)
        lam[active] = lam_a
        err = _kkt_error(self.P, c, self.D, b, y, lam)
        if err <= tol:
            return QpSolution(y, lam, err, OPTIMAL, 0)
        return None

    def _least_distance(self, c, b, y_free, violation, tol):
        """Exact fallback: the QP as a least-distance problem, one NNLS call.

        With z = U (y - y_free) and E = D U^{-1} the QP is min 0.5 ||z||^2
        subject to -E z >= h, h = violation - tol. Relaxing the rows by tol
        keeps rows violated only by round-off (all-zero rows of a best
        response, say) from emptying the set. The problem is positively
        homogeneous in h, so it is solved at unit scale h / s, s = max(h);
        s = tol when no row is violated by more than tol, which gives u = 0
        and y = y_free. Lawson & Hanson: for the nonnegative least-squares
        solution u of [-E'; h'/s] u ~ e_{n+1} with residual r,
        z = s r[:n] / -r[n] and the multipliers are s u / -r[n]; r = 0
        means the rows are inconsistent. A result off by more than tol is
        polished on the support of u.
        """
        h = violation - tol
        s = max(float(np.max(h)), tol)
        A = np.vstack([-self._Et, h / s])
        e = np.zeros(self.n + 1)
        e[-1] = 1.0
        try:
            u = nnls(A, e)[0]
        except RuntimeError:  # scipy's iteration cap; the KKT test reports it
            u = np.zeros(self.m)
        r = A @ u - e
        den = float(-r[-1])
        if den <= _LDP_EMPTY:
            report = certify_feasibility(self.D, -b)
            if not report.feasible:
                raise Infeasible(
                    "constraint set certified empty "
                    f"(max slack {report.slack:.3e})", slack=report.slack)
        # a certified-feasible set with den this small is a numerical
        # breakdown; the KKT test below reports it
        scale = s / max(den, _LDP_EMPTY)
        y = y_free + scipy.linalg.solve_triangular(self._chol[0], r[:-1]) * scale
        lam = u * scale
        err = _kkt_error(self.P, c, self.D, b, y, lam)
        if err <= tol:
            return QpSolution(y, lam, err, OPTIMAL, 1)
        sol = self._try_active_set(c, b, y_free, np.flatnonzero(u > 0.0), tol)
        if sol is not None:
            return dataclasses.replace(sol, iterations=1)
        return QpSolution(y, lam, err, ITER_LIMIT, 1)

    def solve(self, c, b=None, warm_dual=None, tol=DEFAULT_TOL):
        """Solve for the given linear term and constraint offsets b (= -d).

        Returns a QpSolution whose status is ``optimal`` (KKT residual <= tol)
        or ``iter_limit`` (the exact solve missed tol); ``iterations`` is 1
        when the least-distance fallback ran and 0 otherwise. Raises
        Infeasible when the slack-maximization phase certifies an empty
        polyhedron.
        """
        c = np.asarray(c, dtype=float).ravel()
        if self.m == 0:
            y = scipy.linalg.cho_solve(self._chol, -c)
            err = _kkt_error(self.P, c, self.D, np.zeros(0), y, np.zeros(0))
            return QpSolution(y, np.zeros(0), err, OPTIMAL, 0)
        if b is None:
            raise ValueError("constraint offsets b are required when D has rows")
        b = np.asarray(b, dtype=float).ravel()

        # Unconstrained minimizer already feasible: exact solution, zero duals.
        y_free = scipy.linalg.cho_solve(self._chol, -c)
        violation = self.D @ y_free - b
        if np.all(violation <= 0.0):
            err = _kkt_error(self.P, c, self.D, b, y_free, np.zeros(self.m))
            return QpSolution(y_free, np.zeros(self.m), err, OPTIMAL, 0)

        # Direct active-set guesses before the fallback: the caller's
        # previous duals, then the rows violated by the free minimizer.
        if warm_dual is not None:
            warm_dual = np.maximum(np.asarray(warm_dual, dtype=float).ravel(), 0.0)
            guess = np.flatnonzero(warm_dual > 1e-12)
            sol = self._try_active_set(c, b, y_free, guess, tol)
            if sol is not None:
                return sol
        sol = self._try_active_set(c, b, y_free, np.flatnonzero(violation > 0.0), tol)
        if sol is not None:
            return sol
        return self._least_distance(c, b, y_free, violation, tol)


def solve_qp(problem, tol=DEFAULT_TOL, warm_dual=None):
    """One-shot QP solve; see QpEngine for the reusable interface.

    Returns a QpSolution whose status is ``optimal`` (KKT residual <= tol)
    or ``iter_limit`` (the exact solve missed tol). Raises Infeasible when
    the constraint set is certified empty.
    """
    engine = QpEngine(problem.P, problem.C.D)
    return engine.solve(problem.c, b=-np.asarray(problem.C.d, dtype=float).ravel(),
                        warm_dual=warm_dual, tol=tol)
