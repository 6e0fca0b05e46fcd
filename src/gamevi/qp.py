"""Convex QP subsolver over polyhedra.

Minimizes ``0.5 y' P y + c' y`` over ``{y : D y + d <= 0}`` with P symmetric
positive definite. The engine first tries direct active-set guesses: the
caller's warm duals, then the rows violated by the unconstrained minimizer.
A guess A is solved through the Schur complement S_A = D_A P^{-1} D_A',
whose Cholesky factor each engine caches per active set (at most
_FACTOR_CACHE sets, the oldest evicted first), so a guess seen before costs
two triangular solves: the factorization reuse of online active-set methods
(Ferreau, Bock & Diehl, IJRNC 2008). No m x m Gram matrix D P^{-1} D' is
formed, and P = I skips every solve with P. Warm duals from a previous
nearby solve usually make the first guess exact, which is the performance
lever for receding-horizon re-solves. When both guesses miss, the
Goldfarb-Idnani dual active-set method (Math. Programming 27, 1983) starts
from the first guess, stripped to a dual-feasible set, and adds violated
rows one at a time through the same cached factors; its final set is solved
once more like a guess. The contract is the KKT tolerance (stationarity, the
violation of every row and complementarity); ``iter_limit`` means the
fallback stopped (at _DUAL_STEPS steps or on a numerical breakdown) short of
it.

Infeasibility is never inferred from round-off: it is certified by the
slack-maximization phase (maximize s subject to D u + d + s <= 0, s <= 1),
the only user of scipy.optimize, which is imported there.
"""

import dataclasses

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import GameViError, Infeasible, NonFiniteData

__all__ = [
    "QpProblem", "QpSolution", "QpEngine", "FeasibilityReport",
    "solve_qp", "certify_feasibility",
    "OPTIMAL", "ITER_LIMIT", "INFEASIBLE",
]

OPTIMAL = "optimal"
ITER_LIMIT = "iter_limit"
INFEASIBLE = "infeasible"

DEFAULT_TOL = 1e-8

# steps of the dual active-set fallback; reaching the cap gives iter_limit
_DUAL_STEPS = 1000

# active sets whose Schur-complement factor one engine keeps
_FACTOR_CACHE = 64

# a Cholesky pivot of S_A at or below this fraction of the largest
# (cond(S_A) above about 1e10) marks S_A numerically singular, as with
# duplicated rows; lstsq then picks the minimum-norm multipliers
_PIVOT_RATIO = 1e-5


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
    from scipy.optimize import linprog  # only here: scipy.optimize is large
    res = linprog(cost, A_ub=A_ub, b_ub=-d, bounds=bounds, method="highs")
    if res.status != 0:
        raise GameViError(f"slack-maximization LP failed: {res.message}")
    s = float(res.x[-1])
    return FeasibilityReport(s, res.x[:n].copy(), s > strict_tol, s >= -strict_tol)


def _kkt_error(stationarity, violation, complementarity):
    """max of |stationarity|, the row violations clipped at 0 and
    |complementarity|; inf when any term is not finite, so a NaN never
    certifies (Python's max() would drop it)."""
    terms = (float(np.abs(stationarity).max(initial=0.0)),
             float(violation.max(initial=0.0)), abs(float(complementarity)))
    return max(terms) if np.isfinite(sum(terms)) else np.inf


class QpEngine:
    """Reusable solver for a family of QPs sharing (P, D).

    The linear term c and the offsets b may change between calls. Computed
    once: the Cholesky factor P = U'U and D P^{-1}. When P is the identity
    (np.array_equal, checked once) there is no factor: the free minimizer
    is -c, and D P^{-1} is D itself. Per active set A the upper Cholesky
    factor of the Schur complement S_A = D_A P^{-1} D_A' is formed on first
    use and cached, at most _FACTOR_CACHE sets with the oldest evicted
    first; a numerically singular S_A (duplicated rows) is cached as None
    and solved by lstsq. The direct guesses and the Goldfarb-Idnani
    fallback share these factors. No m x m Gram matrix is formed. Warm
    duals are passed per call, so one engine can serve several independent
    iterate streams.
    """

    def __init__(self, P, D):
        self.P = np.asarray(P, dtype=float)
        self.D = np.asarray(D, dtype=float)
        self.n = self.P.shape[0]
        self.m = self.D.shape[0]
        if not np.all(np.isfinite(self.D)):
            raise NonFiniteData("constraint matrix D contains NaN or infinite entries")
        self._identity = np.array_equal(self.P, np.eye(self.n))
        self._factors = {}
        if self._identity:
            self._DPinv = self.D
        else:
            self._U = scipy.linalg.cho_factor(self.P)[0]
            self._DPinv = np.ascontiguousarray(dpotrs(self._U, self.D.T)[0].T)

    def _kkt(self, c, b, y, active=None, lam_a=None):
        """KKT residual of y with multipliers lam_a on the rows active and
        zero elsewhere; the primal violation is taken over every row, while
        stationarity and complementarity need only the active rows."""
        violation = self.D @ y - b
        stationarity = (y if self._identity else self.P @ y) + c
        if active is None:
            return _kkt_error(stationarity, violation, 0.0)
        return _kkt_error(stationarity + lam_a @ self.D[active], violation,
                          lam_a @ violation[active])

    def _factor(self, active):
        """Cached upper Cholesky factor of S_A, or None when S_A is
        numerically singular (LAPACK potrf fails or a pivot is tiny)."""
        key = active.tobytes()
        try:
            return self._factors[key]
        except KeyError:
            pass
        R, info = dpotrf(self._schur(active))
        pivots = np.diagonal(R)
        if info or pivots.min() <= _PIVOT_RATIO * pivots.max():
            R = None
        if len(self._factors) >= _FACTOR_CACHE:
            del self._factors[next(iter(self._factors))]
        self._factors[key] = R
        return R

    def _multipliers(self, active, rhs):
        """Solve S_A lam = rhs through the cached factor of S_A (LAPACK
        potrs), or by lstsq when S_A is numerically singular."""
        R = self._factor(active)
        if R is None:
            return np.linalg.lstsq(self._schur(active), rhs, rcond=None)[0]
        return dpotrs(R, rhs)[0]

    def _schur(self, active):
        """S_A = D_A P^{-1} D_A' for the rows active."""
        return self.D[active] @ self._DPinv[active].T

    def _try_active_set(self, c, b, y_free, violation, active, tol):
        """Solve assuming the given rows are active; None unless KKT <= tol.

        Uses the Schur complement S_A lam = D_A y_free - b_A, so the per-call
        dense work is two triangular solves with the cached factor of S_A
        and a rank-|A| update of the free minimizer.
        """
        if active.size == 0:
            return None
        lam_a = self._multipliers(active, violation[active])
        if (lam_a < -1e-9 * max(1.0, float(np.abs(lam_a).max()))).any():
            # retry once without the clearly inactive rows
            active = active[lam_a >= 0.0]
            if active.size == 0:
                return None
            lam_a = self._multipliers(active, violation[active])
        lam_a = np.maximum(lam_a, 0.0)
        y = y_free - lam_a @ self._DPinv[active]
        err = self._kkt(c, b, y, active, lam_a)
        if err > tol:
            return None
        lam = np.zeros(self.m)
        lam[active] = lam_a
        return QpSolution(y, lam, err, OPTIMAL, 0)

    def _dual_active_set(self, c, b, y_free, violation, start, tol):
        """Exact fallback: Goldfarb-Idnani dual active-set steps from start.

        The start is the guess that just missed, less negative multipliers
        (dropped until it is dual feasible; a singular start falls back to
        the empty set). A step raises the multiplier of the most violated
        row p by t: y moves by -t z and the active multipliers by -t r, with
        r = S_A^{-1} D_A P^{-1} n_p and z = P^{-1} (n_p - D_A' r). A full
        step makes p active; a partial one drops the active row whose
        multiplier reaches zero first. Once no row is violated by more than
        tol, the final set is solved once more as a guess. With neither a
        primal nor a dual step, the slack LP decides if the set is empty.
        """
        active, lam_a = start[:0], np.zeros(0)
        while start.size:
            R = self._factor(start)
            if R is None:
                break
            lam = dpotrs(R, violation[start])[0]
            if (lam >= 0.0).all():
                active, lam_a = start, lam
                break
            start = start[lam >= 0.0]
        y, p = y_free - lam_a @ self._DPinv[active], -1
        for _ in range(_DUAL_STEPS):
            if p < 0:
                excess = self.D @ y - b
                excess[active] = 0.0
                p = int(np.argmax(excess))
                if excess[p] <= tol:
                    break
                lam_p = 0.0
            n_p, DPinv_a = self.D[p], self._DPinv[active]
            r = self._multipliers(active, DPinv_a @ n_p) if active.size else np.zeros(0)
            z = self._DPinv[p] - r @ DPinv_a
            curvature = float(n_p @ z)
            # z vanishes (to the pivot test's accuracy) when n_p depends on
            # the active rows: then only a dual step exists
            primal = curvature > _PIVOT_RATIO ** 2 * float(n_p @ self._DPinv[p])
            t_full = max(float(n_p @ y) - b[p], 0.0) / curvature if primal else np.inf
            blocking = np.flatnonzero(r > 0.0)
            ratios = lam_a[blocking] / r[blocking]
            t = min(t_full, ratios.min(initial=np.inf))
            if t == np.inf:
                report = certify_feasibility(self.D, -b)
                if not report.feasible:
                    raise Infeasible("constraint set certified empty "
                                     f"(max slack {report.slack:.3e})",
                                     slack=report.slack)
                break
            if primal:
                y = y - t * z
            lam_a, lam_p = lam_a - t * r, lam_p + t
            if t == t_full:
                k = np.searchsorted(active, p)
                active, lam_a = np.insert(active, k, p), np.insert(lam_a, k, lam_p)
                p = -1
            else:
                k = blocking[np.argmin(ratios)]
                active, lam_a = np.delete(active, k), np.delete(lam_a, k)
        sol = self._try_active_set(c, b, y_free, violation, active, tol)
        if sol is not None:
            return dataclasses.replace(sol, iterations=1)
        lam = np.zeros(self.m)
        lam[active] = lam_a
        err = self._kkt(c, b, y, active, lam_a)
        return QpSolution(y, lam, err, OPTIMAL if err <= tol else ITER_LIMIT, 1)

    def solve(self, c, b=None, warm_dual=None, tol=DEFAULT_TOL):
        """Solve for the given linear term and constraint offsets b (= -d).

        Returns a QpSolution whose status is ``optimal`` (KKT residual <= tol)
        or ``iter_limit`` (the fallback stopped short of tol); ``iterations``
        is 1 when the dual active-set fallback ran and 0 otherwise. Raises
        NonFiniteData when c or b has a NaN or infinite entry, and
        Infeasible when the slack-maximization phase certifies an empty
        polyhedron.
        """
        c = np.asarray(c, dtype=float).ravel()
        if self.m == 0:
            b = np.zeros(0)
        elif b is None:
            raise ValueError("constraint offsets b are required when D has rows")
        else:
            b = np.asarray(b, dtype=float).ravel()
        if not (np.isfinite(c).all() and np.isfinite(b).all()):
            raise NonFiniteData("QP data c or b contain NaN or infinite entries")

        # Unconstrained minimizer already feasible: exact solution, zero duals.
        y_free = -c if self._identity else dpotrs(self._U, -c)[0]
        violation = self.D @ y_free - b
        if (violation <= 0.0).all():
            err = self._kkt(c, b, y_free)
            return QpSolution(y_free, np.zeros(self.m), err,
                              OPTIMAL if err <= tol else ITER_LIMIT, 0)

        # Direct active-set guesses before the fallback: the caller's
        # previous duals, then the rows violated by the free minimizer. The
        # fallback starts from the first of them.
        guesses = [np.flatnonzero(violation > 0.0)]
        if warm_dual is not None:
            guesses.insert(0, np.flatnonzero(
                np.asarray(warm_dual, dtype=float).ravel() > 1e-12))
        for active in guesses:
            sol = self._try_active_set(c, b, y_free, violation, active, tol)
            if sol is not None:
                return sol
        return self._dual_active_set(c, b, y_free, violation, guesses[0], tol)


def solve_qp(problem, tol=DEFAULT_TOL, warm_dual=None):
    """One-shot QP solve; see QpEngine for the reusable interface.

    Returns a QpSolution whose status is ``optimal`` (KKT residual <= tol)
    or ``iter_limit`` (the fallback stopped short of tol). Raises Infeasible
    when the constraint set is certified empty.
    """
    engine = QpEngine(problem.P, problem.C.D)
    return engine.solve(problem.c, b=-np.asarray(problem.C.d, dtype=float).ravel(),
                        warm_dual=warm_dual, tol=tol)
