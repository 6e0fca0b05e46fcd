"""Convex QP subsolver over polyhedra.

Minimizes ``0.5 y' P y + c' y`` over ``{y : D y + d <= 0}`` with P symmetric
positive definite by one active-set method: Goldfarb-Idnani dual active-set
steps (Math. Programming 27, 1983) from a start set, the caller's warm duals
or else the rows violated by the unconstrained minimizer. A start that is
already optimal takes no step: the warm-started online active-set strategy
(Ferreau, Bock & Diehl, IJRNC 2008), and the performance lever for
receding-horizon re-solves. An active set A is solved through the Cholesky
factor of its Schur complement S_A = D_A P^{-1} D_A', which each engine
caches, so a set seen before costs two triangular solves. No m x m Gram
matrix D P^{-1} D' is formed, and P = I skips every solve with P. The
contract is the KKT tolerance (stationarity, the violation of every row and
complementarity).

Infeasibility is never inferred from round-off: it is certified by the
slack-maximization phase (maximize s subject to D u + d + s <= 0, s <= 1),
the only user of scipy.optimize, which is imported there.
"""

import dataclasses
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (DimensionMismatch, GameViError, Infeasible, NonFiniteData,
                     NotStronglyMonotone, NotSymmetric)

__all__ = [
    "QpSolution", "QpEngine", "FeasibilityReport", "certify_feasibility",
    "OPTIMAL", "ITER_LIMIT",
]

OPTIMAL = "optimal"
ITER_LIMIT = "iter_limit"

DEFAULT_TOL = 1e-8

# dual active-set steps per solve; reaching the cap gives iter_limit
_DUAL_STEPS = 1000

# active sets whose Schur-complement factor one engine keeps
_FACTOR_CACHE = 64

# a Cholesky pivot of S_A at or below this fraction of the largest
# (cond(S_A) above about 1e10) marks S_A numerically singular, as with
# duplicated rows: such a start set is replaced by the empty set, and such
# a set met by a step ends the steps
_PIVOT_RATIO = 1e-5

# certify_feasibility's optimal slack counts as zero within this tolerance
_SLACK_TOL = 1e-9


def _check_symmetric(P):
    """Raise NotSymmetric unless |P - P'| <= 1e-12 max(1, max|P|): a
    Cholesky factorization reads one triangle, so an asymmetric P would
    silently define a different QP."""
    scale = max(1.0, np.max(np.abs(P)))
    if np.max(np.abs(P - P.T)) > 1e-12 * scale:
        raise NotSymmetric("P must be symmetric")


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


def certify_feasibility(D, d):
    """Maximize s subject to Du + d + s*1 <= 0, s <= 1 (an LP).

    The polyhedron is strictly feasible iff the optimal s is positive,
    feasible iff s >= 0, and certifiably empty iff s < 0, each up to
    _SLACK_TOL.
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
    return FeasibilityReport(s, res.x[:n].copy(), s > _SLACK_TOL, s >= -_SLACK_TOL)


def _kkt_error(stationarity, violation, complementarity):
    """max of |stationarity|, the row violations clipped at 0 and
    |complementarity|; inf when any term is not finite, so a NaN never
    certifies (Python's max() would drop it)."""
    terms = (float(np.abs(stationarity).max(initial=0.0)),
             float(violation.max(initial=0.0)), abs(float(complementarity)))
    return max(terms) if math.isfinite(sum(terms)) else np.inf


class QpEngine:
    """Reusable solver for a family of QPs sharing (P, D).

    The linear term c, the offsets b and the warm duals are passed per
    call, so one engine can serve several independent iterate streams.
    Computed once: the Cholesky factor P = U'U (LAPACK potrf, as for S_A)
    and D P^{-1}; when P is exactly the identity (checked once) the free
    minimizer is -c and D P^{-1} is D itself. The upper Cholesky factor of
    S_A is formed on an active set's first use and cached, at most
    _FACTOR_CACHE sets with the oldest evicted first; a numerically
    singular S_A (duplicated rows) is cached as None.

    Raises DimensionMismatch unless P is n x n and D has n columns,
    NonFiniteData when P or D has a NaN or infinite entry, NotSymmetric
    when P is not symmetric (to 1e-12, relative) and NotStronglyMonotone
    when P is not positive definite.
    """

    def __init__(self, P, D):
        self.P = np.asarray(P, dtype=float)
        self.D = np.asarray(D, dtype=float)
        if self.D.ndim != 2 or self.P.shape != (self.D.shape[1],) * 2:
            raise DimensionMismatch("P must be n x n and D must have n columns")
        self.m, self.n = self.D.shape
        if not (np.isfinite(self.P).all() and np.isfinite(self.D).all()):
            raise NonFiniteData("QP data P or D contain NaN or infinite entries")
        # P = I exactly when its n nonzero entries are ones on the diagonal
        self._identity = bool(np.count_nonzero(self.P) == self.n
                              and (self.P.diagonal() == 1.0).all())
        self._factors = {}
        if self._identity:
            self._DPinv = self.D
        else:
            _check_symmetric(self.P)
            self._U, info = dpotrf(self.P)
            if info:
                raise NotStronglyMonotone("P is not positive definite")
            self._DPinv = np.ascontiguousarray(dpotrs(self._U, self.D.T)[0].T)

    def _solution(self, c, b, y, active, lam_a, tol, iterations):
        """QpSolution of y with multipliers lam_a on the rows active and
        zero elsewhere, its status set by the KKT certificate: the primal
        violation is taken over every row, while stationarity and
        complementarity need only the active rows."""
        violation = self.D @ y
        violation -= b
        stationarity = (y if self._identity else self.P @ y) + c
        stationarity += lam_a @ self.D[active]
        err = _kkt_error(stationarity, violation, lam_a @ violation[active])
        lam = np.zeros(self.m)
        lam[active] = lam_a
        return QpSolution(y, lam, err, OPTIMAL if err <= tol else ITER_LIMIT,
                          iterations)

    def _factor(self, active):
        """Cached upper Cholesky factor of S_A, or None when S_A is
        numerically singular (LAPACK potrf fails or a pivot is tiny)."""
        key = active.tobytes()
        if key in self._factors:
            return self._factors[key]
        R, info = dpotrf(self.D[active] @ self._DPinv[active].T)
        pivots = np.diagonal(R)
        if info or pivots.min() <= _PIVOT_RATIO * pivots.max():
            R = None
        if len(self._factors) >= _FACTOR_CACHE:
            del self._factors[next(iter(self._factors))]
        self._factors[key] = R
        return R

    def _dual_feasible(self, start, violation):
        """The set start and its multipliers S_A^{-1} (D_A y_free - b_A),
        made dual feasible: while one is below -1e-9 max|lam|, the rows with
        negative multipliers are dropped and the rest solved again; the
        others are clipped to 0. A singular S_A gives the empty set."""
        while start.size:
            R = self._factor(start)
            if R is None:
                break
            lam = dpotrs(R, violation[start])[0]
            low = float(lam.min())
            # max|lam| matters only when a multiplier is negative
            if low >= 0.0 or low >= -1e-9 * max(1.0, -low, float(lam.max())):
                return start, np.maximum(lam, 0.0, out=lam)
            start = start[lam >= 0.0]
        return start[:0], np.zeros(0)

    def solve(self, c, b=None, warm_dual=None, tol=DEFAULT_TOL):
        """Solve for the given linear term and constraint offsets b (= -d).

        A feasible free minimizer is the answer. Otherwise the start set is
        the rows whose warm duals exceed 1e-12 when warm_dual is given, else
        the rows the free minimizer violates, stripped by _dual_feasible; if
        its point meets the KKT tolerance, that is the answer with no step
        taken. Otherwise a step raises the multiplier of the most
        violated row p by t: y moves by -t z and the active multipliers by
        -t r, with r = S_A^{-1} D_A P^{-1} n_p and z = P^{-1} (n_p - D_A' r).
        A full step makes p active; a partial one drops the active row whose
        multiplier reaches zero first. After steps the final set is solved
        once more through its factor. With neither a primal nor a dual
        step, the slack LP decides if the set is empty.

        Returns a QpSolution whose status is ``optimal`` (KKT residual <= tol)
        or ``iter_limit`` (the steps stopped short of tol: at _DUAL_STEPS, on
        a numerically singular set, or on a step length that is NaN because
        the data overflow); ``iterations`` is 1 when the start
        set needed a dual step and 0 otherwise. Raises DimensionMismatch
        when c, b or warm_dual has the wrong length, NonFiniteData when c or
        b has a NaN or infinite entry, and Infeasible when the
        slack-maximization phase certifies an empty polyhedron.
        """
        c = np.asarray(c, dtype=float).ravel()
        b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
        if (c.shape != (self.n,) or b.shape != (self.m,)
                or warm_dual is not None and np.size(warm_dual) != self.m):
            raise DimensionMismatch(f"c must have length {self.n}, and the "
                                    f"offsets b and warm_dual length {self.m}")
        # a finite sum of squares proves every entry finite; only an
        # overflowing one (numpy warns) needs the entrywise test
        if not (math.isfinite(c @ c + b @ b)
                or np.isfinite(c).all() and np.isfinite(b).all()):
            raise NonFiniteData("QP data c or b contain NaN or infinite entries")

        # Unconstrained minimizer already feasible: exact solution, zero duals.
        y_free = -c if self._identity else dpotrs(self._U, -c)[0]
        violation = self.D @ y_free
        violation -= b
        if (violation <= 0.0).all():
            return self._solution(c, b, y_free, np.zeros(0, int), np.zeros(0), tol, 0)

        start = (violation > 0.0 if warm_dual is None
                 else np.asarray(warm_dual, dtype=float).ravel() > 1e-12)
        active, lam_a = self._dual_feasible(start.nonzero()[0], violation)
        y = y_free - lam_a @ self._DPinv[active]
        sol = self._solution(c, b, y, active, lam_a, tol, 0)
        if sol.optimal:
            return sol
        p, steps = -1, 0
        while steps < _DUAL_STEPS:
            if p < 0:
                excess = self.D @ y - b
                excess[active] = 0.0
                p = int(np.argmax(excess))
                if excess[p] <= tol:
                    break
                lam_p = 0.0
            n_p, DPinv_a = self.D[p], self._DPinv[active]
            r = np.zeros(0)
            if active.size:
                R = self._factor(active)
                if R is None:
                    break
                r = dpotrs(R, DPinv_a @ n_p)[0]
            z = self._DPinv[p] - r @ DPinv_a
            curvature = float(n_p @ z)
            # z vanishes (to the pivot test's accuracy) when n_p depends on
            # the active rows: then only a dual step exists
            primal = curvature > _PIVOT_RATIO ** 2 * float(n_p @ self._DPinv[p])
            t_full = max(float(n_p @ y) - b[p], 0.0) / curvature if primal else np.inf
            blocking = np.flatnonzero(r > 0.0)
            ratios = lam_a[blocking] / r[blocking]
            t = min(t_full, ratios.min(initial=np.inf))
            if math.isnan(t):
                # overflowed data: no step length, so the steps end here
                break
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
            steps += 1
        if steps:
            # solved afresh, the final set sheds the steps' round-off
            fresh, lam_f = self._dual_feasible(active, violation)
            sol = self._solution(c, b, y_free - lam_f @ self._DPinv[fresh],
                                 fresh, lam_f, tol, 1)
            if sol.optimal:
                return sol
        return self._solution(c, b, y, active, lam_a, tol, 1)

