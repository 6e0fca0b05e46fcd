"""Affine variational inequality problem model and shared diagnostics.

An AVI is: find u* in C with <M u* + q, u - u*> >= 0 for all u in C, where
C = {u : D u + d <= 0}. The natural residual ||u - proj_C(u - (Mu+q))||
(step 1) is the stopping metric shared by every solver in the package, so
iteration counts are comparable across algorithms.
"""

import dataclasses
import json

import numpy as np

from . import qp
from .errors import DimensionMismatch, NonFiniteData, spec_file

__all__ = [
    "Polyhedron", "AviProblem", "MonotonicityConstants", "AviDiagnosis",
    "project", "natural_residual", "monotonicity_constants", "validate",
    "read_avi", "write_avi",
]


@dataclasses.dataclass
class Polyhedron:
    """Feasible set {u : D u + d <= 0}. D is (m, n); m = 0 means all of R^n."""
    D: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        self.d = np.asarray(self.d, dtype=float).ravel()
        if self.D.shape[0] != self.d.shape[0]:
            raise DimensionMismatch("D and d row counts differ")
        if not np.all(np.isfinite(self.D)) or not np.all(np.isfinite(self.d)):
            raise NonFiniteData("constraint data must be finite")

    @classmethod
    def unconstrained(cls, n):
        return cls(np.zeros((0, n)), np.zeros(0))

    @property
    def dim(self):
        return self.D.shape[1]

    @property
    def n_rows(self):
        return self.D.shape[0]

    def margins(self, u):
        """Row-wise slack -(Du + d); nonnegative iff u is feasible."""
        return -(self.D @ u + self.d)

    def contains(self, u, tol=0.0):
        return self.n_rows == 0 or bool(np.min(self.margins(u)) >= -tol)


@dataclasses.dataclass
class AviProblem:
    """AVI(C, M, q) with F(u) = M u + q and polyhedral C."""
    M: np.ndarray
    q: np.ndarray
    C: Polyhedron

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.M.shape[0]
        if self.M.shape != (n, n):
            raise DimensionMismatch("M must be square")
        if self.q.shape != (n,):
            raise DimensionMismatch("q length must match M")
        if self.C.dim != n:
            raise DimensionMismatch("constraint dimension must match M")
        if not np.all(np.isfinite(self.M)) or not np.all(np.isfinite(self.q)):
            raise NonFiniteData("M and q must be finite")

    @property
    def dim(self):
        return self.M.shape[0]

    def F(self, u):
        return self.M @ u + self.q


@dataclasses.dataclass
class MonotonicityConstants:
    """mu = max(lambda_min, 0); lambda_min is the raw smallest eigenvalue of
    the symmetric part; L is the largest singular value of M."""
    mu: float
    L: float
    lambda_min: float

    @property
    def strongly_monotone(self):
        return self.lambda_min > 0.0


def monotonicity_constants(M):
    """Strong-monotonicity modulus and Lipschitz constant of u -> Mu + q."""
    M = np.asarray(M, dtype=float)
    # halves first: M + M' overflows for entries above ~9e307
    lam_min = float(np.linalg.eigvalsh(M / 2.0 + M.T / 2.0)[0])
    L = float(np.linalg.norm(M, 2))
    return MonotonicityConstants(max(lam_min, 0.0), L, lam_min)


def project(C, v, engine=None, solution=False):
    """Metric projection of v onto C, computed as the QP min 0.5||u - v||^2
    to KKT tolerance 1e-10; engine, if given, is an identity-metric
    QpEngine for C.D. With solution=True the whole qp.QpSolution is
    returned (its status says whether the tolerance was met), otherwise its
    point. Raises Infeasible when C is certified empty.
    """
    v = np.asarray(v, dtype=float).ravel()
    if C.n_rows == 0:
        sol = qp.QpSolution(v.copy(), np.zeros(0), 0.0, qp.OPTIMAL, 0)
    else:
        if engine is None:
            engine = qp.QpEngine(np.eye(C.dim), C.D)
        sol = engine.solve(-v, b=-C.d, tol=1e-10)
    return sol if solution else sol.y


def natural_residual(p, u, engine=None):
    """||u - proj_C(u - (Mu + q))||, zero exactly at VI solutions."""
    u = np.asarray(u, dtype=float).ravel()
    v = u - p.F(u)
    return float(np.linalg.norm(u - project(p.C, v, engine=engine)))


@dataclasses.dataclass
class AviDiagnosis:
    """Validation report; failures are carried here rather than raised."""
    dims_ok: bool
    mu: float
    lambda_min: float
    strongly_monotone: bool
    strictly_feasible: bool
    feasible: bool
    slack: float
    messages: list

    @property
    def ok(self):
        return self.dims_ok and self.strongly_monotone and self.strictly_feasible


def validate(p):
    """Dimension, monotonicity and strict-feasibility diagnostics for an AVI.

    Strict feasibility uses the slack-maximization phase: maximize s subject
    to Du + d + s <= 0, s <= 1; strictly feasible iff the optimum is > 0.
    """
    messages = []
    dims_ok = True
    try:
        AviProblem(p.M, p.q, p.C)
    except ValueError as exc:
        dims_ok = False
        messages.append(str(exc))
    mono = monotonicity_constants(p.M)
    if not mono.strongly_monotone:
        messages.append(f"not strongly monotone (lambda_min={mono.lambda_min:.3e})")
    feas = qp.certify_feasibility(p.C.D, p.C.d)
    if not feas.feasible:
        messages.append(f"infeasible set (max slack {feas.slack:.3e})")
    elif not feas.strictly_feasible:
        messages.append(f"no strict interior (max slack {feas.slack:.3e})")
    return AviDiagnosis(dims_ok, mono.mu, mono.lambda_min, mono.strongly_monotone,
                        feas.strictly_feasible, feas.feasible, feas.slack, messages)


def write_avi(p, path):
    """Serialize an AVI problem to JSON (row-major matrix entries).

    Floats are written with Python's shortest round-trip representation,
    which reproduces the exact IEEE-754 double on read-back.
    """
    n = p.dim
    m = p.C.n_rows
    payload = {
        "n": n,
        "m": m,
        "M": [float(x) for x in p.M.ravel()],
        "q": [float(x) for x in p.q],
        "D": [float(x) for x in p.C.D.ravel()],
        "d": [float(x) for x in p.C.d],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _matrix(payload, name, shape):
    """Row-major entries payload[name] as a matrix of the given shape."""
    a = np.array(payload[name], dtype=float)
    if a.size != shape[0] * shape[1]:
        raise DimensionMismatch(
            f"{name} has {a.size} entries, expected {shape[0]} x {shape[1]}")
    return a.reshape(shape)


def read_avi(path):
    with spec_file(path, ("n", "m", "M", "q", "D", "d")) as payload:
        n = int(payload["n"])
        m = int(payload["m"])
        if n < 1 or m < 0:
            raise DimensionMismatch(f"need n >= 1 and m >= 0, got n = {n}, m = {m}")
        M = _matrix(payload, "M", (n, n))
        q = np.array(payload["q"], dtype=float)
        D = _matrix(payload, "D", (m, n))
        d = np.array(payload["d"], dtype=float)
        return AviProblem(M, q, Polyhedron(D, d))
