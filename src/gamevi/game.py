"""Linear-quadratic dynamic games and their compilation to affine VIs.

A game couples N agents through shared dynamics x+ = A x + sum_i B_i u_i,
per-agent quadratic stage costs 0.5(||x||_Qi^2 + ||u_i||_Ri^2), and joint
polyhedral stage constraints. Over a horizon T the open-loop equilibrium
problem condenses (after eliminating the state with the prediction matrices
Theta, Gamma_i) to an affine VI whose operator matrix is

    M = blkdg(Rbar_i) + [Gamma_i' Qbar_i Gamma_j]_ij,
    Rbar_i = I_T kron R_i,   Qbar_i = blkdg(I_{T-1} kron Q_i, P_i),

where P_i comes from the coupled algebraic Riccati equations of the
infinite-horizon unconstrained equilibrium. P_i is in general nonsymmetric,
which is why M is nonsymmetric and the splitting machinery earns its keep.

Stacking convention: u = col_i(col_t(u_i[t])) -- agent-major, time inner.
Stage constraints come in two families:

* mixed rows  Ex x[t] + sum_i Eu_i u_i[t] + e <= 0   for t = 0..T-1
  (pure input constraints are the Ex = 0 special case; pre-stabilization
  turns input boxes into genuinely mixed rows), and
* state rows  Dx x[t] + dx <= 0                      for t = 1..T
  (x0 is measured, not decided, so it is assumed admissible).
"""

import copy
import dataclasses
import itertools
import json
import math

import numpy as np
from numpy import kron

from . import qp
from .avi import AviProblem, Polyhedron
from .errors import DimensionMismatch, NoConvergence, NonFiniteData, spec_file
from .solvers import make_dr_splitting

__all__ = [
    "LqGame", "RiccatiSolution", "AugmentedRiccati", "CompiledGameVi",
    "solve_coupled_riccati", "build_augmented", "solve_are", "compile_vi",
    "unconstrained_ne_sequence", "in_terminal_set", "best_response",
    "read_game", "write_game",
]


def _matrices(items, name):
    out = [np.atleast_2d(np.asarray(m, dtype=float)) for m in items]
    if not out:
        raise DimensionMismatch(f"{name} must be a non-empty list")
    return out


# kron, blkdg, build_theta and build_gamma stay module globals that callers
# look up at call time: perfbench/tracing.py wraps them here to time the
# VI assembly.

def blkdg(blocks):
    """Block-diagonal stack of a list of matrices; off-diagonal fill is
    exactly zero."""
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def build_theta(a, horizon):
    """Stacked state predictor col(A^1, ..., A^T): predicts x[1..T] from x0,
    i.e. powers start at one."""
    n = a.shape[0]
    out = np.zeros((n * horizon, n))
    a_pow = a
    for t in range(horizon):
        out[t * n:(t + 1) * n, :] = a_pow
        if t + 1 < horizon:
            a_pow = a_pow @ a
    return out


def build_gamma(a, b, horizon):
    """Lower block-triangular input-to-state map for x[1..T].

    Block (r, c), one-indexed with r >= c, equals A^(r-c) B; the block
    diagonal is B itself. Column c collects the effect of the input applied
    at stage c-1.
    """
    n, m = b.shape
    out = np.zeros((n * horizon, m * horizon))
    # first block column: col(B, AB, ..., A^{T-1} B); later columns repeat it shifted
    col = np.zeros((n * horizon, m))
    col[0:n, :] = b
    for r in range(1, horizon):
        col[r * n:(r + 1) * n, :] = a @ col[(r - 1) * n:r * n, :]
    for c in range(horizon):
        out[c * n:, c * m:(c + 1) * m] = col[:(horizon - c) * n, :]
    return out


class LqGame:
    """Game data over a fixed horizon; immutable by convention after build.

    offsets[i]:offsets[i + 1] are agent i's rows of a stacked stage input
    col_i(u_i[t]); scaled by T they bound its block of the horizon input.
    """

    def __init__(self, A, B, Q, R, T, Ex=None, Eu=None, e=None,
                 Dx=None, dx=None, meta=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = _matrices(B, "B")
        self.Q = _matrices(Q, "Q")
        self.R = _matrices(R, "R")
        self.T = int(T)
        self.N = len(self.B)
        self.n = self.A.shape[0]
        self.m = [b.shape[1] for b in self.B]
        self.offsets = tuple(itertools.accumulate(self.m, initial=0))
        if self.A.shape != (self.n, self.n):
            raise DimensionMismatch("A must be square")
        if self.T < 1:
            raise DimensionMismatch("horizon must be >= 1")
        if len(self.Q) != self.N or len(self.R) != self.N:
            raise DimensionMismatch("B, Q, R must have one entry per agent")
        for i in range(self.N):
            if self.B[i].shape[0] != self.n:
                raise DimensionMismatch(f"B[{i}] height must equal the state dimension")
            if self.Q[i].shape != (self.n, self.n):
                raise DimensionMismatch(f"Q[{i}] must be n x n")
            if self.R[i].shape != (self.m[i], self.m[i]):
                raise DimensionMismatch(f"R[{i}] must match the width of B[{i}]")
        # mixed rows: Ex x[t] + sum_i Eu_i u_i[t] + e <= 0, t = 0..T-1
        if Eu is None:
            self.Ex = np.zeros((0, self.n))
            self.Eu = [np.zeros((0, mi)) for mi in self.m]
            self.e = np.zeros(0)
        else:
            self.Eu = _matrices(Eu, "Eu")
            p = self.Eu[0].shape[0]
            self.Ex = (np.zeros((p, self.n)) if Ex is None
                       else np.atleast_2d(np.asarray(Ex, dtype=float)))
            self.e = np.asarray(e, dtype=float).ravel()
            if len(self.Eu) != self.N or any(m.shape[0] != p for m in self.Eu):
                raise DimensionMismatch("Eu blocks must agree on the row count")
            if self.Ex.shape != (p, self.n) or self.e.shape != (p,):
                raise DimensionMismatch("Ex / e shapes do not match the mixed rows")
        # state rows: Dx x[t] + dx <= 0, t = 1..T
        if Dx is None:
            self.Dx = np.zeros((0, self.n))
            self.dx = np.zeros(0)
        else:
            self.Dx = np.atleast_2d(np.asarray(Dx, dtype=float))
            self.dx = np.asarray(dx, dtype=float).ravel()
            if self.Dx.shape[1] != self.n or self.Dx.shape[0] != self.dx.shape[0]:
                raise DimensionMismatch("Dx / dx shapes are inconsistent")
        if not all(np.all(np.isfinite(a)) for a in [
                self.A, *self.B, *self.Q, *self.R, self.Ex, *self.Eu, self.e,
                self.Dx, self.dx]):
            raise NonFiniteData("game data must be finite")
        self.meta = dict(meta) if meta else {}
        self.source = None  # original parts for JSON round-trips

    @classmethod
    def from_stage_constraints(cls, A, B, Q, R, T, Du=None, du=None,
                               Dx=None, dx=None, K_pre=None, meta=None):
        """Build from shared per-agent input rows sum_i Du_i u_i[t] + du <= 0
        and state rows, optionally applying a pre-stabilizing substitution
        u_i = K_pre_i x + v_i (constraints and dynamics are rewritten in the
        residual input v)."""
        game = cls(A, B, Q, R, T, Eu=Du, e=du, Dx=Dx, dx=dx, meta=meta)
        source = {
            "A": game.A, "B": game.B, "Q": game.Q, "R": game.R, "T": game.T,
            "Du": None if Du is None else game.Eu, "du": None if Du is None else game.e,
            "Dx": None if Dx is None else game.Dx, "dx": None if Dx is None else game.dx,
            "K_pre": None,
        }
        if K_pre is not None:
            gains = _matrices(K_pre, "K_pre")
            if len(gains) != game.N or any(
                    g.shape != (game.m[i], game.n) for i, g in enumerate(gains)):
                raise DimensionMismatch("K_pre gains must be m_i x n per agent")
            game = game.prestabilized(gains)
            source["K_pre"] = gains
        game.source = source
        return game

    def prestabilized(self, gains):
        """Rewrite the game in residual inputs u_i = K_i x + v_i.

        The dynamics matrix becomes A + sum_i B_i K_i; mixed rows pick up
        the state feedthrough sum_i Eu_i K_i; state rows and cost weights
        are unchanged (the input weight applies to the residual input).
        """
        gains = _matrices(gains, "gains")
        A_new = self.A + sum(self.B[i] @ gains[i] for i in range(self.N))
        Ex_new = self.Ex + sum(self.Eu[i] @ gains[i] for i in range(self.N))
        return LqGame(A_new, self.B, self.Q, self.R, self.T,
                      Ex=Ex_new, Eu=self.Eu, e=self.e, Dx=self.Dx, dx=self.dx,
                      meta=self.meta)

    @property
    def input_dim(self):
        return self.offsets[-1] * self.T

    def agent_slice(self, i):
        return slice(self.offsets[i] * self.T, self.offsets[i + 1] * self.T)

    def split_input(self, u):
        """Stacked input -> list of per-agent (T, m_i) arrays."""
        return [np.asarray(u[self.agent_slice(i)]).reshape(self.T, self.m[i])
                for i in range(self.N)]


@dataclasses.dataclass
class RiccatiSolution:
    """Coupled-ARE products. P_ol entries are in general nonsymmetric."""
    P_ol: list
    K_ol: list
    residuals: list
    iterations: int
    A_cl: np.ndarray
    spectral_radius: float


def _solve_r(R, Bt, name):
    """R^{-1} B'; NoConvergence naming the input weight when R is singular."""
    try:
        return np.linalg.solve(R, Bt)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"input weight {name} is singular: {exc}") from exc


def solve_coupled_riccati(game, tol=1e-10, max_iter=10_000):
    """Fixed-point sweep for the coupled AREs

        P_i = Q_i + A' P_i (A + sum_j B_j K_j)
        K_i = -R_i^{-1} B_i' P_i (A + sum_j B_j K_j).

    Each sweep solves the K-equations jointly (they are linear in the
    stacked K once P is fixed) and then updates every P_i; iteration starts
    from P_i = Q_i, K_i = 0. The per-sweep P increment equals the equation
    residual at the current iterate, so the stopping rule is the residual;
    tol is measured relative to 1 + max|P| to stay meaningful when the
    cost-to-go matrices are large. max_iter counts sweeps; a singular R_i
    and a non-finite or exploding (> 1e14) increment raise NoConvergence.

    A sweep is a handful of stacked products: with Bs = [B_1 .. B_N] and
    L = blkdiag(R_i^{-1} B_i') vstack(P_i), the K-system is
    (I + L Bs) K = -L A, and all P_i update in one broadcast over the
    (N, n, n) stack.
    """
    A, Q = game.A, np.stack(game.Q)
    n, N, offs = game.n, game.N, game.offsets
    P = Q.copy()
    Bs = np.hstack(game.B)
    RinvBt = blkdg([_solve_r(game.R[i], game.B[i].T, f"R[{i}]") for i in range(N)])
    I_m = np.eye(offs[-1])

    def sweep_K(P):
        L = RinvBt @ P.reshape(N * n, n)
        try:
            return np.linalg.solve(I_m + L @ Bs, -L @ A)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"coupled Riccati K-system is singular: {exc}")

    res = np.inf
    scale = 1.0
    for it in range(1, max_iter + 1):
        A_cl = A + Bs @ sweep_K(P)
        P_new = Q + A.T @ P @ A_cl
        res = float(np.max(np.abs(P_new - P)))
        scale = 1.0 + float(np.max(np.abs(P_new)))
        P = P_new
        if not np.isfinite(res) or res > 1e14:
            raise NoConvergence(
                f"coupled Riccati sweep diverged at iteration {it} (residual {res:.3e})")
        if res <= tol * scale:
            break
    if res > tol * scale:
        raise NoConvergence(
            f"coupled Riccati sweep did not reach tol={tol:.1e} in {max_iter} "
            f"iterations (relative residual {res/scale:.3e})")
    Kstack = sweep_K(P)
    A_cl = A + Bs @ Kstack
    rho = float(np.max(np.abs(np.linalg.eigvals(A_cl))))
    res_p = np.max(np.abs(P - (Q + A.T @ P @ A_cl)), axis=(1, 2))
    res_k = np.abs(Kstack + RinvBt @ P.reshape(N * n, n) @ A_cl)
    residuals = [max(float(res_p[i]), float(np.max(res_k[offs[i]:offs[i+1]])))
                 for i in range(N)]
    if rho >= 1.0:
        raise NoConvergence(
            f"coupled Riccati produced an unstable closed loop (rho = {rho:.6f})")
    K = [Kstack[offs[i]:offs[i+1]] for i in range(N)]
    return RiccatiSolution(list(P), K, residuals, it, A_cl, rho)


def build_augmented(game, riccati):
    """Per-agent augmented LQR data (A_hat_i, B_hat_i, Q_hat_i).

    The augmented state stacks agent i's own prediction on top of the
    collective equilibrium prediction: the upper-right block is the drift
    sum_{j != i} B_j K_j, the lower-right block is the equilibrium closed
    loop, and agent i's input only enters the top half.
    """
    n, N = game.n, game.N
    out = []
    for i in range(N):
        drift = sum(game.B[j] @ riccati.K_ol[j] for j in range(N) if j != i)
        if N == 1:
            drift = np.zeros((n, n))
        A_hat = np.block([[game.A, drift],
                          [np.zeros((n, n)), riccati.A_cl]])
        B_hat = np.vstack([game.B[i], np.zeros((n, game.m[i]))])
        Q_hat = blkdg([game.Q[i], np.zeros((n, n))])
        out.append((A_hat, B_hat, Q_hat))
    return out


def solve_are(A_hat, B_hat, Q_hat, R, tol=1e-12, max_iter=64):
    """Single DARE  P = Q + A' P (A + B K),  K = -(R + B' P B)^{-1} B' P A,
    by the structure-preserving doubling algorithm (Chu, Fan & Lin 2005).

    From A_0 = A, G_0 = B R^{-1} B', H_0 = Q each doubling sets
    W = I + G H and

        A <- A W^{-1} A,   G <- G + A W^{-1} G A',   H <- H + A' H W^{-1} A,

    so H_k equals the value-iteration iterate after 2^k backward steps from
    P = Q and converges quadratically to the stabilizing solution. G and H
    are symmetrized every doubling; the loop stops when the H increment
    falls below tol relative to 1 + max|H|. max_iter counts doublings, not
    sweeps. NoConvergence is raised when R is singular, when an iterate
    turns non-finite (an unstable mode the input cannot reach overflows
    within about ten doublings) or when the cap is hit; there is no absolute
    size limit, since a stabilizing solution may legitimately be very large.
    """
    A = np.asarray(A_hat, dtype=float)
    B = np.asarray(B_hat, dtype=float)
    Q = np.asarray(Q_hat, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    G = B @ _solve_r(R, B.T, "R")
    G = (G + G.T) / 2.0
    H, Ak = Q.copy(), A
    I_n = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            try:
                WA_WG = np.linalg.solve(I_n + G @ H, np.hstack([Ak, G]))
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"ARE doubling is singular at step {it}: {exc}")
            WA, WG = WA_WG[:, :n], WA_WG[:, n:]
            H_new = H + Ak.T @ H @ WA
            G = G + Ak @ WG @ Ak.T
            Ak = Ak @ WA
            H_new = (H_new + H_new.T) / 2.0
            G = (G + G.T) / 2.0
            delta = float(np.max(np.abs(H_new - H)))
            scale = 1.0 + float(np.max(np.abs(H_new)))
            H = H_new
            if not np.isfinite(delta):
                raise NoConvergence(f"ARE doubling diverged at step {it}")
            if delta <= tol * scale:
                break
        else:
            raise NoConvergence(
                f"ARE doubling did not reach tol={tol:.1e} in {max_iter} doublings")
    K = -np.linalg.solve(R + B.T @ H @ B, B.T @ H @ A)
    return H, K


@dataclasses.dataclass
class AugmentedRiccati:
    """Augmented-ARE solutions P_hat_i = [[X_i, Y_i], [Y_i', Z_i]]
    (symmetric PSD), assembled from their blocks, and each one's residual
    in the full augmented DARE of build_augmented."""
    P_hat: list
    residuals: list


def _stein(L, C, R):
    """Solution S = sum_k L^k C R^k of the Stein equations S = C + L S R
    for a stack C of shape (N, n, n); L and R are (n, n) or stacked like C.

    Smith doubling: S <- S + L S R, L <- L^2, R <- R^2, so 2^k terms are
    summed after k doublings. The stopping rule is solve_are's at its
    defaults, applied to every equation of the stack: each increment at
    most 1e-12 relative to 1 + max|S| of its equation. NoConvergence is
    raised on a non-finite iterate (rho(L) rho(R) >= 1 overflows within
    about ten doublings) or after 64 doublings.
    """
    S = C
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, 65):
            inc = L @ S @ R
            S = S + inc
            delta = np.max(np.abs(inc), axis=(-2, -1))
            if not np.isfinite(delta).all():
                raise NoConvergence(f"Stein doubling diverged at step {it}")
            if (delta <= 1e-12 * (1.0 + np.max(np.abs(S), axis=(-2, -1)))).all():
                return S
            L = L @ L
            R = R @ R
    raise NoConvergence("Stein doubling did not reach tol=1.0e-12 in 64 doublings")


def _augmented_riccati(game, riccati):
    """Every agent's augmented ARE (build_augmented) solved through its
    block structure, P_hat_i = [[X_i, Y_i], [Y_i', Z_i]].

    Q_hat and B_hat vanish on the profile block and A_hat is block upper
    triangular, so the augmented DARE splits into
      X_i, K_i = solve_are(A, B_i, Q_i, R_i)            (n-dim DARE)
      Y_i = A_Ki' (X_i Dr_i + Y_i A_cl)                  (Stein)
      K_y = -(R_i + B_i' X_i B_i)^{-1} B_i' (X_i Dr_i + Y_i A_cl)
      Z_i = A_cl' Z_i A_cl + C_i                         (Stein)
    with A_Ki = A + B_i K_i, the drift Dr_i = sum_{j != i} B_j K_j, E_i =
    Dr_i + B_i K_y and C_i = K_y' R_i K_y + E_i' X_i E_i + E_i' Y_i A_cl +
    (E_i' Y_i A_cl)'; the augmented gain is [K_i, K_y]. Each Stein
    equation is solved for all agents at once by one _stein doubling; the
    per-agent steps loop, since the input widths m_i may differ. Each
    residual is that of the full augmented DARE at P_hat_i.
    """
    n, N, A_cl = game.n, game.N, riccati.A_cl
    parts = build_augmented(game, riccati)
    X, A_Kt = np.empty((N, n, n)), np.empty((N, n, n))
    for i in range(N):
        X[i], K = solve_are(game.A, game.B[i], game.Q[i], game.R[i])
        A_Kt[i] = (game.A + game.B[i] @ K).T
    Dr = np.stack([A_hat[:n, n:] for A_hat, _, _ in parts])
    Y = _stein(A_Kt, A_Kt @ X @ Dr, A_cl)
    W = X @ Dr + Y @ A_cl
    C = np.empty_like(X)
    for i in range(N):
        B, R = game.B[i], game.R[i]
        K_y = -np.linalg.solve(R + B.T @ X[i] @ B, B.T @ W[i])
        E = Dr[i] + B @ K_y
        EYA = E.T @ Y[i] @ A_cl
        C[i] = K_y.T @ R @ K_y + E.T @ X[i] @ E + EYA + EYA.T
    Z = _stein(A_cl.T, C, A_cl)
    P_hat, residuals = [], []
    for i, (A_hat, B_hat, Q_hat) in enumerate(parts):
        P = np.block([[X[i], Y[i]], [Y[i].T, (Z[i] + Z[i].T) / 2.0]])
        K_hat = -np.linalg.solve(game.R[i] + B_hat.T @ P @ B_hat, B_hat.T @ P @ A_hat)
        P_hat.append(P)
        residuals.append(float(np.max(np.abs(
            P - (Q_hat + A_hat.T @ P @ (A_hat + B_hat @ K_hat))))))
    return AugmentedRiccati(P_hat, residuals)


# in_terminal_set's horizon and the strict margin it asks of every row
_TERMINAL_HORIZON = 50
_TERMINAL_MARGIN = 1e-9
# _closed_loop_powers gives up after this many powers without a norm <= 1/2
_POWER_CAP = 100_000
# Relative margin of the terminal set's inner ball over the rounding of the
# stacked test. The ball of radius min(rho_rows, tail / ||A_cl^h||_2), rho_rows
# the _inner_radius of the stacked rows r = U A_cl^k (k < h), passes that test
# in exact arithmetic: |r x| <= ||r|| ||x|| stays inside every row's bounds
# (Cauchy-Schwarz), and ||A_cl^h x|| <= the tail radius. The computed r x is
# off by at most n eps ||r|| ||x|| (the error of a dot product is at most n eps
# sum_i |r_i x_i|), ||A_cl^h x|| by at most n^1.5 eps ||A_cl^h|| ||x||; the row
# norms, the quotients, the SVD's ||A_cl^h||_2 and in_terminal_set's norm of x
# are each right to a relative O(n eps). With n = 29 that adds up to about
# 1e-14, far inside 1e-6, so a state the ball accepts passes the stacked test
# as computed.
_BALL_SLACK = 1e-6


def _two_sided(G, g):
    """The rows G y + g <= -_TERMINAL_MARGIN as lower <= U y <= upper: a row
    and its exact negative (the two sides of a box) share one row of U."""
    where, U, lower, upper = {}, [], [], []
    for row, bound in zip(G, -g - _TERMINAL_MARGIN):
        key, neg = (row + 0.0).tobytes(), (0.0 - row).tobytes()
        if key in where:
            upper[where[key]] = min(upper[where[key]], bound)
        elif neg in where:
            lower[where[neg]] = max(lower[where[neg]], -bound)
        else:
            where[key] = len(U)
            U.append(row)
            lower.append(-np.inf)
            upper.append(bound)
    return np.reshape(U, (-1, G.shape[1])), np.array(lower), np.array(upper)


def _inner_radius(rows, lower, upper):
    """Radius of the largest ball around the origin inside lower <= rows y <=
    upper: the smallest min(upper_i, -lower_i) / ||r_i|| over the nonzero rows.
    -inf when a zero row excludes the origin, inf when no row depends on y."""
    # row norms by einsum: a third of np.linalg.norm(rows, axis=1)'s time
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    nz = norms > 0.0
    if not np.all((lower[~nz] <= 0.0) & (upper[~nz] >= 0.0)):
        return -math.inf
    return float(np.min(np.minimum(upper[nz], -lower[nz]) / norms[nz],
                        initial=np.inf))


def _closed_loop_powers(A_cl, count):
    """(powers, norms): the powers A_cl^0 .. A_cl^(count - 1), each the last
    times A_cl, and the spectral norms ||A_cl^k||_2 from k = 0 on, at least
    count of them and on until one is <= 1/2. Later powers factor through
    that one, so max(norms) is sup_k ||A_cl^k||_2."""
    power = np.eye(A_cl.shape[0])
    powers, norms = [power], [1.0]
    while len(norms) < count or norms[-1] > 0.5:
        if len(norms) > _POWER_CAP:
            raise NoConvergence("could not bound the closed-loop power norms")
        power = power @ A_cl
        if len(powers) < count:
            powers.append(power)
        norms.append(float(np.linalg.norm(power, 2)))
    return powers, norms


class CompiledGameVi:
    """Everything the receding-horizon loop needs, precomputed once.

    Attributes of note:
      theta, gamma  condensed predictor: the states x[1..T] stacked are
                 theta @ x0 + gamma @ u (see predict); gamma = [Gamma_1 ..
                 Gamma_N] is agent-major like u, and gammas[i] is the column
                 view of it that agent i's block multiplies
      M_ol       the VI matrix (nonsymmetric in general)
      qmap       q of x0 is qmap @ x0
      D, d0, Dmap   constraints: D u + (d0 + Dmap x0) <= 0
      splitting  DR splitting of M_ol and its metric scale gamma
      riccati, augmented   the Riccati products backing M_ol and the
                 best-response terminal cost

      F          the feedback rollout u_i[t] = K_i A_cl^t x0 over the horizon
                 T as rows [K_i; K_i A_cl; ..; K_i A_cl^(T-1)], agent-major
                 like u: the unconstrained VI solution is F @ x0
      E          M_ol F + qmap, so the VI operator at F x0 is E @ x0 (zero up
                 to the Riccati tolerance)

    It also holds the terminal-set test of in_terminal_set at the horizon
    h = 50, with nothing in it depending on the state: the feedback
    constraint rows along the loop stacked as [U; U A_cl; ..; U A_cl^(h-1)]
    with tiled lower and upper bounds (U holds each row of G once, the two
    sides of a box sharing one row), A_cl^h and the tail radius
    _inner_radius(U) / sup_k ||A_cl^k||_2, and the radius of a ball around
    the origin certified inside the set (_BALL_SLACK), which lets the test
    accept states near the attractor after one norm. One power walk
    (_closed_loop_powers) gives the powers behind the test and F and the
    norms behind both radii.
    """

    def __init__(self, game, riccati, augmented, theta, gamma, M_ol, qmap,
                 D, d0, Dmap, splitting):
        self.game = game
        self.riccati = riccati
        self.augmented = augmented
        self.theta = theta
        self.gamma = gamma
        self.gammas = [gamma[:, game.agent_slice(i)] for i in range(game.N)]
        # stacked index of u_i[0]: agent i's block starts at offsets[i] * T
        stage = np.arange(game.offsets[-1])
        self._first = stage + np.repeat(game.offsets[:-1], game.m) * (game.T - 1)
        self.M_ol = M_ol
        self.qmap = qmap
        self.D = D
        self.d0 = d0
        self.Dmap = Dmap
        self.splitting = splitting
        # checked once here: polyhedron_at and avi_at copy these and check
        # only what depends on the state
        self._polyhedron = Polyhedron(D, d0)
        self._avi = AviProblem(M_ol, np.zeros(M_ol.shape[0]), self._polyhedron)
        # constraint rows seen by the equilibrium feedback, G x + g <= 0:
        # the terminal-set test checks them along the closed loop
        G = np.vstack([game.Ex + sum(game.Eu[i] @ riccati.K_ol[i]
                                     for i in range(game.N)), game.Dx])
        U, lower, upper = _two_sided(G, np.concatenate([game.e, game.dx]))
        h, n = _TERMINAL_HORIZON, game.n
        powers, norms = _closed_loop_powers(riccati.A_cl, max(h + 1, game.T))
        stacked = np.stack(powers)
        # (rows, lower, upper, A_cl^h)
        self._terminal_test = ((U @ stacked[:h]).reshape(-1, n), np.tile(lower, h),
                               np.tile(upper, h), powers[h])
        # a state within the feasible radius shrunk by the worst transient
        # amplification of the stable loop stays feasible for ever; -inf
        # (nothing passes) when some row can never hold its margin
        r_feas = _inner_radius(U, lower, upper)
        self._terminal_radius = r_feas / max(norms) if r_feas > 0.0 else -math.inf
        # within this radius ||A_cl^h x|| <= the tail radius; with A_cl^h = 0,
        # anywhere unless nothing passes
        reach = (self._terminal_radius / norms[h] if norms[h] > 0.0
                 else math.copysign(math.inf, self._terminal_radius))
        self._terminal_ball = (1.0 - _BALL_SLACK) * min(
            _inner_radius(*self._terminal_test[:3]), reach)
        self.F = np.vstack([(K @ stacked[:game.T]).reshape(-1, n)
                            for K in riccati.K_ol])
        self.E = M_ol @ self.F + qmap

    def as_state(self, x):
        """x as a flat float vector; DimensionMismatch unless it has the
        game's n entries."""
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.game.n:
            raise DimensionMismatch(
                f"state has {x.size} entries, the game has n = {self.game.n}")
        return x

    def q_of(self, x0):
        """Affine offset col_i(Gamma_i' Qbar_i Theta x0) of the VI."""
        return self.qmap @ self.as_state(x0)

    def offsets_at(self, x0):
        return self.d0 + self.Dmap @ self.as_state(x0)

    def polyhedron_at(self, x0):
        """U_T(x0) = {u : D u + offsets_at(x0) <= 0}; D was checked at
        compile time, so only the offsets are checked here."""
        d = self.offsets_at(x0)
        if not np.isfinite(d).all():
            raise NonFiniteData("constraint offsets at x0 must be finite")
        C = copy.copy(self._polyhedron)
        C.d = d
        return C

    def avi_at(self, x0):
        """AVI(U_T(x0), M_ol, q_of(x0)); M_ol was checked at compile time,
        so only q and the offsets are checked here."""
        q = self.q_of(x0)
        if not np.isfinite(q).all():
            raise NonFiniteData("q at x0 must be finite")
        p = copy.copy(self._avi)
        p.q, p.C = q, self.polyhedron_at(x0)
        return p

    def predict(self, x0, u):
        """Stacked predicted states col(x[1], ..., x[T]) under the stacked
        input u from x0."""
        return self.theta @ self.as_state(x0) + self.gamma @ u

    def first_stage(self, u):
        """Extract col_i(u_i[0]) from a stacked full-horizon input."""
        return u[self._first]


def compile_vi(game):
    """Compile a game into its affine VI and its DR splitting and metric.

    The coupled AREs are solved by the stacked fixed-point sweep; each
    agent's augmented ARE, backing the best-response terminal cost, is
    solved eagerly through its block structure: one n-dim solve_are per
    agent plus two Stein doublings over the agent stack (see
    _augmented_riccati); all run at their default tolerances and caps.
    Raises InvalidSplitting (with the monotonicity estimate attached) when
    the symmetric part of the compiled matrix is not positive definite, and
    NoConvergence if either Riccati stage fails.
    """
    riccati = solve_coupled_riccati(game)
    n, N, T = game.n, game.N, game.T
    theta = build_theta(game.A, T)
    gamma = np.hstack([build_gamma(game.A, game.B[i], T) for i in range(N)])

    # row block i of GtQ is Gamma_i' Qbar_i
    GtQ = np.vstack([
        gamma[:, game.agent_slice(i)].T
        @ blkdg([game.Q[i]] * (T - 1) + [riccati.P_ol[i]]) for i in range(N)])
    M_ol = blkdg([kron(np.eye(T), game.R[i]) for i in range(N)]) + GtQ @ gamma
    qmap = GtQ @ theta

    # constraint stack: mixed rows for stages 0..T-1 on top, state rows for
    # stages 1..T below
    IEx = kron(np.eye(T), game.Ex)
    IDx = kron(np.eye(T), game.Dx)
    # stage-state predictor col(x[0] .. x[T-1]) = theta_stage x0 + gamma_stage u
    theta_stage = np.vstack([np.eye(n), theta[:n * (T - 1)]])
    gamma_stage = np.vstack([np.zeros((n, gamma.shape[1])), gamma[:n * (T - 1)]])
    mixed = np.hstack([kron(np.eye(T), game.Eu[j]) for j in range(N)])
    D = np.vstack([mixed + IEx @ gamma_stage, IDx @ gamma])
    d0 = np.concatenate([np.tile(game.e, T), np.tile(game.dx, T)])
    Dmap = np.vstack([IEx @ theta_stage, IDx @ theta])

    splitting = make_dr_splitting(M_ol)

    augmented = _augmented_riccati(game, riccati)

    return CompiledGameVi(game, riccati, augmented, theta, gamma, M_ol, qmap,
                          D, d0, Dmap, splitting)


def unconstrained_ne_sequence(compiled, x0):
    """Stacked feedback rollout u_i[t] = K_i (A + sum_j B_j K_j)^t x0 over
    the VI's horizon: one matvec with the rows CompiledGameVi.F, agent-major
    to match the VI ordering. This is the unconstrained VI solution for
    every x0, and so the VI solution wherever it is feasible, in particular
    inside the terminal set. A state of the wrong length raises
    DimensionMismatch.
    """
    return compiled.F @ compiled.as_state(x0)


def in_terminal_set(compiled, x):
    """Sound membership test for the terminal set.

    The states x, A_cl x, .., A_cl^(h-1) x of the equilibrium feedback loop,
    h = 50, must satisfy every constraint row G y + g <= 0 (state rows plus
    the input rows mapped through the feedback gains) with a strict margin
    of 1e-9; the tail from A_cl^h x on is covered by a norm-ball argument
    using sup_k ||A_cl^k||. Conservative: may reject boundary states, never
    falsely accepts; a non-finite x is rejected, and one of the wrong length
    raises DimensionMismatch.

    A state within the ball that compiled certifies inside the set
    (CompiledGameVi._terminal_ball, the smaller of the stacked rows' and the
    tail's inner radius, see _BALL_SLACK) is accepted after one norm; near
    the attractor that is every state. Any other state goes on to the rollout:
    one product with the rows [G; G A_cl; ..; G A_cl^(h-1)], stacked once by
    compiled as two-sided bounds (see CompiledGameVi), so it costs one
    matvec, two comparisons and one norm. Both paths give the same answer.
    """
    x = compiled.as_state(x)
    if not np.isfinite(x).all():
        return False
    # vdot raises no overflow warning; the comparison is strict, so a state
    # whose x . x overflows takes the rollout even when no row bounds the ball
    if math.sqrt(np.vdot(x, x)) < compiled._terminal_ball:
        return True
    rows, lower, upper, tail = compiled._terminal_test
    v = rows @ x
    return bool((lower <= v).all() and (v <= upper).all()
                and np.linalg.norm(tail @ x) <= compiled._terminal_radius)


def best_response(compiled, x0, agent, others, tol=1e-8):
    """Agent ``agent``'s exact best response to the profile ``others``.

    Minimizes the finite-horizon objective -- stage costs plus the terminal
    cost 0.5 || col(own terminal state, profile terminal state) ||^2 in the
    augmented terminal weight -- over the agent's own input block, subject
    to the joint constraints with everyone else frozen at ``others``. This
    is a strictly convex QP; at an equilibrium it returns the agent's own
    block. Raises Infeasible when no response satisfies the constraints and
    NoConvergence when the QP misses its KKT tolerance tol.
    """
    game = compiled.game
    i = int(agent)
    x0 = compiled.as_state(x0)
    others = np.asarray(others, dtype=float).ravel()
    n, T = game.n, game.T
    sl = game.agent_slice(i)
    gamma_i = compiled.gammas[i]
    P_hat = compiled.augmented.P_hat[i]
    P11 = P_hat[:n, :n]
    P12 = P_hat[:n, n:]

    # terminal state under the profile; states for stages 1..T with agent i's
    # block zeroed
    x_term_profile = compiled.predict(x0, others)[(T - 1) * n:]
    frozen = others.copy()
    frozen[sl] = 0.0
    base = compiled.predict(x0, frozen)

    stage_blocks = [game.Q[i]] * (T - 1) + [P11]
    W = blkdg(stage_blocks)
    P_qp = kron(np.eye(T), game.R[i]) + gamma_i.T @ W @ gamma_i
    P_qp = (P_qp + P_qp.T) / 2.0
    lift = np.zeros(n * T)
    lift[(T - 1) * n:] = P12 @ x_term_profile
    c_qp = gamma_i.T @ (W @ base + lift)

    b = -(compiled.offsets_at(x0) + compiled.D @ frozen)
    engine = qp.QpEngine(P_qp, compiled.D[:, sl])
    sol = engine.solve(c_qp, b=b, tol=tol)
    if not sol.optimal:
        raise NoConvergence(f"best response of agent {i}: QP KKT residual "
                            f"{sol.kkt_residual:.3e} above tol {tol:.1e}")
    return sol.y


def write_game(game, path):
    """Serialize a game built via from_stage_constraints (original parts,
    including any pre-stabilizing gains, are preserved for the round trip)."""
    if game.source is not None:
        src = game.source
        payload = {
            "A": src["A"].tolist(),
            "B": [b.tolist() for b in src["B"]],
            "Q": [m.tolist() for m in src["Q"]],
            "R": [m.tolist() for m in src["R"]],
            "T": src["T"],
        }
        if src["Du"] is not None:
            payload["Du"] = [m.tolist() for m in src["Du"]]
            payload["du"] = src["du"].tolist()
        if src["Dx"] is not None:
            payload["Dx"] = src["Dx"].tolist()
            payload["dx"] = src["dx"].tolist()
        if src["K_pre"] is not None:
            payload["K_pre"] = [m.tolist() for m in src["K_pre"]]
    else:
        payload = {
            "A": game.A.tolist(),
            "B": [b.tolist() for b in game.B],
            "Q": [m.tolist() for m in game.Q],
            "R": [m.tolist() for m in game.R],
            "T": game.T,
            "Ex": game.Ex.tolist(),
            "Eu": [m.tolist() for m in game.Eu],
            "e": game.e.tolist(),
            "Dx": game.Dx.tolist(),
            "dx": game.dx.tolist(),
        }
    if game.meta:
        payload["meta"] = game.meta
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_game(path):
    with spec_file(path, ("A", "B", "Q", "R", "T")) as payload:
        meta = payload.get("meta")
        if "Eu" in payload:
            return LqGame(payload["A"], payload["B"], payload["Q"], payload["R"],
                          payload["T"], Ex=payload.get("Ex"), Eu=payload["Eu"],
                          e=payload.get("e"), Dx=payload.get("Dx"),
                          dx=payload.get("dx"), meta=meta)
        return LqGame.from_stage_constraints(
            payload["A"], payload["B"], payload["Q"], payload["R"], payload["T"],
            Du=payload.get("Du"), du=payload.get("du"), Dx=payload.get("Dx"),
            dx=payload.get("dx"), K_pre=payload.get("K_pre"), meta=meta)
