"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
solvers: KKT solutions come from enumerating active sets (or from one
guessed active set, certified by the KKT conditions), trajectories from
explicit python loops, and feasibility from direct inequality evaluation.
"""

import itertools

import numpy as np


def kkt_enumerate(M, q, D, d, feas_tol=1e-9):
    """Solve AVI(C, M, q) on {Du + d <= 0} by enumerating active sets.

    For each subset A of rows with D_A of full row rank, solves the
    equality KKT system [M  D_A'; D_A  0] [u; lam] = [-q; -d_A] and keeps
    the candidate whose inactive rows are satisfied and whose multipliers
    are nonnegative. Rank-deficient subsets (duplicated rows, more rows than
    variables) make the system singular, and np.linalg.solve does not
    always reject it; skipping them loses no solution, because the
    multipliers of a solution can always be chosen supported on linearly
    independent rows (Caratheodory). Exponential in the number of rows:
    fits n <= 6, m <= 7 style problems.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    D = np.atleast_2d(np.asarray(D, dtype=float))
    d = np.asarray(d, dtype=float).ravel()
    n = M.shape[0]
    m = D.shape[0]
    best = None
    for r in range(m + 1):
        for rows in itertools.combinations(range(m), r):
            rows = list(rows)
            Da = D[rows, :]
            if r and np.linalg.matrix_rank(Da) < r:
                continue
            kkt = np.block([[M, Da.T], [Da, np.zeros((r, r))]])
            rhs = np.concatenate([-q, -d[rows]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:n], sol[n:]
            if np.any(lam < -feas_tol):
                continue
            if m and np.max(D @ u + d) > feas_tol:
                continue
            best = u
    return best


def kkt_certify(M, q, D, d, active):
    """The solution of AVI(C, M, q) on {Du + d <= 0} with the rows active
    tight, certified, or None.

    Solves the equality KKT system [M  D_A'; D_A  0] [u; lam] = [-q; -d_A]
    with np.linalg.solve, the one system kkt_enumerate solves per subset,
    and returns u only when every multiplier is >= -1e-9 and every row
    holds to 1e-9: u and lam then meet the KKT conditions of the AVI, so u
    is its solution. Its input is the active-set guess, so it runs at any
    size and shares no code with the solvers. A singular system gives None.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    D = np.atleast_2d(np.asarray(D, dtype=float))
    d = np.asarray(d, dtype=float).ravel()
    rows = np.asarray(active, dtype=int)
    n, r = M.shape[0], rows.size
    Da = D[rows, :]
    kkt = np.block([[M, Da.T], [Da, np.zeros((r, r))]])
    try:
        sol = np.linalg.solve(kkt, np.concatenate([-q, -d[rows]]))
    except np.linalg.LinAlgError:
        return None
    u, lam = sol[:n], sol[n:]
    if np.any(lam < -1e-9) or (d.size and np.max(D @ u + d) > 1e-9):
        return None
    return u


def project_enumerate(D, d, v):
    """Exact projection onto {Du + d <= 0} via the KKT enumeration."""
    v = np.asarray(v, dtype=float).ravel()
    return kkt_enumerate(np.eye(v.size), -v, D, d)


def dr_exact_residuals(M, q, D, d, tol, max_iter, gamma):
    """The Douglas-Rachford iteration in the metric H = gamma I from u_0 = 0
    with the exact natural residual at every iterate; returns the residuals
    up to and including the first within tol (or max_iter of them).

    The splitting M1 = (M + M')/4, M2 = M - M1 is formed here; step (a)
    solves the symmetric AVI on H + M1 by kkt_enumerate, step (b) solves
    (H + M2) u_{k+1} = H y_k + M2 u_k with np.linalg.solve, and the
    residual projects with project_enumerate. Brute force like
    kkt_enumerate: fits n <= 6, m <= 7 style problems.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    H = gamma * np.eye(M.shape[0])
    M1 = (M + M.T) / 4.0
    M2 = M - M1
    u = np.zeros(M.shape[0])
    residuals = []
    while len(residuals) < max_iter:
        y = kkt_enumerate(H + M1, q + (M2 - H) @ u, D, d)
        u = np.linalg.solve(H + M2, H @ y + M2 @ u)
        residuals.append(float(np.linalg.norm(
            u - project_enumerate(D, d, u - (M @ u + q)))))
        if residuals[-1] <= tol:
            break
    return residuals


def simulate_states(A, B_list, x0, u_blocks):
    """Explicit rollout of x+ = A x + sum_i B_i u_i[t].

    u_blocks is a list of (T, m_i) arrays. Returns (T+1, n) states.
    """
    A = np.asarray(A, dtype=float)
    T = u_blocks[0].shape[0]
    xs = [np.asarray(x0, dtype=float).ravel()]
    for t in range(T):
        x = A @ xs[-1]
        for Bi, ui in zip(B_list, u_blocks):
            x = x + np.asarray(Bi) @ ui[t]
        xs.append(x)
    return np.array(xs)


def feedback_rollout(K, A_cl, x0, horizon):
    """The equilibrium feedback inputs u_i[t] = K_i x[t] along the closed
    loop x[t + 1] = A_cl x[t] from x0, stepped one state at a time, for
    t < horizon; stacked agent-major, time inner."""
    x = np.asarray(x0, dtype=float).ravel()
    states = []
    for _ in range(horizon):
        states.append(x)
        x = A_cl @ x
    return np.concatenate([np.ravel([Ki @ y for y in states]) for Ki in K])


def stagewise_feasible(game, x0, u, tol=1e-9):
    """Membership of u in the horizon constraint set, checked stage by
    stage on the simulated trajectory (never through the stacked D)."""
    blocks = game.split_input(u)
    xs = simulate_states(game.A, game.B, x0, blocks)
    for t in range(game.T):
        row_val = game.Ex @ xs[t] + game.e
        for i in range(game.N):
            row_val = row_val + game.Eu[i] @ blocks[i][t]
        if row_val.size and np.max(row_val) > tol:
            return False
    for t in range(1, game.T + 1):
        val = game.Dx @ xs[t] + game.dx
        if val.size and np.max(val) > tol:
            return False
    return True


def finite_diff_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def loglinear_fit(values):
    """Least-squares slope and R^2 of log(values) against the index."""
    y = np.log(np.asarray(values, dtype=float))
    k = np.arange(y.size, dtype=float)
    A = np.vstack([k, np.ones_like(k)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def terminal_set_rollout(game, K, A_cl, horizon=50, margin=1e-9):
    """The terminal-set test as a plain rollout; returns x -> bool.

    x passes when the states x, A_cl x, .., A_cl^(horizon-1) x satisfy
    every feedback constraint row, (Ex + sum_i Eu_i K_i) y + e <= -margin
    and Dx y + dx <= -margin, checked one state at a time, and A_cl^horizon x
    lies in the ball of radius r_feas / sup_k ||A_cl^k||_2, r_feas being the
    smallest distance from the origin to a row's margin-shifted boundary.
    A row with no state dependence passes only if its offset keeps the
    margin; no such row at all leaves no tail bound. A non-finite x fails.
    """
    G = np.vstack([game.Ex + sum(Eu @ Ki for Eu, Ki in zip(game.Eu, K)), game.Dx])
    g = np.concatenate([game.e, game.dx])
    norms = np.linalg.norm(G, axis=1)
    sup, power = 1.0, np.eye(A_cl.shape[0])
    while True:
        power = power @ A_cl
        nrm = np.linalg.norm(power, 2)
        sup = max(sup, nrm)
        if nrm <= 0.5:
            break
    dependent = [k for k in range(len(g)) if norms[k] > 0.0]
    r_feas = min(((-g[k] - margin) / norms[k] for k in dependent), default=np.inf)

    def test(x):
        y = np.asarray(x, dtype=float).ravel()
        if not np.all(np.isfinite(y)):
            return False
        for _ in range(horizon):
            if np.any(G @ y + g > -margin):
                return False
            y = A_cl @ y
        if any(norms[k] == 0.0 and g[k] > -margin for k in range(len(g))):
            return False
        if not dependent:
            return True
        return bool(r_feas > 0.0 and np.linalg.norm(y) <= r_feas / sup)

    return test
