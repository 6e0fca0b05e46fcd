"""Instance factories: the crossroad game and random strongly monotone AVIs.

The crossroad models N vehicles traversing an intersection in arrival
order. A vehicle with no earlier vehicle crossing its path is a leader and
tracks a reference speed; every other vehicle i tracks a desired distance
behind its predecessor chi(i), the most recent earlier vehicle whose path
conflicts with its own. Conflicts between the twelve entry/exit directions
are data (a shipped table over a four-cell intersection grid), not code.

Per-vehicle state: leaders carry the speed error v_ref - v_i (scalar);
followers carry col(gap error, relative speed) against their predecessor.
Double-integrator kinematics discretized at rate tau give the block rules
for A and the B columns. Stabilizability of the joint system is obtained by
a local pre-stabilizing feedback on each vehicle's own state block, which
turns the input box into mixed state/input rows in the residual input.

Numeric defaults that the underlying experiment leaves open (speeds,
distances, boxes, initial gaps) are invented here, recorded in the game
metadata as such, and overridable through CrossroadSpec.
"""

import dataclasses
import importlib.resources
import json

import numpy as np

from .avi import AviProblem, Polyhedron
from .errors import SpecError, spec_file
from .game import LqGame

__all__ = [
    "CrossroadSpec", "load_conflict_table", "derive_precedence",
    "default_15_vehicle_spec", "build_crossroad", "default_initial_state",
    "crossroad_observables", "random_avi", "DIRECTIONS",
]

DIRECTIONS = ("NS", "NE", "NW", "SN", "SW", "SE", "EW", "ES", "EN", "WE",
              "WN", "WS")

DEFAULT_DIRECTIONS_15 = ("NS", "ES", "WE", "NW", "WN", "WN", "WS", "NE",
                         "NE", "EW", "NS", "ES", "WS", "SW", "WE")


def load_conflict_table():
    """Shipped direction-conflict table as {(dir_a, dir_b): bool}."""
    text = (importlib.resources.files("gamevi") / "data" / "conflict_table.txt"
            ).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    header = lines[0].split()
    table = {}
    for line in lines[1:]:
        parts = line.split()
        row = parts[0]
        for col, val in zip(header, parts[1:]):
            table[(row, col)] = bool(int(val))
    for a in header:
        for b in header:
            if table[(a, b)] != table[(b, a)]:
                raise SpecError(f"conflict table is not symmetric at ({a}, {b})")
    return table


def derive_precedence(directions):
    """chi[i]: index of the latest earlier vehicle whose path conflicts with
    vehicle i's in the shipped conflict table, or None for leaders."""
    table = load_conflict_table()
    for d in directions:
        if d not in DIRECTIONS:
            raise SpecError(f"unknown direction {d!r}")
    chi = []
    for i, d in enumerate(directions):
        pred = None
        for j in range(i - 1, -1, -1):
            if table[(d, directions[j])]:
                pred = j
                break
        chi.append(pred)
    return chi


@dataclasses.dataclass
class CrossroadSpec:
    """Scenario parameters. chi is derived from the conflict table when not
    given; d_des may be a scalar or one value per vehicle."""
    directions: tuple
    chi: list = None
    tau: float = 0.1
    v_ref: float = 10.0
    d_des: object = 10.0
    d_min: float = 5.0
    v_min: float = 0.0
    v_max: float = 15.0
    u_min: float = -3.0
    u_max: float = 3.0
    k_pre: float = 0.1
    gap_extra: float = 5.0

    def __post_init__(self):
        self.directions = tuple(self.directions)
        if not self.directions:
            raise SpecError("need at least one vehicle")
        numbers = np.append([self.tau, self.v_ref, self.d_min, self.v_min,
                             self.v_max, self.u_min, self.u_max, self.k_pre,
                             self.gap_extra], self.d_des)
        if not np.isfinite(numbers).all():
            raise SpecError("spec values must be finite")
        if self.tau <= 0:
            raise SpecError("tau must be positive")
        if self.chi is None:
            self.chi = derive_precedence(self.directions)
        n = len(self.directions)
        if len(self.chi) != n:
            raise SpecError("chi length must match the direction list")
        for i, c in enumerate(self.chi):
            if c is not None and not (0 <= c < i):
                raise SpecError(
                    f"chi({i}) = {c} violates the arrival order (must precede i)")
        if np.isscalar(self.d_des):
            self.d_des = [float(self.d_des)] * n
        elif len(self.d_des) != n:
            raise SpecError("d_des must be scalar or one value per vehicle")
        if not (self.v_min < self.v_ref < self.v_max):
            raise SpecError("need v_min < v_ref < v_max (origin strictly feasible)")
        if not (self.u_min < 0.0 < self.u_max):
            raise SpecError("need u_min < 0 < u_max (origin strictly feasible)")
        if self.d_min >= min(self.d_des):
            raise SpecError("need d_min < d_des (origin strictly feasible)")

    @property
    def n_vehicles(self):
        return len(self.directions)

    @property
    def leaders(self):
        return [i for i, c in enumerate(self.chi) if c is None]

    def prefix(self, n_vehicles):
        """Sub-scenario with the first n vehicles (precedence re-derived)."""
        return dataclasses.replace(
            self, directions=self.directions[:n_vehicles], chi=None,
            d_des=list(self.d_des[:n_vehicles]))

    def to_json(self, path):
        payload = dataclasses.asdict(self)
        payload["directions"] = list(self.directions)
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with spec_file(path, ("directions",)) as payload:
            return cls(**payload)


def default_15_vehicle_spec():
    """The 15-vehicle direction list with invented numeric defaults."""
    return CrossroadSpec(directions=DEFAULT_DIRECTIONS_15)


def _state_layout(spec):
    """Per-vehicle state dims (1 for leaders, 2 otherwise) and offsets."""
    dims = [1 if spec.chi[i] is None else 2 for i in range(spec.n_vehicles)]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    return dims, offsets


def _speed_rows(spec):
    """Row vectors s_i with v_i = v_ref - s_i' x, built along the
    precedence chains (follower speed is relative to its predecessor)."""
    dims, off = _state_layout(spec)
    n = off[-1]
    rows = np.zeros((spec.n_vehicles, n))
    for i in range(spec.n_vehicles):
        if spec.chi[i] is None:
            rows[i, off[i]] = 1.0
        else:
            rows[i] = rows[spec.chi[i]].copy()
            rows[i, off[i] + 1] = 1.0
    return rows


def build_crossroad(spec, horizon=10):
    """Assemble the crossroad LQ game over the given horizon.

    Leaders get the scalar block A_i = 1 with input column -tau; followers
    get the double-integrator block [[1, tau], [0, 1]] with column
    -(tau^2/2, tau) for their own input and +(tau^2/2, tau) for their
    predecessor's. Weights are Q_i = I, R_i = 1. Each vehicle applies the
    local pre-stabilizer u_i = k_pre * 1' x_i (gain sign chosen so the
    pre-stabilized dynamics is Schur stable), and the constraints --
    safety distance, speed band, input box -- are written in the residual
    input coordinates.
    """
    N = spec.n_vehicles
    dims, off = _state_layout(spec)
    n = off[-1]
    tau = spec.tau
    kick = np.array([tau ** 2 / 2.0, tau])

    A = np.zeros((n, n))
    B = []
    for i in range(N):
        if spec.chi[i] is None:
            A[off[i], off[i]] = 1.0
        else:
            A[off[i]:off[i] + 2, off[i]:off[i] + 2] = [[1.0, tau], [0.0, 1.0]]
    for i in range(N):
        Bi = np.zeros((n, 1))
        if spec.chi[i] is None:
            Bi[off[i], 0] = -tau
        else:
            Bi[off[i]:off[i] + 2, 0] = -kick
        for j in range(N):
            if spec.chi[j] == i:
                Bi[off[j]:off[j] + 2, 0] = kick
        B.append(Bi)

    Q = [np.eye(n) for _ in range(N)]
    R = [np.eye(1) for _ in range(N)]

    # input box as shared per-agent rows: u_i <= u_max and -u_i <= -u_min
    Du = []
    for i in range(N):
        block = np.zeros((2 * N, 1))
        block[2 * i, 0] = 1.0
        block[2 * i + 1, 0] = -1.0
        Du.append(block)
    du = np.tile([-spec.u_max, spec.u_min], N).astype(float)

    # state rows: speed band for everyone, safety distance for followers
    speed = _speed_rows(spec)
    Dx_rows, dx_vals = [], []
    for i in range(N):
        Dx_rows.append(-speed[i])
        dx_vals.append(spec.v_ref - spec.v_max)      # v_i <= v_max
        Dx_rows.append(speed[i])
        dx_vals.append(spec.v_min - spec.v_ref)      # v_i >= v_min
        if spec.chi[i] is not None:
            row = np.zeros(n)
            row[off[i]] = -1.0
            Dx_rows.append(row)                      # gap >= d_min
            dx_vals.append(spec.d_min - spec.d_des[i])
    Dx = np.vstack(Dx_rows)
    dx = np.asarray(dx_vals, dtype=float)

    K_pre = []
    for i in range(N):
        k = np.zeros((1, n))
        k[0, off[i]:off[i] + dims[i]] = spec.k_pre
        K_pre.append(k)

    meta = {
        "scenario": "crossroad",
        "directions": list(spec.directions),
        "chi": [None if c is None else int(c) for c in spec.chi],
        "invented_defaults": ["v_ref", "d_des", "d_min", "v_min", "v_max",
                              "u_min", "u_max", "gap_extra",
                              "pre-stabilizer sign"],
        "params": {
            "tau": spec.tau, "v_ref": spec.v_ref, "d_min": spec.d_min,
            "v_min": spec.v_min, "v_max": spec.v_max, "u_min": spec.u_min,
            "u_max": spec.u_max, "k_pre": spec.k_pre,
        },
    }
    game = LqGame.from_stage_constraints(A, B, Q, R, horizon, Du=Du, du=du,
                                         Dx=Dx, dx=dx, K_pre=K_pre, meta=meta)
    rho = float(np.max(np.abs(np.linalg.eigvals(game.A))))
    if rho >= 1.0:
        raise SpecError(
            f"pre-stabilized crossroad dynamics is not Schur stable (rho={rho:.4f})")
    return game


def default_initial_state(spec):
    """Vehicles arrive at the reference speed with gap_extra metres of
    spare distance beyond each desired gap; leaders start on target."""
    dims, off = _state_layout(spec)
    x0 = np.zeros(off[-1])
    for i in range(spec.n_vehicles):
        if spec.chi[i] is not None:
            x0[off[i]] = spec.gap_extra
    return x0


def crossroad_observables(spec, states):
    """Physical readout of a state trajectory.

    Returns (distance, velocity): arrays of shape (len(states), N) with the
    actual gap p_chi(i) - p_i (NaN for leaders) and each vehicle's speed.
    Depends only on the spec, so it doubles as an independent decoder for
    traces produced by the closed loop.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    dims, off = _state_layout(spec)
    speed = _speed_rows(spec)
    N = spec.n_vehicles
    distance = np.full((states.shape[0], N), np.nan)
    velocity = np.zeros((states.shape[0], N))
    for i in range(N):
        velocity[:, i] = spec.v_ref - states @ speed[i]
        if spec.chi[i] is not None:
            distance[:, i] = states[:, off[i]] + spec.d_des[i]
    return distance, velocity


def random_avi(n, m, seed):
    """Random strongly monotone AVI with a guaranteed modulus of 0.1.

    M = 0.1 I + S S'/n + (W - W')/2 with S, W standard normal; q standard
    normal; the offsets embed a strictly feasible point u0 with row slacks
    drawn from U[0.1, 1.1]. Deterministic in the seed.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))
    M = 0.1 * np.eye(n) + S @ S.T / n + (W - W.T) / 2.0
    q = rng.standard_normal(n)
    D = rng.standard_normal((m, n))
    u0 = rng.standard_normal(n)
    slack = rng.uniform(0.1, 1.1, m)
    d = -D @ u0 - slack
    return AviProblem(M, q, Polyhedron(D, d))
