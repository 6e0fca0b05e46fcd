import json

import numpy as np
import pytest

from gamevi import game as G
from gamevi.avi import monotonicity_constants, validate
from gamevi.errors import SpecError
from gamevi.scenario import (CrossroadSpec, build_crossroad,
                             crossroad_observables, default_15_vehicle_spec,
                             default_initial_state, derive_precedence,
                             load_conflict_table, random_avi, DIRECTIONS)

from oracles import simulate_states

TAU = 0.1


# ------------------------------------------------------------ conflict rule

def geometric_cells(direction, samples=4001):
    """Chord-path oracle: cells crossed by the straight entry->exit chord
    with right-hand-traffic lane offsets on a unit intersection square."""
    entry = {"N": (0.25, 1.0), "S": (0.75, 0.0), "E": (1.0, 0.75), "W": (0.0, 0.25)}
    exits = {"N": (0.75, 1.0), "S": (0.25, 0.0), "E": (1.0, 0.25), "W": (0.0, 0.75)}
    p0 = np.array(entry[direction[0]])
    p1 = np.array(exits[direction[1]])
    cells = set()
    for t in np.linspace(0.0, 1.0, samples):
        x, y = p0 + t * (p1 - p0)
        cells.add(("N" if y >= 0.5 else "S") + ("E" if x >= 0.5 else "W"))
    return cells


def test_conflict_table_matches_chord_geometry():
    table = load_conflict_table()
    for a in DIRECTIONS:
        for b in DIRECTIONS:
            expected = bool(geometric_cells(a) & geometric_cells(b))
            assert table[(a, b)] == expected, (a, b)


def test_precedence_honors_worked_examples():
    spec = default_15_vehicle_spec()
    chi = spec.chi
    assert chi[0] is None          # agent 1 is a leading agent
    assert chi[1] == 0             # chi(2) = 1
    assert chi[3] == 0             # chi(4) = 1: NW does not meet ES or WE
    assert all(c is None or c < i for i, c in enumerate(chi))


def test_derive_precedence_rejects_unknown_direction():
    with pytest.raises(SpecError):
        derive_precedence(["NS", "XX"])


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        CrossroadSpec(directions=("NS", "ES"), chi=[None, 1])  # chi(i) >= i
    with pytest.raises(SpecError):
        CrossroadSpec(directions=("NS",), v_ref=20.0)  # outside speed band
    with pytest.raises(SpecError):
        CrossroadSpec(directions=("NS",), d_min=20.0)  # no strict interior


SPEC_NUMBERS = ["tau", "v_ref", "d_des", "d_min", "v_min", "v_max", "u_min",
                "u_max", "k_pre", "gap_extra"]


def test_spec_rejects_non_finite_values():
    # NaN used to pass every comparison, and gap_extra = inf gave a default
    # initial state holding inf
    for field in SPEC_NUMBERS:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(SpecError, match="finite"):
                CrossroadSpec(directions=("NS", "ES"), **{field: bad})
    with pytest.raises(SpecError, match="finite"):
        CrossroadSpec(directions=("NS", "ES"), d_des=[10.0, np.nan])


def test_spec_from_json_rejects_nan(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"directions": ["NS", "ES"], "tau": NaN}')
    with pytest.raises(SpecError, match="finite"):
        CrossroadSpec.from_json(path)


def test_spec_json_round_trip(tmp_path):
    spec = default_15_vehicle_spec().prefix(6)
    path = tmp_path / "spec.json"
    spec.to_json(path)
    back = CrossroadSpec.from_json(path)
    assert back == spec


GOOD_SPEC = {"directions": ["NS", "ES"], "tau": 0.1}


@pytest.mark.parametrize("text", [
    json.dumps(GOOD_SPEC)[:-5],                     # truncated file
    json.dumps(dict(GOOD_SPEC, speed=3.0)),         # unknown key
    json.dumps(dict(GOOD_SPEC, tau="x")),           # wrong JSON type
    json.dumps({"tau": 0.1}),                       # missing directions
], ids=["truncated", "unknown-key", "tau-string", "no-directions"])
def test_spec_from_json_malformed_file_raises_spec_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SpecError, match="bad.json"):
        CrossroadSpec.from_json(path)


# ------------------------------------------------------------- game assembly

def test_single_leader_blocks():
    spec = default_15_vehicle_spec().prefix(1)
    g = build_crossroad(spec, horizon=3)
    src = g.source
    assert np.allclose(src["A"], [[1.0]])
    assert np.allclose(src["B"][0], [[-TAU]])


def test_follower_kick_entries():
    spec = default_15_vehicle_spec().prefix(2)
    g = build_crossroad(spec, horizon=3)
    B = g.source["B"]
    # vehicle 2's own effect and vehicle 1's feedthrough onto vehicle 2
    assert np.allclose(B[1][1:3, 0], [-TAU ** 2 / 2.0, -TAU])
    assert np.allclose(B[0][1:3, 0], [TAU ** 2 / 2.0, TAU])


def test_two_vehicle_chain_matches_kinematic_oracle():
    """Relative-state rollout must agree with physical (p, v) simulation."""
    spec = default_15_vehicle_spec().prefix(2)
    g = build_crossroad(spec, horizon=5)
    rng = np.random.default_rng(0)
    T = 5
    v_tot = rng.normal(size=(2, T))  # residual inputs per vehicle
    # roll the game dynamics (pre-stabilized coordinates)
    x0 = default_initial_state(spec)
    blocks = [v_tot[i].reshape(T, 1) for i in range(2)]
    xs = simulate_states(g.A, g.B, x0, blocks)
    # physical oracle: integrate each vehicle, applying u = k 1'x_i + v
    p1, v1 = 0.0, spec.v_ref
    p2, v2 = -(spec.d_des[1] + spec.gap_extra), spec.v_ref
    for t in range(T):
        x1 = spec.v_ref - v1
        x2 = np.array([p1 - p2 - spec.d_des[1], v1 - v2])
        assert np.allclose(xs[t], [x1, *x2], atol=1e-10)
        u1 = spec.k_pre * x1 + v_tot[0, t]
        u2 = spec.k_pre * (x2[0] + x2[1]) + v_tot[1, t]
        p1, v1 = p1 + TAU * v1 + TAU ** 2 / 2 * u1, v1 + TAU * u1
        p2, v2 = p2 + TAU * v2 + TAU ** 2 / 2 * u2, v2 + TAU * u2


def test_prestabilized_dynamics_is_schur():
    for k in (1, 2, 4, 15):
        g = build_crossroad(default_15_vehicle_spec().prefix(k), horizon=2)
        assert max(abs(np.linalg.eigvals(g.A))) < 1.0


@pytest.mark.parametrize("fixture", ["crossroad4", "crossroad15"])
def test_default_crossroad_is_a_potential_game(fixture, request):
    # every vehicle weighs the joint state with Q_i = I and its input with
    # R_i = 1, so the P_i coincide and M_ol is symmetric: then M1 = M2 = M/2
    # and each DR step is one strictly convex QP. A scenario change that
    # breaks this structure should be a visible decision.
    M = request.getfixturevalue(fixture)[-1].M_ol
    assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))


def test_crossroad_compiles_strongly_monotone(crossroad4):
    spec, g, c = crossroad4
    mono = monotonicity_constants(c.M_ol)
    assert mono.lambda_min > 0.0


def test_crossroad_origin_strictly_feasible(crossroad4):
    spec, g, c = crossroad4
    # mixed rows at x = 0, u = 0 and state rows at 0 all strictly negative
    assert np.max(g.e) < 0.0
    assert np.max(g.dx) < 0.0


def test_initial_state_layout():
    spec = default_15_vehicle_spec().prefix(4)
    x0 = default_initial_state(spec)
    assert x0.shape == (7,)
    assert x0[0] == 0.0                      # leader on target
    assert np.allclose(x0[[1, 3, 5]], spec.gap_extra)
    assert np.allclose(x0[[2, 4, 6]], 0.0)


def test_observables_decode_states():
    spec = default_15_vehicle_spec().prefix(3)
    x0 = default_initial_state(spec)
    dist, vel = crossroad_observables(spec, x0)
    assert np.isnan(dist[0, 0])
    assert np.allclose(dist[0, 1:], [spec.d_des[1] + 5.0, spec.d_des[2] + 5.0])
    assert np.allclose(vel[0], spec.v_ref)


def test_prefix_rederives_chain():
    spec = default_15_vehicle_spec()
    sub = spec.prefix(4)
    assert sub.directions == spec.directions[:4]
    assert sub.chi == spec.chi[:4]


# --------------------------------------------------------------- random AVIs

def test_random_avi_strong_monotonicity_guarantee():
    for seed in range(5):
        p = random_avi(30, 8, seed)
        mono = monotonicity_constants(p.M)
        assert mono.lambda_min >= 0.1 - 1e-9


def test_random_avi_embedded_strictly_feasible_point():
    p = random_avi(20, 6, 123)
    diag = validate(p)
    assert diag.strictly_feasible
    assert diag.ok


def test_random_avi_deterministic():
    a = random_avi(15, 5, 77)
    b = random_avi(15, 5, 77)
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.C.D, b.C.D)
    assert np.array_equal(a.C.d, b.C.d)
    c = random_avi(15, 5, 78)
    assert not np.array_equal(a.M, c.M)
