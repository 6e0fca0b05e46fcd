import csv
import importlib.resources
import json
from pathlib import Path

import numpy as np
import pytest

from gamevi import avi, cli, rhc, scenario


SAMPLE = str(importlib.resources.files("gamevi") / "data" / "sample_avi_1d.json")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------- bench

def test_bench_small_run(tmp_path):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--seed", "7", "--instances", "2", "--n", "20",
                   "--m", "5", "--max-iter", "600", "--out-dir", str(out)])
    assert rc == 0
    rows = read_csv(out / "bench" if False else out / "residual_traces.csv")
    groups = {(r["algorithm"], r["instance_id"]) for r in rows}
    assert len(groups) == 2 * 6  # instances x algorithms
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 12
    for run in summary["runs"]:
        if run.get("converged"):
            assert run["final_residual"] <= 1e-3


def test_bench_deterministic_modulo_timing(tmp_path):
    args = ["bench", "--seed", "3", "--instances", "1", "--n", "12", "--m", "4",
            "--max-iter", "400"]
    rc1 = cli.main(args + ["--out-dir", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out-dir", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    rows_a = read_csv(tmp_path / "a" / "residual_traces.csv")
    rows_b = read_csv(tmp_path / "b" / "residual_traces.csv")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"}
                          for r in rows]
    assert strip(rows_a) == strip(rows_b)
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    for run_a, run_b in zip(sa["runs"], sb["runs"]):
        run_a.pop("wall_time_s", None); run_b.pop("wall_time_s", None)
        assert run_a == run_b


def test_bench_rejects_unknown_algorithm(tmp_path):
    rc = cli.main(["bench", "--algos", "dr,newton", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_bench_records_solver_failures(tmp_path, monkeypatch):
    # force a run to raise: a skew instance makes PGD refuse to start
    skew = avi.AviProblem([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                          avi.Polyhedron.unconstrained(2))
    monkeypatch.setattr(cli.scenario, "random_avi", lambda n, m, seed: skew)
    rc = cli.main(["bench", "--instances", "1", "--n", "2", "--m", "0",
                   "--algos", "pgd,exgd", "--max-iter", "200",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    errors = [r for r in summary["runs"] if "error" in r]
    assert errors and errors[0]["error"]["type"] == "NotStronglyMonotone"


# ---------------------------------------------------------------------- solve

def test_solve_shipped_sample(tmp_path, capsys):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--problem", SAMPLE, "--tol", "1e-9",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["solution"][0] == pytest.approx(1.0, abs=1e-6)
    assert payload["status"] == "converged"


def test_solve_algorithms_agree(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["solve", "--problem", SAMPLE, "--algo", "dr",
                     "--tol", "1e-8", "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--problem", SAMPLE, "--algo", "exgd",
                     "--tol", "1e-8", "--out", str(out_b)]) == 0
    ua = json.loads(out_a.read_text())["solution"]
    ub = json.loads(out_b.read_text())["solution"]
    assert abs(ua[0] - ub[0]) <= 1e-4


def test_solve_missing_file_usage_error(capsys):
    assert cli.main(["solve", "--problem", "/does/not/exist.json"]) == 2


def test_solve_iteration_limit_error_json(tmp_path):
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", SAMPLE, "--tol", "1e-12",
                   "--max-iter", "2", "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert "error" in payload


def inexact_inner_solves(monkeypatch):
    # every SolverConfig the CLI builds asks the inner QPs for 1e-300
    config = cli.solvers.SolverConfig
    monkeypatch.setattr(cli.solvers, "SolverConfig",
                        lambda **kw: config(qp_tol=1e-300, **kw))


def test_solve_inner_inexact_error_json(tmp_path, monkeypatch):
    problem = tmp_path / "p.json"
    avi.write_avi(scenario.random_avi(12, 6, seed=21), problem)
    inexact_inner_solves(monkeypatch)
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", str(problem), "--out", str(out)])
    assert rc == 1
    error = json.loads(out.read_text())["error"]
    assert error["status"] == "inner_inexact"
    assert error["qp_not_optimal"] > 0
    assert "KKT tolerance" in error["message"]


def test_solve_infeasible_error_json(tmp_path):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({
        "n": 1, "m": 2, "M": [1.0], "q": [0.0],
        "D": [1.0, -1.0], "d": [0.0, 1.0]}))  # u <= 0 and u >= 1
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", str(prob), "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["error"]["type"] == "Infeasible"


def non_finite_problem(tmp_path):
    payload = json.loads(Path(SAMPLE).read_text())
    payload["q"][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_non_finite_problem_error_json(tmp_path):
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", non_finite_problem(tmp_path),
                   "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["error"]["type"] == "NonFiniteData"


def short_matrix_problem(tmp_path, n=2, M=(1.0, 0.0, 1.0)):
    """An AVI file with n variables whose M holds the given entries (by
    default 3 entries for n = 2)."""
    path = tmp_path / f"short{n}.json"
    path.write_text(json.dumps({
        "n": n, "m": 0, "M": list(M), "q": [0.0, 0.0], "D": [], "d": []}))
    return str(path)


def test_solve_shape_mismatch_error_json(tmp_path):
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", short_matrix_problem(tmp_path),
                   "--out", str(out)])
    assert rc == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "DimensionMismatch"
    assert "M has 3 entries" in error["message"]


@pytest.mark.parametrize("algo", ["exgd", "prgd"])
def test_solve_constant_operator_error_json(tmp_path, algo):
    # M = 0, so L = 0 leaves no default step
    prob = tmp_path / "zero.json"
    prob.write_text(json.dumps({
        "n": 1, "m": 2, "M": [0.0], "q": [1.0],
        "D": [1.0, -1.0], "d": [-1.0, -1.0]}))
    out = tmp_path / "err.json"
    rc = cli.main(["solve", "--problem", str(prob), "--algo", algo,
                   "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["error"]["type"] == "InvalidConfig"


def test_bench_size_arguments_are_usage_errors(tmp_path, capsys):
    for flag, value in (("--n", "0"), ("--m", "-1"), ("--instances", "-1"),
                        ("--instances", "0")):
        rc = cli.main(["bench", flag, value, "--algos", "dr",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(flag)
    assert not (tmp_path / "out").exists()


def test_bench_solver_arguments_are_usage_errors(tmp_path, capsys):
    for flag, value in (("--tol", "-1"), ("--tol", "0"), ("--max-iter", "0")):
        rc = cli.main(["bench", flag, value, "--algos", "dr",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("--tol/--max-iter")
    assert not (tmp_path / "out").exists()


def test_solve_solver_arguments_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "sol.json"
    for flag, value in (("--tol", "0"), ("--tol", "inf"), ("--tol", "nan"),
                        ("--max-iter", "0")):
        rc = cli.main(["solve", "--problem", SAMPLE, flag, value,
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("--tol/--max-iter")
    assert not out.exists()


# ------------------------------------------------------------------ crossroad

def test_crossroad_run_outputs(tmp_path):
    out = tmp_path / "cross"
    rc = cli.main(["crossroad", "--vehicles", "3", "--steps", "40",
                   "--out-dir", str(out)])
    assert rc == 0
    trace = rhc.read_trace_json(out / "trace.json")
    assert trace.steps == 40
    assert trace.min_margin() >= -1e-9
    iters = read_csv(out / "iterations.csv")
    assert len(iters) == 40
    agents = read_csv(out / "agents.csv")
    assert {"t", "agent", "distance", "velocity", "d_des", "v_ref"} == set(agents[0])
    assert agents[0]["distance"] == ""  # leader has no predecessor
    spec = scenario.default_15_vehicle_spec().prefix(3)
    dist, vel = scenario.crossroad_observables(spec, trace.states)
    row = agents[4]  # t=1, agent=1
    assert float(row["velocity"]) == pytest.approx(vel[1, 1])


def test_crossroad_inner_inexact_exits_1(tmp_path, monkeypatch):
    inexact_inner_solves(monkeypatch)
    out = tmp_path / "cross"
    rc = cli.main(["crossroad", "--vehicles", "3", "--steps", "5",
                   "--out-dir", str(out)])
    assert rc == 1
    trace = rhc.read_trace_json(out / "trace.json")
    flagged = [t for t, s in enumerate(trace.statuses) if s == "inner_inexact"]
    assert flagged
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["steps"] == flagged


def test_crossroad_iteration_limit_exits_1(tmp_path):
    # steps stopped at --max-iter fail the run as `solve` does, and
    # error.json names them
    out = tmp_path / "cross"
    rc = cli.main(["crossroad", "--max-iter", "2", "--steps", "20",
                   "--out-dir", str(out)])
    assert rc == 1
    trace = rhc.read_trace_json(out / "trace.json")
    assert set(trace.statuses) == {"iter_limit"}
    error = json.loads((out / "error.json").read_text())["error"]
    assert error["steps"] == list(range(20))
    assert error["message"] == "iteration limit reached"


def test_bench_inner_inexact_exits_1(tmp_path, monkeypatch):
    inexact_inner_solves(monkeypatch)
    rc = cli.main(["bench", "--instances", "1", "--n", "12", "--m", "6",
                   "--algos", "dr", "--out-dir", str(tmp_path)])
    assert rc == 1
    run, = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert run["status"] == "inner_inexact" and not run["converged"]


def test_crossroad_zero_initial_state(tmp_path):
    out = tmp_path / "zero"
    rc = cli.main(["crossroad", "--vehicles", "2", "--steps", "10",
                   "--x0", "zero", "--out-dir", str(out)])
    assert rc == 0
    trace = rhc.read_trace_json(out / "trace.json")
    assert np.allclose(trace.states, 0.0, atol=1e-9)
    assert np.allclose(trace.inputs, 0.0, atol=1e-9)


def test_crossroad_tail_iterations_single(tmp_path):
    out = tmp_path / "tail"
    rc = cli.main(["crossroad", "--vehicles", "3", "--steps", "120",
                   "--out-dir", str(out)])
    assert rc == 0
    iters = [int(r["iterations"]) for r in read_csv(out / "iterations.csv")]
    assert all(it == 1 for it in iters[-30:])


def test_crossroad_no_terminal_shortcut_same_trajectory(tmp_path, monkeypatch):
    # the second run solves every step by DR: the closed form changes nothing
    a = tmp_path / "with"
    b = tmp_path / "without"
    assert cli.main(["crossroad", "--vehicles", "2", "--steps", "30",
                     "--tol", "1e-8", "--out-dir", str(a)]) == 0
    monkeypatch.setattr(rhc, "in_terminal_set", lambda c, x: False)
    assert cli.main(["crossroad", "--vehicles", "2", "--steps", "30",
                     "--tol", "1e-8", "--out-dir", str(b)]) == 0
    ta = rhc.read_trace_json(a / "trace.json")
    tb = rhc.read_trace_json(b / "trace.json")
    assert np.allclose(ta.states, tb.states, atol=1e-6)
    assert ta.solver_iterations == tb.solver_iterations


def test_crossroad_vehicle_count_bounds():
    assert cli.main(["crossroad", "--vehicles", "0", "--steps", "1"]) == 2
    assert cli.main(["crossroad", "--vehicles", "99", "--steps", "1"]) == 2


def test_crossroad_size_arguments_are_usage_errors(tmp_path, capsys):
    for flag, value in (("--horizon", "0"), ("--steps", "-1"), ("--steps", "0")):
        rc = cli.main(["crossroad", "--vehicles", "1", flag, value,
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(flag)
    assert not (tmp_path / "out").exists()


def test_crossroad_solver_arguments_are_usage_errors(tmp_path, capsys):
    for flag, value in (("--tol", "0"), ("--max-iter", "0")):
        rc = cli.main(["crossroad", "--vehicles", "1", "--steps", "1", flag,
                       value, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("--tol/--max-iter")
    rc = cli.main(["crossroad", "--vehicles", "0", "--steps", "1",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- validate

def test_validate_problem_ok(capsys):
    rc = cli.main(["validate", "--problem", SAMPLE])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]


def test_validate_problem_flags_issues(tmp_path, capsys):
    prob = tmp_path / "skew.json"
    prob.write_text(json.dumps({
        "n": 2, "m": 0, "M": [0.0, 1.0, -1.0, 0.0], "q": [0.0, 0.0],
        "D": [], "d": []}))
    rc = cli.main(["validate", "--problem", str(prob)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["strongly_monotone"]


def test_validate_problem_huge_finite_matrix(tmp_path, capsys):
    # M + M' overflows at M = 1e308 I; the modulus must not come out NaN
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps({
        "n": 2, "m": 0, "M": [1e308, 0.0, 0.0, 1e308], "q": [1.0, -1.0],
        "D": [], "d": []}))
    rc = cli.main(["validate", "--problem", str(prob)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 1e308 and payload["strongly_monotone"]
    assert rc == 0


def test_validate_game_file(tmp_path, capsys, small_game2):
    from gamevi import game as G
    g, _ = small_game2
    path = tmp_path / "game.json"
    G.write_game(g, path)
    rc = cli.main(["validate", "--game", str(path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["strongly_monotone"]


def test_validate_game_compile_failure(tmp_path, capsys):
    # unstable mode with no control authority: the Riccati stage cannot converge
    path = tmp_path / "bad_game.json"
    path.write_text(json.dumps({
        "A": [[2.0]], "B": [[[0.0]]], "Q": [[[1.0]]], "R": [[[1.0]]], "T": 2}))
    rc = cli.main(["validate", "--game", str(path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["error"]["type"] == "NoConvergence"


def test_validate_game_singular_input_weight_error_json(tmp_path, capsys):
    path = tmp_path / "singular_r.json"
    path.write_text(json.dumps({
        "A": [[0.5]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[0.0]]], "T": 2}))
    rc = cli.main(["validate", "--game", str(path)])
    assert rc == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "NoConvergence"
    assert "R[0] is singular" in error["message"]


def test_validate_non_finite_game_error_json(tmp_path, capsys):
    good = {"A": [[0.5]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[1.0]]],
            "T": 2, "Du": [[[1.0]]], "du": [-1.0]}
    for key, value in (("Q", [[[float("nan")]]]), ("du", [float("inf")])):
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(dict(good, **{key: value})))
        rc = cli.main(["validate", "--game", str(path)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert payload["error"]["type"] == "NonFiniteData"


def test_validate_game_shape_mismatch_error_json(tmp_path, capsys):
    path = tmp_path / "wide_r.json"
    path.write_text(json.dumps({
        "A": [[0.5]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[1.0, 0.0]]],
        "T": 2}))
    rc = cli.main(["validate", "--game", str(path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["error"]["type"] == "DimensionMismatch"


def test_validate_game_missing_field_error_json(tmp_path, capsys):
    path = tmp_path / "no_horizon.json"
    path.write_text(json.dumps({
        "A": [[0.5]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[1.0]]]}))
    rc = cli.main(["validate", "--game", str(path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["error"]["type"] == "SpecError"
    assert payload["error"]["message"].endswith("missing required field(s) T")


def test_validate_malformed_files_error_json(tmp_path, capsys):
    game_file = tmp_path / "string_horizon.json"
    game_file.write_text(json.dumps({
        "A": [[0.5]], "B": [[[1.0]]], "Q": [[[1.0]]], "R": [[[1.0]]],
        "T": "x"}))
    problem_file = tmp_path / "truncated.json"
    problem_file.write_text(Path(SAMPLE).read_text()[:-5])
    for flag, path in (("--game", game_file), ("--problem", problem_file)):
        rc = cli.main(["validate", flag, str(path)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert payload["error"]["type"] == "SpecError"
        assert payload["error"]["message"].startswith(str(path))


def test_validate_problem_shape_mismatch_error_json(tmp_path, capsys):
    for path in (short_matrix_problem(tmp_path),
                 short_matrix_problem(tmp_path, n=-1, M=[1.0])):
        rc = cli.main(["validate", "--problem", path])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert payload["error"]["type"] == "DimensionMismatch"


def test_validate_non_finite_problem_error_json(tmp_path, capsys):
    rc = cli.main(["validate", "--problem", non_finite_problem(tmp_path)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert payload["error"]["type"] == "NonFiniteData"


def test_validate_missing_file():
    assert cli.main(["validate", "--problem", "/no/such.json"]) == 2


# ---------------------------------------------------------------- CLI surface
# Pinned like gamevi.__all__ in test_api.py: a flag or trace.json meta change
# shows up as a change to these lists.

OPTIONS = {
    "bench": ["-h", "--help", "--seed", "--instances", "--n", "--m", "--algos",
              "--tol", "--max-iter", "--out-dir"],
    "solve": ["-h", "--help", "--problem", "--algo", "--tol", "--max-iter", "--out"],
    "crossroad": ["-h", "--help", "--vehicles", "--steps", "--horizon", "--tol",
                  "--max-iter", "--x0", "--out-dir"],
    "validate": ["-h", "--help", "--problem", "--game", "--out"],
}

TRACE_META = ["game_meta", "horizon", "max_iter", "steps", "tol", "vehicles", "x0"]


def test_cli_options_are_pinned():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if a.choices and a.dest == "command"]
    assert {name: [s for a in p._actions for s in a.option_strings]
            for name, p in sub.choices.items()} == OPTIONS


def test_crossroad_trace_meta_is_pinned(tmp_path):
    assert cli.main(["crossroad", "--vehicles", "1", "--steps", "2",
                     "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "trace.json").read_text())["meta"]
    assert sorted(meta) == TRACE_META
