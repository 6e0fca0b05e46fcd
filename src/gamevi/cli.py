"""Command-line front end.

Subcommands:
  bench      random-AVI benchmark across the solver zoo (residual traces +
             summary medians)
  solve      solve one AVI problem file with a chosen algorithm
  crossroad  build the crossroad game, run the receding-horizon loop, dump
             plot-ready trace data
  validate   diagnostics for an AVI problem file or a game file

Exit codes: 0 success, 1 runtime failure (machine-readable error JSON is
still written; this includes a run that stopped at --max-iter, status
``iter_limit``, and one whose inner QP solves missed their KKT tolerance,
status ``inner_inexact``; ``crossroad`` names such steps in error.json),
2 usage error. All outputs are deterministic functions of the flags and
seed, except wall-clock columns/fields.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys

import numpy as np

from . import avi, game, rhc, scenario, solvers
from .errors import GameViError, Infeasible, InvalidConfig

__all__ = ["main"]

# why a run that is not converged failed, by its status
_FAILURE_MESSAGES = {
    solvers.ITER_LIMIT: "iteration limit reached",
    solvers.INNER_INEXACT: "an inner QP solve missed its KKT tolerance",
}


def _error_payload(exc, **extra):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    payload["error"].update(extra)
    return payload


def _write_json(payload, path=None):
    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _solver_config(args):
    """SolverConfig from --tol and --max-iter, or None after printing the
    usage message of an invalid one."""
    try:
        return solvers.SolverConfig(tol=args.tol, max_iter=args.max_iter)
    except InvalidConfig as exc:
        print(f"--tol/--max-iter: {exc}", file=sys.stderr)
        return None


def _below_minimum(args, **minimums):
    """Print a usage message for the first size argument below its minimum
    and return True; return False when all are in range."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value < low:
            print(f"--{name} must be >= {low}, got {value}", file=sys.stderr)
            return True
    return False


def cmd_bench(args):
    cfg = _solver_config(args)
    if cfg is None or _below_minimum(args, instances=1, n=1, m=0):
        return 2
    algos = args.algos.split(",")
    for a in algos:
        if a not in solvers.ALGORITHMS:
            print(f"unknown algorithm {a!r}; choose from {','.join(solvers.ALGORITHMS)}",
                  file=sys.stderr)
            return 2
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    runs = []
    any_failure = False
    for i in range(args.instances):
        instance_id = f"avi-n{args.n}-m{args.m}-seed{args.seed}-{i}"
        problem = scenario.random_avi(args.n, args.m, seed=(args.seed, i))
        for algo in algos:
            entry = {"instance_id": instance_id, "algorithm": algo}
            try:
                report = solvers.solve(problem, algo, cfg)
            except GameViError as exc:
                any_failure = True
                entry.update(error=_error_payload(exc)["error"], converged=False)
                runs.append(entry)
                continue
            rows.append((algo, instance_id, report))
            any_failure |= report.status == solvers.INNER_INEXACT
            entry.update(
                iterations=report.iterations,
                converged=report.converged,
                status=report.status,
                final_residual=float(report.final_residual),
                wall_time_s=report.wall_time,
            )
            runs.append(entry)
    solvers.write_residual_csv(rows, os.path.join(args.out_dir, "residual_traces.csv"))
    aggregates = {}
    for algo in algos:
        entries = [r for r in runs if r["algorithm"] == algo and "iterations" in r]
        if not entries:
            continue
        aggregates[algo] = {
            "runs": len(entries),
            "converged": sum(1 for r in entries if r["converged"]),
            "median_iterations": statistics.median(r["iterations"] for r in entries),
            "median_final_residual": statistics.median(
                r["final_residual"] for r in entries),
            "median_wall_time_s": statistics.median(
                r["wall_time_s"] for r in entries),
        }
    summary = {
        "config": {
            "seed": args.seed, "instances": args.instances, "n": args.n,
            "m": args.m, "algorithms": algos, "tol": args.tol,
            "max_iter": args.max_iter,
        },
        "runs": runs,
        "aggregates": aggregates,
    }
    _write_json(summary, os.path.join(args.out_dir, "summary.json"))
    return 1 if any_failure else 0


def cmd_solve(args):
    if not os.path.exists(args.problem):
        print(f"problem file not found: {args.problem}", file=sys.stderr)
        return 2
    cfg = _solver_config(args)
    if cfg is None:
        return 2
    try:
        problem = avi.read_avi(args.problem)
        report = solvers.solve(problem, args.algo, cfg)
    except GameViError as exc:
        _write_json(_error_payload(exc), args.out)
        return 1
    payload = {
        "algorithm": args.algo,
        "solution": report.solution.tolist(),
        "residual": float(report.final_residual),
        "iterations": report.iterations,
        "status": report.status,
        "qp_not_optimal": report.qp_not_optimal,
    }
    if not report.converged:
        _write_json(_error_payload(GameViError(_FAILURE_MESSAGES[report.status]),
                                   **payload), args.out)
        return 1
    _write_json(payload, args.out)
    return 0


def cmd_crossroad(args):
    cfg = _solver_config(args)
    if cfg is None or _below_minimum(args, steps=1, horizon=1):
        return 2
    spec = scenario.default_15_vehicle_spec()
    if args.vehicles != spec.n_vehicles:
        if not (1 <= args.vehicles <= spec.n_vehicles):
            print(f"--vehicles must be in 1..{spec.n_vehicles}", file=sys.stderr)
            return 2
        spec = spec.prefix(args.vehicles)
    os.makedirs(args.out_dir, exist_ok=True)
    g = scenario.build_crossroad(spec, horizon=args.horizon)
    compiled = game.compile_vi(g)
    x0 = (np.zeros(g.n) if args.x0 == "zero"
          else scenario.default_initial_state(spec))
    try:
        trace = rhc.simulate(compiled, x0, args.steps, cfg)
    except Infeasible as exc:
        _write_json(_error_payload(exc), os.path.join(args.out_dir, "error.json"))
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    trace.meta.update(game_meta=g.meta, vehicles=spec.n_vehicles,
                      steps=args.steps, x0=x0.tolist())
    rhc.write_trace_json(trace, os.path.join(args.out_dir, "trace.json"))
    rhc.write_iterations_csv(trace, os.path.join(args.out_dir, "iterations.csv"))
    distance, velocity = scenario.crossroad_observables(spec, trace.states)
    with open(os.path.join(args.out_dir, "agents.csv"), "w") as fh:
        fh.write("t,agent,distance,velocity,d_des,v_ref\n")
        for t in range(trace.states.shape[0]):
            for i in range(spec.n_vehicles):
                dist = "" if np.isnan(distance[t, i]) else repr(float(distance[t, i]))
                fh.write(f"{t},{i},{dist},{float(velocity[t, i])!r},"
                         f"{float(spec.d_des[i])!r},{float(spec.v_ref)!r}\n")
    failed = [t for t, s in enumerate(trace.statuses) if s != solvers.CONVERGED]
    if failed:
        message = "; ".join(sorted({_FAILURE_MESSAGES[trace.statuses[t]]
                                    for t in failed}))
        _write_json(_error_payload(GameViError(message), steps=failed),
                    os.path.join(args.out_dir, "error.json"))
        print(f"{message} at {len(failed)} step(s)", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args):
    if args.problem is not None:
        if not os.path.exists(args.problem):
            print(f"problem file not found: {args.problem}", file=sys.stderr)
            return 2
        try:
            problem = avi.read_avi(args.problem)
        except GameViError as exc:
            payload = _error_payload(exc)
            payload["ok"] = False
            _write_json(payload, args.out)
            return 1
        diag = avi.validate(problem)
        payload = dataclasses.asdict(diag)
        payload["ok"] = diag.ok
        _write_json(payload, args.out)
        return 0 if diag.ok else 1
    if not os.path.exists(args.game):
        print(f"game file not found: {args.game}", file=sys.stderr)
        return 2
    payload = {}
    try:
        g = game.read_game(args.game)
        payload.update(n=g.n, agents=g.N, horizon=g.T)
        compiled = game.compile_vi(g)
    except GameViError as exc:
        payload.update(_error_payload(exc))
        payload["ok"] = False
        _write_json(payload, args.out)
        return 1
    mono = avi.monotonicity_constants(compiled.M_ol)
    payload.update(
        mu=mono.mu, L=mono.L, strongly_monotone=mono.strongly_monotone,
        riccati_residual=max(compiled.riccati.residuals),
        spectral_radius=compiled.riccati.spectral_radius,
        ok=bool(mono.strongly_monotone),
    )
    _write_json(payload, args.out)
    return 0 if payload["ok"] else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gamevi",
        description="Dynamic-game VI solver toolkit: benchmarks, one-shot "
                    "solves, and the crossroad receding-horizon experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="random-AVI solver benchmark")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--instances", type=int, default=10)
    bench.add_argument("--n", type=int, default=100)
    bench.add_argument("--m", type=int, default=20)
    bench.add_argument("--algos", default=",".join(solvers.ALGORITHMS),
                       help="comma-separated subset of " + ",".join(solvers.ALGORITHMS))
    bench.add_argument("--tol", type=float, default=1e-3)
    bench.add_argument("--max-iter", type=int, default=5000)
    bench.add_argument("--out-dir", default="bench_out")
    bench.set_defaults(func=cmd_bench)

    solve_p = sub.add_parser("solve", help="solve one AVI problem file")
    solve_p.add_argument("--problem", required=True, help="AVI JSON file")
    solve_p.add_argument("--algo", default="dr", choices=solvers.ALGORITHMS)
    solve_p.add_argument("--tol", type=float, default=1e-3)
    solve_p.add_argument("--max-iter", type=int, default=10_000)
    solve_p.add_argument("--out", default=None, help="solution JSON path (default stdout)")
    solve_p.set_defaults(func=cmd_solve)

    cross = sub.add_parser("crossroad", help="receding-horizon crossroad run")
    cross.add_argument("--vehicles", type=int, default=15,
                       help="use the first K vehicles of the default spec")
    cross.add_argument("--steps", type=int, default=300)
    cross.add_argument("--horizon", type=int, default=10)
    cross.add_argument("--tol", type=float, default=1e-3)
    cross.add_argument("--max-iter", type=int, default=5000)
    cross.add_argument("--x0", choices=["default", "zero"], default="default")
    cross.add_argument("--out-dir", default="crossroad_out")
    cross.set_defaults(func=cmd_crossroad)

    val = sub.add_parser("validate", help="diagnose an AVI or game file")
    group = val.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="AVI JSON file")
    group.add_argument("--game", help="game JSON file")
    val.add_argument("--out", default=None, help="diagnosis JSON path (default stdout)")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameViError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
