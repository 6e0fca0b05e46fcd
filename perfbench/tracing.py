"""Span recorder for the traced benchmark run.

The program under test is not instrumented. Instead, each public function
is wrapped at the name through which its caller looks it up (for example
``gamevi.rhc.in_terminal_set``, not ``gamevi.game.in_terminal_set``), so
every call a workload makes passes through a wrapper that records a span:
name, start, end, parent span and run id. Spans are kept in memory and
written out when the run ends; the per-layer metrics are computed from them.

Wrappers record only while a run is open (``Tracer.run``), so the
benchmark's own output checks, which call the same functions, are not
counted.
"""

import contextlib
import gzip
import json
import time
import weakref

import numpy as np
import scipy.linalg

import gamevi.avi
import gamevi.game
import gamevi.qp
import gamevi.rhc
import gamevi.scenario
import gamevi.solvers

# span name -> list of (namespace, attribute) where the wrapped callable is
# looked up by its callers
PATCH_POINTS = {
    "scenario.build_crossroad": [(gamevi.scenario, "build_crossroad")],
    "game.compile_vi": [(gamevi.game, "compile_vi")],
    "game.solve_coupled_riccati": [(gamevi.game, "solve_coupled_riccati")],
    "game.solve_are": [(gamevi.game, "solve_are")],
    "blockmat.build_theta": [(gamevi.game, "build_theta")],
    "blockmat.build_gamma": [(gamevi.game, "build_gamma")],
    "blockmat.kron": [(gamevi.game, "kron")],
    "blockmat.blkdg": [(gamevi.game, "blkdg")],
    "solvers.make_dr_splitting": [(gamevi.game, "make_dr_splitting"),
                                  (gamevi.solvers, "make_dr_splitting")],
    "solvers.DrWorkspace": [(gamevi.solvers, "DrWorkspace")],
    "solvers.dr_solve": [(gamevi.solvers, "dr_solve")],
    "solvers.stepb_lu_solve": [(scipy.linalg, "lu_solve")],
    "rhc.simulate": [(gamevi.rhc, "simulate")],
    "rhc.rhc_step": [(gamevi.rhc, "rhc_step")],
    "rhc.shift_warm_start": [(gamevi.rhc, "shift_warm_start")],
    "rhc.in_terminal_set": [(gamevi.rhc, "in_terminal_set")],
    "avi.project": [(gamevi.avi, "project"), (gamevi.rhc, "project")],
    "qp.QpEngine.__init__": [(gamevi.qp.QpEngine, "__init__")],
    "qp.QpEngine.solve": [(gamevi.qp.QpEngine, "solve")],
    "qp.certify_feasibility": [(gamevi.qp, "certify_feasibility")],
}

# spans that each workload must record at least once in a traced run; a
# rename in the program that bypasses a wrapper fails the run instead of
# silently zeroing a layer
REQUIRED = {
    "crossroad15": [
        "scenario.build_crossroad", "game.compile_vi",
        "game.solve_coupled_riccati", "game.solve_are",
        "blockmat.build_theta", "blockmat.build_gamma", "blockmat.kron",
        "blockmat.blkdg", "solvers.make_dr_splitting", "solvers.DrWorkspace",
        "solvers.dr_solve", "solvers.stepb_lu_solve", "rhc.simulate",
        "rhc.rhc_step", "rhc.shift_warm_start", "rhc.in_terminal_set",
        "avi.project", "qp.QpEngine.__init__", "qp.QpEngine.solve"],
    "random_avi_dr": [
        "solvers.make_dr_splitting", "solvers.DrWorkspace", "solvers.dr_solve",
        "solvers.stepb_lu_solve", "qp.QpEngine.__init__", "qp.QpEngine.solve"],
}

QP_KINDS = ("stepa", "proj")
QP_PATHS = ("free", "polish", "admm")

PER_LAYER = (
    ["game.are_calls", "game.are_s", "game.riccati_s", "game.riccati_sweeps",
     "game.compile_self_s", "game.terminal_set_calls", "game.terminal_set_s",
     "game.terminal_set_accept_ratio",
     "blockmat.calls", "blockmat.s",
     "solvers.dr_calls", "solvers.dr_iterations", "solvers.dr_self_s",
     "solvers.workspace_calls", "solvers.workspace_s", "solvers.splitting_s",
     "solvers.stepb_calls", "solvers.stepb_s"]
    + [f"qp.{k}.{p}.{x}" for k in QP_KINDS for p in QP_PATHS
       for x in ("calls", "s")]
    + ["qp.stepa.admm_iterations", "qp.proj.admm_iterations", "qp.admm_lu_s",
       "qp.polish_hit_ratio", "qp.engine_init_calls", "qp.engine_init_s",
       "qp.not_optimal", "qp.certify_calls",
       "avi.project_calls", "avi.project_s",
       "rhc.step_calls", "rhc.shortcut_hits", "rhc.step_self_s", "rhc.shift_s",
       "trace.setup_s", "trace.loop_s", "trace.overhead_s", "trace.spans"])


def _units(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _qp_attrs(tracer, args, out):
    engine = args[0]
    kind = tracer.engine_kind.get(engine)
    if kind is None:
        kind = "proj" if np.array_equal(engine.P, np.eye(engine.n)) else "stepa"
        tracer.engine_kind[engine] = kind
    if out.iterations > 0:
        path = "admm"
    elif out.lam.size == 0 or not np.any(out.lam):
        path = "free"
    else:
        path = "polish"
    return (kind, path, out.iterations, out.optimal)


# span name -> function (tracer, args, result) giving the span's attributes
_ATTRS = {
    "qp.QpEngine.solve": _qp_attrs,
    "solvers.dr_solve": lambda tr, args, out: out.iterations,
    "game.solve_coupled_riccati": lambda tr, args, out: out.iterations,
    "rhc.in_terminal_set": lambda tr, args, out: bool(out),
}


class MissingPatchPoint(Exception):
    """A name the tracer wraps no longer exists where its callers look."""


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.engine_kind = weakref.WeakKeyDictionary()

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1,
                    self.run, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if attrs is not None:
                span[5] = attrs(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapper in; restore the original names on exit."""
        saved = []
        try:
            for name, points in PATCH_POINTS.items():
                for owner, attr in points:
                    original = getattr(owner, attr, None)
                    if original is None:
                        raise MissingPatchPoint(
                            f"{owner.__name__}.{attr} (span {name}) is gone")
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name, run):
        """Open a top-level span; wrappers record only inside one."""
        self.run = run
        span = [name, time.perf_counter(), 0.0, -1, run, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.run = None

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "columns": ["name", "start", "end", "parent", "run", "attrs"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                      for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

    def fired(self):
        return {s[0] for s in self.spans}


def per_layer(tracer, setup_root, loop_root, untraced_s):
    """Per-layer metrics from the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children (single-threaded, so children never overlap).
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    has_dr_child = [False] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            if s[0] == "solvers.dr_solve":
                has_dr_child[s[3]] = True
    m = {name: 0.0 for name in PER_LAYER}
    qp_total = qp_no_admm = 0
    for i, s in enumerate(spans):
        name, attrs, d = s[0], s[5], dur[i]
        self_s = d - child[i]
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if name == "game.solve_are":
            m["game.are_calls"] += 1
            m["game.are_s"] += d
        elif name == "game.solve_coupled_riccati":
            m["game.riccati_s"] += d
            m["game.riccati_sweeps"] += attrs
        elif name == "game.compile_vi":
            m["game.compile_self_s"] += self_s
        elif name == "rhc.in_terminal_set":
            m["game.terminal_set_calls"] += 1
            m["game.terminal_set_s"] += d
            m["game.terminal_set_accept_ratio"] += attrs
        elif name.startswith("blockmat."):
            m["blockmat.calls"] += 1
            if not (parent or "").startswith("blockmat."):
                m["blockmat.s"] += d
        elif name == "solvers.dr_solve":
            m["solvers.dr_calls"] += 1
            m["solvers.dr_iterations"] += attrs
            m["solvers.dr_self_s"] += self_s
        elif name == "solvers.DrWorkspace":
            m["solvers.workspace_calls"] += 1
            m["solvers.workspace_s"] += d
        elif name == "solvers.make_dr_splitting":
            m["solvers.splitting_s"] += d
        elif name == "solvers.stepb_lu_solve":
            if parent == "solvers.dr_solve":
                m["solvers.stepb_calls"] += 1
                m["solvers.stepb_s"] += d
            elif parent == "qp.QpEngine.solve":
                m["qp.admm_lu_s"] += d
        elif name == "qp.QpEngine.solve":
            kind, path, iterations, optimal = attrs
            m[f"qp.{kind}.{path}.calls"] += 1
            m[f"qp.{kind}.{path}.s"] += d
            m[f"qp.{kind}.admm_iterations"] += iterations
            m["qp.not_optimal"] += not optimal
            qp_total += 1
            qp_no_admm += path != "admm"
        elif name == "qp.QpEngine.__init__":
            m["qp.engine_init_calls"] += 1
            m["qp.engine_init_s"] += d
        elif name == "qp.certify_feasibility":
            m["qp.certify_calls"] += 1
        elif name == "avi.project":
            m["avi.project_calls"] += 1
            m["avi.project_s"] += d
        elif name == "rhc.rhc_step":
            m["rhc.step_calls"] += 1
            m["rhc.shortcut_hits"] += not has_dr_child[i]
            m["rhc.step_self_s"] += self_s
        elif name == "rhc.shift_warm_start":
            m["rhc.shift_s"] += d
    if m["game.terminal_set_calls"]:
        m["game.terminal_set_accept_ratio"] /= m["game.terminal_set_calls"]
    m["qp.polish_hit_ratio"] = qp_no_admm / qp_total if qp_total else 0.0
    m["trace.setup_s"] = setup_root[2] - setup_root[1]
    m["trace.loop_s"] = loop_root[2] - loop_root[1]
    m["trace.overhead_s"] = m["trace.setup_s"] + m["trace.loop_s"] - untraced_s
    m["trace.spans"] = len(spans)
    return {name: {"value": float(value), "unit": _units(name)}
            for name, value in m.items()}
