"""Span tracing around the package's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function in every ``frstokes``
module namespace that holds it (``eval_A_grid`` lives in ``kernel``,
``solvers`` and ``verification``; the suite functions also sit in
``verification.SUITES``) by a wrapper that records a span: name, start,
end, parent span and operation id.  Spans and counters stay in memory until
the run ends.  ``layer_metrics`` turns them into the per-layer metrics.

The benchmark's own input generation and checks run inside
``Tracer.paused()``: they call into ``frstokes`` too (a reference kernel
value reaches the wrapped ``exp_weighted_semiinfinite`` through the
``kernel`` namespace), and nothing is recorded while paused.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

from frstokes import verification
from frstokes.quadrature import QuadratureNonconvergence

# Which end-to-end metric each layer metric should move, on which workload;
# written into every traced record.
PREDICTIONS = {
    "quadrature.*, kernel.*": "wall_s on solve-unforced (dominant) and "
        "solve-forced (the B-curve build); only slightly on verify until the "
        "oracle shrinks",
    "solvers.self_s": "wall_s on solve-forced; no change on solve-unforced",
    "oracle.stepper.*": "wall_s on verify only",
    "oracle.caputo_trace.*, solvers.residual.*": "wall_s and peak_rss_mb on "
        "solve-unforced",
    "solvers.export.*": "wall_s on solve-unforced",
    "scipy import (outside the trace)": "setup_s on every workload",
}

SOLVER_SPANS = ("solvers.forward", "solvers.nonlocal", "solvers.backward",
                "solvers.aux_W")
KERNEL_SPANS = ("kernel.A_grid", "kernel.B_grid", "kernel.dB_grid",
                "kernel.bounds", "kernel.laplace_numeric")


def _size(ts):
    return int(np.size(ts))


def _path_bytes(args, kwargs):
    path = kwargs.get("path", args[-1])
    return os.path.getsize(path)


# (module, function) -> (span name, pre-call counter, post-call counter)
TARGETS = {
    ("quadrature", "adaptive_finite"): ("quadrature.finite", None, None),
    ("quadrature", "exp_weighted_semiinfinite"): ("quadrature.semiinf", None, None),
    ("kernel", "eval_A_grid"): ("kernel.A_grid",
                                lambda a, k: {"points": _size(a[1])}, None),
    ("kernel", "eval_B_grid"): ("kernel.B_grid",
                                lambda a, k: {"points": _size(a[1])}, None),
    ("kernel", "eval_dB_dt_grid"): ("kernel.dB_grid",
                                    lambda a, k: {"points": _size(a[1])}, None),
    ("kernel", "lower_bound_A"): ("kernel.bounds", None, None),
    ("kernel", "lower_bound_B"): ("kernel.bounds", None, None),
    ("kernel", "laplace_transform_numeric"): ("kernel.laplace_numeric", None, None),
    ("solvers", "solve_forward"): ("solvers.forward", None, None),
    ("solvers", "solve_nonlocal"): ("solvers.nonlocal", None, None),
    ("solvers", "solve_backward"): ("solvers.backward", None, None),
    ("solvers", "solve_auxiliary_W"): ("solvers.aux_W", None, None),
    ("solvers", "residual"): ("solvers.residual", None, None),
    ("solvers", "coercivity_report"): ("solvers.coercivity", None, None),
    ("solvers", "export_trace_csv"): ("solvers.export", None,
                                      lambda a, k: {"bytes": _path_bytes(a, k)}),
    ("solvers", "export_trace_json"): ("solvers.export", None,
                                       lambda a, k: {"bytes": _path_bytes(a, k)}),
    ("solvers", "export_trace_grid_csv"): ("solvers.export", None,
                                           lambda a, k: {"bytes": _path_bytes(a, k)}),
    ("oracle", "solve_scalar"): ("oracle.stepper",
                                 lambda a, k: {"steps": k.get("grid", a[-1]).count},
                                 None),
    ("oracle", "caputo_l1_trace"): ("oracle.caputo_trace",
                                    lambda a, k: {"nodes": _size(a[0])}, None),
    ("spectral", "project"): ("spectral.project", None, None),
    ("spectral", "synthesize"): ("spectral.synthesize", None, None),
    ("cli", "main"): ("cli", None, None),
}
for _suite in verification.SUITES:
    TARGETS[("verification", verification.SUITES[_suite].__name__)] = (
        f"verification.{_suite}", None, None)


class Tracer:
    """Spans as parallel lists: name, start, end, parent index, operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts = defaultdict(int)   # "<span>.<counter>" -> total
        self.op_id = -1
        self.is_paused = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording anything."""
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False

    def _enter(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _add(self, name, increments):
        for key, value in increments.items():
            self.counts[f"{name}.{key}"] += value

    def _wrap(self, name, fn, pre, post):
        tracer = self

        if name == "quadrature.semiinf":
            def wrapper(dens, ts, *args, **kwargs):
                if tracer.is_paused:
                    return fn(dens, ts, *args, **kwargs)

                def counted(r):
                    tracer.counts["quadrature.semiinf.panels"] += 1
                    return dens(r)
                tracer.counts["quadrature.semiinf.points"] += _size(ts)
                return tracer._call(name, fn, (counted, ts) + args, kwargs)
        elif name == "quadrature.finite":
            def wrapper(fvec, *args, **kwargs):
                if tracer.is_paused:
                    return fn(fvec, *args, **kwargs)

                def counted(x):
                    tracer.counts["quadrature.finite.fevals"] += np.size(x)
                    return fvec(x)
                return tracer._call(name, fn, (counted,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                if tracer.is_paused:
                    return fn(*args, **kwargs)
                if pre is not None:
                    tracer._add(name, pre(args, kwargs))
                result = tracer._call(name, fn, args, kwargs)
                if post is not None:
                    tracer._add(name, post(args, kwargs))
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _call(self, name, fn, args, kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        except QuadratureNonconvergence:
            if name.startswith("quadrature."):
                self.counts["quadrature.nonconverged"] += 1
            raise
        finally:
            self._exit(idx)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every target in every frstokes namespace that imported it."""
        wrappers = {}
        for (mod_name, fn_name), (name, pre, post) in TARGETS.items():
            fn = getattr(sys.modules[f"frstokes.{mod_name}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, pre, post))
        namespaces = [m.__dict__ for key, m in sorted(sys.modules.items())
                      if key == "frstokes" or key.startswith("frstokes.")]
        namespaces.append(verification.SUITES)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    ns[key] = wrappers[id(value)][1]
                    self._patched.append((ns, key, value))

    def uninstall(self):
        for ns, key, value in reversed(self._patched):
            ns[key] = value
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> list:
        return [list(row) for row in zip(self.names, self.starts, self.ends,
                                         self.parents, self.ops)]


def _self_and_busy(tracer: Tracer):
    """Per-span duration, self time, and whether a same-named span encloses it."""
    n = len(tracer.names)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    child = np.zeros(n)
    nested = np.zeros(n, dtype=bool)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += dur[i]
        name = tracer.names[i]
        p = parent
        while p >= 0:
            if tracer.names[p] == name:
                nested[i] = True
                break
            p = tracer.parents[p]
    return dur, dur - child, nested


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per traced pass.

    Counts and times are totals divided by ``passes``; the two ratios are
    taken over all traced passes together.
    """
    dur, self_t, nested = _self_and_busy(tracer)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_sum = defaultdict(float)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_sum[name] += self_t[i]
        if not nested[i]:
            busy[name] += dur[i]
    c = tracer.counts
    m = {}
    for span in ("quadrature.semiinf", "quadrature.finite", "kernel.A_grid",
                 "kernel.B_grid", "kernel.bounds", *SOLVER_SPANS,
                 "solvers.residual", "solvers.coercivity", "solvers.export",
                 "oracle.stepper", "oracle.caputo_trace",
                 "spectral.synthesize"):
        m[f"{span}.calls"] = (calls[span] / passes, "count")
        m[f"{span}.busy_s"] = (busy[span] / passes, "s")
    for key in ("quadrature.semiinf.points", "quadrature.semiinf.panels",
                "quadrature.finite.fevals", "quadrature.nonconverged",
                "kernel.A_grid.points", "kernel.B_grid.points",
                "oracle.stepper.steps", "oracle.caputo_trace.nodes"):
        m[key] = (c[key] / passes, "count")
    m["solvers.export.bytes"] = (c["solvers.export.bytes"] / passes, "B")
    m["quadrature.semiinf.panels_per_call"] = (
        c["quadrature.semiinf.panels"] / max(calls["quadrature.semiinf"], 1),
        "panels/call")
    stepper_s = busy["oracle.stepper"]
    m["oracle.stepper.steps_per_s"] = (
        c["oracle.stepper.steps"] / stepper_s if stepper_s > 0.0 else 0.0, "1/s")
    m["kernel.self_s"] = (sum(self_sum[s] for s in KERNEL_SPANS) / passes, "s")
    m["solvers.self_s"] = (sum(self_sum[s] for s in SOLVER_SPANS) / passes, "s")
    m["cli.self_s"] = (self_sum["cli"] / passes, "s")
    m["spectral.project.busy_s"] = (busy["spectral.project"] / passes, "s")
    for suite in verification.SUITES:
        if suite != "oracle":
            m[f"verification.{suite}.busy_s"] = (
                busy[f"verification.{suite}"] / passes, "s")
    return m
