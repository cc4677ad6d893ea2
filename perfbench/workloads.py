"""Workload definitions, seeded input generation, operation runner and checks.

Every operation drives the package's own entry points in-process: solves go
through ``frstokes.cli.main(["solve", ...])`` on generated config and CSV
files, the oracle stepper through ``cli.main(["convergence", ...])``, and the
property suites through ``verification.run_suites([suite])``, the function
``cli verify`` wraps.  (``cli verify`` itself raises a TypeError while
printing the ``identities`` and ``laplace`` reports, whose ``passed`` flags
are numpy booleans, so it cannot be the entry point for every suite.)

The seed drives data and source values only.  Each operation's kind,
operator, mode count, node count, rho and gamma come from the tables below,
so an operation costs the same under every seed.  Pass ``r`` of an operation
uses gamma * (1 + GAMMA_STEP * r) and every operation of a workload has its
own rho, so no two timed solves share a (rho, gamma) pair and a cache kept
across calls gains nothing that separate command-line runs would not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from frstokes import cli
from frstokes.kernel import KernelParams, QuadratureConfig, eval_A_grid
from frstokes.verification import run_suites

HORIZON = 1.0
LENGTH = math.pi          # Dirichlet eigenvalues are k^2
GAMMA_STEP = 0.002
# Independent panel layout for the reference kernel values used by the
# checks and by the backward terminal data (same setting as the backward
# verification suite).
CHECK_Q = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, split_point=0.7)
CONVERGENCE_DTS = [4e-5, 2e-5, 1e-5]   # the oracle suite's step sizes

# Tolerances are the package's own: 1e-6 is the nonlocal increment gate,
# 1e-4 the manufactured, backward-recovery and kernel-vs-L1 gates.
TOL_CLOSED_FORM = 1e-6
TOL_INCREMENT = 1e-6
TOL_TERMINAL = 1e-6
TOL_MANUFACTURED = 1e-4
TOL_RECOVERY = 1e-4
TOL_ORACLE = 1e-4
TOL_INITIAL = 1e-12


@dataclass(frozen=True)
class Op:
    """One timed operation; every field is fixed by the workload definition."""

    name: str
    kind: str                   # forward | nonlocal | backward | verify | convergence
    rho: float = 0.5
    gamma: float = 1.0
    n_modes: int = 0            # Dirichlet modes, or explicit eigenvalue count
    n_nodes: int = 512
    spectrum: str = "dirichlet"  # dirichlet | geometric (1 .. 1e6)
    source: str = "zero"        # zero | constant | per_mode | manufactured | sampled
    data: str = "coefficients"  # coefficients | grid_csv
    grid_export: bool = False
    trace_json: bool = False
    lam: float = 1.0            # convergence only
    suite: str = ""             # verify only

    def gamma_at(self, rep: int) -> float:
        return self.gamma * (1.0 + GAMMA_STEP * rep)


WORKLOADS = {
    # Zero source: batched eval_A_grid quadrature, the O(n^2) Caputo trace of
    # the residual (4096 nodes sets peak RSS) and the exports.  The
    # convolution never runs.
    "solve-unforced": [
        Op("fwd-dir64", "forward", 0.35, 1.0, 64, 512, trace_json=True),
        Op("nonlocal-dir64", "nonlocal", 0.5, 1.0, 64, 512),
        Op("backward-dir64", "backward", 0.55, 1.0, 64, 512),
        Op("fwd-dir32-n4096", "forward", 0.6, 0.5, 32, 4096),
        Op("fwd-geom32-n2048", "forward", 0.65, 2.0, 32, 2048,
           spectrum="geometric"),
        Op("fwd-dir16-csv-grid", "forward", 0.7, 1.0, 16, 2048,
           data="grid_csv", grid_export=True),
    ],
    # Forced: the B-curve build and product integration dominate, about
    # 125 ms per mode; the only workload where solvers self time leads.
    "solve-forced": [
        Op("fwd-const-dir8", "forward", 0.35, 1.0, 8, 512, source="constant"),
        Op("nonlocal-permode-dir8", "nonlocal", 0.5, 1.0, 8, 512,
           source="per_mode"),
        Op("backward-const-dir4", "backward", 0.55, 1.0, 4, 512,
           source="constant"),
        Op("fwd-manufactured-dir4", "forward", 0.6, 1.0, 4, 512,
           source="manufactured"),
        Op("fwd-const-dir8-n1024", "forward", 0.65, 2.0, 8, 1024,
           source="constant"),
        Op("fwd-sampled-dir4", "forward", 0.7, 0.5, 4, 512, source="sampled"),
    ],
    # Property suites: thousands of small quadrature and adaptive_finite
    # calls, plus the L1 stepper at the oracle suite's step sizes for two of
    # its parameter sets (the full oracle suite runs 24 and takes ~50 s).
    "verify": [
        Op(f"suite-{name}", "verify", suite=name) for name in (
            "kernel-initial", "a-properties", "identities", "b-properties",
            "bounds", "laplace", "limit", "manufactured", "nonlocal",
            "backward", "coercivity", "residual")
    ] + [
        Op("oracle-rho0.3-lam1", "convergence", 0.3, 0.5, lam=1.0),
        Op("oracle-rho0.7-lam10", "convergence", 0.7, 2.0, lam=10.0),
    ],
}

# Untimed, on a (rho, gamma) no timed operation uses.
WARMUP = Op("warmup", "forward", 0.45, 1.5, 2, 128, source="constant")


def eigenvalues(op: Op) -> np.ndarray:
    if op.spectrum == "geometric":
        return np.geomspace(1.0, 1e6, op.n_modes)
    k = np.arange(1, op.n_modes + 1, dtype=float)
    return (k * math.pi / LENGTH) ** 2


def kernel_A(op: Op, rep: int, lam: float, ts) -> np.ndarray:
    values, _ = eval_A_grid(KernelParams(op.rho, op.gamma_at(rep), lam), ts,
                            CHECK_Q)
    values = values.copy()
    values[np.asarray(ts) == 0.0] = 1.0
    return values


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def generate(op: Op, seed: int, rep: int, index: int, out_dir: str) -> dict:
    """Write the operation's input files; return what the checks need."""
    os.makedirs(out_dir, exist_ok=True)
    if op.kind == "verify":
        return {}
    gamma = op.gamma_at(rep)
    if op.kind == "convergence":
        cfg = {"target": "kernel", "rho": op.rho, "gamma": gamma,
               "lambda": op.lam, "horizon": HORIZON, "dts": CONVERGENCE_DTS}
        _write(os.path.join(out_dir, "config.json"), json.dumps(cfg))
        return {}

    rng = np.random.default_rng([seed, rep, index])
    n = op.n_modes
    lam = eigenvalues(op)
    k = np.arange(1, n + 1, dtype=float)
    phi = rng.uniform(-1.0, 1.0, n) / k ** 2
    if op.source == "manufactured":
        phi = np.zeros(n)
    if op.source in ("constant", "sampled"):
        c = np.full(n, rng.uniform(0.5, 1.5))
    elif op.source == "per_mode":
        c = rng.uniform(-1.0, 1.0, n)
    else:
        c = np.zeros(n)

    if op.spectrum == "geometric":
        operator = {"kind": "explicit_spectrum", "eigenvalues": lam.tolist()}
    else:
        operator = {"kind": "dirichlet_laplacian_1d", "length": LENGTH,
                    "n_modes": n}
    cfg = {
        "problem": {"kind": op.kind, "rho": op.rho, "gamma": gamma,
                    "horizon": HORIZON, "time_grid": {"n_nodes": op.n_nodes}},
        "operator": operator,
        "output": {"trace_csv": "trace.csv",
                   "diagnostics_json": "diagnostics.json"},
    }
    if op.trace_json:
        cfg["output"]["trace_json"] = "trace.json"
    if op.grid_export:
        cfg["output"]["grid_csv"] = {"path": "grid.csv", "n_points": 65}

    if op.kind == "backward":
        # Terminal state of the known initial state phi, through the closed
        # form u_k(T) = A phi_k + c_k (1 - A) / lam_k.
        a_T = np.array([kernel_A(op, rep, float(lk), [HORIZON])[0]
                        for lk in lam])
        data = a_T * phi + c * (1.0 - a_T) / lam
    else:
        data = phi
    if op.data == "grid_csv":
        # Samples of sum_k phi_k v_k(x); the trapezoid projection on this
        # uniform grid recovers phi to rounding (discrete orthogonality).
        xs = np.linspace(0.0, LENGTH, 16 * n + 1)
        vals = np.sqrt(2.0 / LENGTH) * np.sin(np.outer(xs, k) * math.pi
                                               / LENGTH) @ data
        rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(),
                                                         vals.tolist()))
        _write(os.path.join(out_dir, "data.csv"), "x,value\n" + rows)
        cfg["data"] = {"csv": "data.csv"}
    else:
        cfg["data"] = {"coefficients": data.tolist()}

    if op.source == "constant":
        cfg["source"] = {"kind": "constant", "value": float(c[0])}
    if op.source == "per_mode":
        cfg["source"] = {"kind": "constant", "coefficients": c.tolist()}
    if op.source == "manufactured":
        cfg["source"] = {"kind": "manufactured_t2"}
    if op.source == "sampled":
        ts = np.linspace(0.0, HORIZON, 33)
        header = "t," + ",".join(f"f{j}" for j in range(1, n + 1))
        rows = "".join(f"{t!r}," + ",".join([repr(float(c[0]))] * n) + "\n"
                       for t in ts.tolist())
        _write(os.path.join(out_dir, "source.csv"), header + "\n" + rows)
        cfg["source"] = {"kind": "sampled_csv", "path": "source.csv"}
    _write(os.path.join(out_dir, "config.json"), json.dumps(cfg, indent=1))
    return {"phi": phi, "c": c, "lam": lam, "data": data}


def generate_pass(ops, seed: int, rep: int, root: str) -> list:
    """Inputs for one pass over the workload, one directory per operation."""
    return [generate(op, seed, rep, i, os.path.join(root, f"r{rep}-{i}"))
            for i, op in enumerate(ops)]


def run(op: Op, op_dir: str):
    """Issue the operation; return (exit code, what the entry point printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if op.kind == "verify":
            return 0, run_suites([op.suite])
        cfg = os.path.join(op_dir, "config.json")
        if op.kind == "convergence":
            code = cli.main(["convergence", "--config", cfg])
        else:
            code = cli.main(["solve", "--config", cfg, "--out-dir", op_dir])
    return code, out.getvalue()


def read_trace(path: str):
    """Parse the long-format `t,k,coefficient` CSV into (nodes, coefficients)."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_modes = int(raw[:, 1].max())
    raw = raw.reshape(-1, n_modes, 3)
    if not np.array_equal(raw[:, :, 1], np.broadcast_to(
            np.arange(1, n_modes + 1), raw.shape[:2])):
        raise ValueError("trace.csv rows are not node-major")
    return raw[:, 0, 0], raw[:, :, 2]


def check(op: Op, rep: int, code: int, output, expect: dict, op_dir: str):
    """Return None when the operation's outputs are correct, else a reason."""
    if code != 0:
        return f"exit code {code}: {str(output).strip()[:200]}"
    if op.kind == "verify":
        return None if output["passed"] is True else f"failed {output['failed']}"
    report = json.loads(output)
    if op.kind == "convergence":
        errs = report["errors"]
        if not errs[-1] <= TOL_ORACLE:
            return f"kernel-vs-l1 error {errs[-1]:.3e} > {TOL_ORACLE}"
        if not errs[0] > errs[1] > errs[2]:
            return f"error not monotone under halving: {errs}"
        return None

    nodes, u = read_trace(os.path.join(op_dir, "trace.csv"))
    with open(os.path.join(op_dir, "diagnostics.json")) as fh:
        json.load(fh)
    if op.trace_json:
        with open(os.path.join(op_dir, "trace.json")) as fh:
            if len(json.load(fh)["fields"]) != op.n_nodes:
                return "trace.json has the wrong node count"
    if op.grid_export:
        grid = np.loadtxt(os.path.join(op_dir, "grid.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        if grid.shape != (op.n_nodes * 65, 3) or not np.all(np.isfinite(grid)):
            return "grid.csv malformed"
    if u.shape != (op.n_nodes, op.n_modes) or not np.all(np.isfinite(u)):
        return f"trace shape {u.shape} or non-finite values"

    phi, c, lam, data = expect["phi"], expect["c"], expect["lam"], expect["data"]
    if op.kind == "nonlocal":
        gap = float(np.max(np.abs(u[-1] - u[0] - data)))
        return None if gap <= TOL_INCREMENT else f"increment gap {gap:.3e}"
    if op.kind == "backward":
        gap = float(np.max(np.abs(u[-1] - data)))
        if not gap <= TOL_TERMINAL:
            return f"terminal gap {gap:.3e}"
        err = float(np.max(np.abs(u[0] - phi)))
        return None if err <= TOL_RECOVERY else f"recovery error {err:.3e}"
    if op.source == "manufactured":
        err = float(np.max(np.abs(u - nodes[:, None] ** 2)))
        return None if err <= TOL_MANUFACTURED else f"t^2 error {err:.3e}"
    err0 = float(np.max(np.abs(u[0] - phi)))
    if not err0 <= TOL_INITIAL:
        return f"u(0) differs from the data by {err0:.3e}"
    n = op.n_modes
    for k in sorted({1, (n + 1) // 2, n}):
        a = kernel_A(op, rep, float(lam[k - 1]), nodes)
        ref = a * phi[k - 1] + c[k - 1] * (1.0 - a) / lam[k - 1]
        err = float(np.max(np.abs(u[:, k - 1] - ref)))
        if not err <= TOL_CLOSED_FORM:
            return f"mode {k} off the closed form by {err:.3e}"
    return None
