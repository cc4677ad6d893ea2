"""Mode-wise solvers for the forward, non-local, and backward problems.

Spectral decoupling reduces each problem to independent scalar modes: the
forward solution is A(lam_k, t) phi_k plus a weakly singular convolution of
B(lam_k, .) against the mode source, the non-local problem (terminal state
equals initial state plus a prescribed increment) splits into a forced
zero-start part V and a homogeneous non-local part W, and the backward
problem divides by A(lam_k, T), which stays uniformly away from zero.

Every solve makes one assembly pass over the modes: A(lam_k, .) on the
trace grid (with its error bound at T) and the B-convolution column of the
source, each evaluated once per mode.  The three solvers, and the W part on
its own, are array algebra on those columns: forward a phi + conv, non-local
W(data - conv(T)) + conv, backward (psi - conv(T)) / a(T).  One finishing
step then attaches the residual and the coercivity report, once per solve.

Convolutions use product integration on a mesh graded toward the kernel's
weak singularity, with kernel values taken from a monotone interpolant of
batched quadrature evaluations; sums over modes are fixed-order so repeated
runs are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .kernel import (
    KernelParams,
    QuadratureConfig,
    eval_A_grid,
    eval_B_grid,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import caputo_l1_trace
from .quadrature import GAUSS7_NODES, GAUSS7_WEIGHTS, QuadratureNonconvergence
from .spectral import CoefficientField, SpectralOperator, tail_indicator

__all__ = [
    "ProblemSpec",
    "SolutionTrace",
    "Source",
    "ZeroSource",
    "ConstantSource",
    "SeparableSource",
    "PerModeSource",
    "SampledSource",
    "manufactured_quadratic_source",
    "SolverError",
    "KernelAccuracyError",
    "GridTooCoarseError",
    "convolve_B",
    "solve_forward",
    "solve_auxiliary_W",
    "solve_nonlocal",
    "solve_backward",
    "residual",
    "coercivity_report",
    "export_trace_csv",
    "export_trace_json",
    "export_trace_grid_csv",
    "uniform_grid",
]

PROBLEM_KINDS = ("forward", "nonlocal", "backward")
CONVOLUTION_CELLS = 384
MIN_INTERIOR_NODES = 64


class SolverError(RuntimeError):
    """A mode-level solve failed; the message names the mode."""


class KernelAccuracyError(SolverError):
    """Kernel error bound too large for a stable backward division."""


class GridTooCoarseError(ValueError):
    """Trace grid too coarse for finite-difference diagnostics."""


# ---------------------------------------------------------------------------
# Sources


class Source:
    """Per-mode time-dependent forcing; subclasses define mode_function."""

    def mode_function(self, k: int, lam: float) -> Callable[[np.ndarray], np.ndarray]:
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False


class ZeroSource(Source):
    def mode_function(self, k, lam):
        return lambda tau: np.zeros_like(np.asarray(tau, dtype=float))

    @property
    def is_zero(self):
        return True


class ConstantSource(Source):
    """Time-constant forcing; scalar value broadcast to all modes, or per-mode."""

    def __init__(self, values):
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        self.values = arr

    def coefficient(self, k: int) -> float:
        if self.values.size == 1:
            return float(self.values[0])
        return float(self.values[k - 1])

    def mode_function(self, k, lam):
        c = self.coefficient(k)
        return lambda tau: np.full_like(np.asarray(tau, dtype=float), c)


class SeparableSource(Source):
    """f_k(t) = g(t) * field_k for a scalar time profile g."""

    def __init__(self, time_profile: Callable[[np.ndarray], np.ndarray],
                 field: CoefficientField):
        self.time_profile = time_profile
        self.field = field

    def mode_function(self, k, lam):
        c = float(self.field.coefficients[k - 1])
        g = self.time_profile
        return lambda tau: c * np.asarray(g(np.asarray(tau, dtype=float)),
                                          dtype=float)


class PerModeSource(Source):
    """General per-mode callable f(k, lam, tau_array) -> array."""

    def __init__(self, fn: Callable[[int, float, np.ndarray], np.ndarray]):
        self.fn = fn

    def mode_function(self, k, lam):
        fn = self.fn
        return lambda tau: np.asarray(fn(k, lam, np.asarray(tau, dtype=float)),
                                      dtype=float)


class SampledSource(Source):
    """Per-mode time series, linearly interpolated between samples."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if self.values.ndim != 2 or self.values.shape[0] != self.times.size:
            raise ValueError("values must be (n_times, n_modes)")

    def mode_function(self, k, lam):
        col = self.values[:, k - 1]
        times = self.times
        return lambda tau: np.interp(np.asarray(tau, dtype=float), times, col)


def manufactured_quadratic_source(op: SpectralOperator, rho: float,
                                  gamma: float) -> PerModeSource:
    """Forcing whose exact mode response from zero data is t^2.

    Substituting y = t^2 into the scalar equation gives
    f(t) = 2 t + lam t^2 + 2 lam gamma t^(2-rho) / Gamma(3-rho).
    """
    coef = 2.0 * gamma / math.gamma(3.0 - rho)

    def fn(k, lam, tau):
        return 2.0 * tau + lam * tau ** 2 + lam * coef * tau ** (2.0 - rho)

    return PerModeSource(fn)


# ---------------------------------------------------------------------------
# Problem description and solution container


def uniform_grid(horizon: float, n_nodes: int = 512) -> np.ndarray:
    """Uniform time grid over [0, horizon] with the given node count."""
    if n_nodes < 2:
        raise ValueError("need at least two time nodes")
    return np.linspace(0.0, horizon, n_nodes)


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of one solve.

    data is the initial state for the forward problem, the prescribed
    increment u(T) - u(0) for the non-local problem, and the terminal state
    for the backward problem.
    """

    kind: str
    operator: SpectralOperator
    rho: float
    gamma: float
    horizon: float
    data: CoefficientField
    source: Source = dc_field(default_factory=ZeroSource)
    time_grid: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"kind must be one of {PROBLEM_KINDS}")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie strictly inside (0, 1)")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.data.operator is not self.operator:
            raise ValueError("data field must live on the problem operator")
        grid = self.time_grid
        if grid is None:
            grid = uniform_grid(self.horizon)
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if grid[0] != 0.0 or not math.isclose(grid[-1], self.horizon,
                                              rel_tol=0.0, abs_tol=0.0):
            raise ValueError("time grid must start at 0 and end at the horizon")
        object.__setattr__(self, "time_grid", grid)

    def params_for_mode(self, k: int) -> KernelParams:
        return KernelParams(self.rho, self.gamma,
                            float(self.operator.eigenvalues[k - 1]))


@dataclass
class SolutionTrace:
    """Per-node coefficient fields plus derived diagnostics."""

    nodes: np.ndarray
    coefficients: np.ndarray  # (n_nodes, n_modes)
    operator: SpectralOperator
    diagnostics: dict

    def field_at(self, i: int) -> CoefficientField:
        return CoefficientField(self.coefficients[i].copy(), self.operator)

    @property
    def n_modes(self) -> int:
        return self.coefficients.shape[1]


# ---------------------------------------------------------------------------
# Kernel curves and convolution


class _KernelCurve:
    """B(lam, .) over (0, u_max] as a monotone interpolant in log time.

    Built from one batched quadrature evaluation on a geometric grid; the
    clamp below the grid floor is safe because the mass of any convolution
    cell below the floor is bounded by the floor itself.
    """

    def __init__(self, p: KernelParams, u_max: float,
                 q: QuadratureConfig | None, n_samples: int = 2048):
        self.u_floor = u_max * 1e-14
        grid = np.geomspace(self.u_floor, u_max, n_samples)
        values, errors = eval_B_grid(p, grid, q)
        self.u_max = u_max
        self.max_quadrature_error = float(np.max(errors))
        self._interp = PchipInterpolator(np.log(grid), values, extrapolate=False)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        uu = np.clip(np.asarray(u, dtype=float), self.u_floor, self.u_max)
        return self._interp(np.log(uu))


def _product_mesh(rho: float, cells: int):
    """Unit-interval Gauss nodes/weights on a mesh graded toward zero.

    Graded cell boundaries absorb the kernel's weakly singular derivative
    at the convolution endpoint.  The exponent floor of 3 matters for rho
    near 1, where the kernel's 1 - c*u^(1-rho) layer is steeper than the
    u^(rho-1) envelope alone suggests.
    """
    bounds = (np.arange(cells + 1) / cells) ** max(1.0 / rho, 3.0)
    lo, hi = bounds[:-1], bounds[1:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * GAUSS7_NODES
    weights = half[:, None] * GAUSS7_WEIGHTS
    return nodes.ravel(), weights.ravel()


def _mode_convolution(curve: _KernelCurve, f_mode, ts: np.ndarray,
                      rho: float, cells: int = CONVOLUTION_CELLS) -> np.ndarray:
    """int_0^t B(u) f(t - u) du for every trace node t, shared unit mesh."""
    v_nodes, v_weights = _product_mesh(rho, cells)
    out = np.zeros(ts.shape)
    positive = ts > 0.0
    tpos = ts[positive]
    if tpos.size:
        u = np.outer(tpos, v_nodes)
        tau = np.outer(tpos, 1.0 - v_nodes)
        b_vals = curve(u.ravel()).reshape(u.shape)
        f_vals = np.asarray(f_mode(tau.ravel()), dtype=float).reshape(tau.shape)
        out[positive] = tpos * ((b_vals * f_vals) @ v_weights)
    return out


def convolve_B(p: KernelParams, f_mode: Callable[[np.ndarray], np.ndarray],
               t: float, q: QuadratureConfig | None = None,
               cells: int = CONVOLUTION_CELLS) -> float:
    """Duhamel convolution int_0^t B(lam, t - tau) f(tau) dtau for one mode.

    f_mode must be vectorized on [0, t]; the result is bounded by
    max|f| / lam because the kernel integrates to less than 1 / lam.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    curve = _KernelCurve(p, t, q)
    return float(_mode_convolution(curve, f_mode, np.array([t]), p.rho, cells)[0])


# ---------------------------------------------------------------------------
# Shared mode assembly


def _assemble_modes(spec: ProblemSpec, q):
    """One kernel pass over the modes: the columns every solver combines.

    Returns A(lam_k, t_i) with the t = 0 identity pinned, the quadrature
    error bound of A(lam_k, T), and the convolution (B *_t f_k)(t_i), which
    stays zero for a zero source.
    """
    ts = spec.time_grid
    n_modes = spec.operator.n_modes
    a = np.empty((ts.size, n_modes))
    a_err_T = np.empty(n_modes)
    conv = np.zeros((ts.size, n_modes))
    for k in range(1, n_modes + 1):
        p = spec.params_for_mode(k)
        try:
            values, errors = eval_A_grid(p, ts, q)
        except QuadratureNonconvergence as exc:
            raise SolverError(f"mode {k}: kernel quadrature did not converge") from exc
        a[:, k - 1] = values
        a_err_T[k - 1] = errors[-1]
        if spec.source.is_zero:
            continue
        f_mode = spec.source.mode_function(k, p.lam)
        try:
            curve = _KernelCurve(p, spec.horizon, q)
            conv[:, k - 1] = _mode_convolution(curve, f_mode, ts, spec.rho)
        except QuadratureNonconvergence as exc:
            raise SolverError(
                f"mode {k}: convolution kernel quadrature did not converge"
            ) from exc
    a[0] = 1.0  # ProblemSpec guarantees the grid starts at t = 0
    return a, a_err_T, conv


def _homogeneous_nonlocal(spec: ProblemSpec, a: np.ndarray, psi: np.ndarray,
                          q) -> np.ndarray:
    """W_k(t) = psi_k A(lam_k, t) / (A(lam_k, T) - 1) from the A columns.

    The denominators are uniformly negative since A < 1 for t > 0; one under
    half the guaranteed deviation bound means the kernel quadrature is off.
    """
    denom = a[-1] - 1.0
    c_b = lower_bound_B(spec.rho, spec.gamma, float(spec.operator.eigenvalues[0]),
                        spec.horizon, q)
    for k in np.flatnonzero(np.abs(denom) < 0.5 * c_b * spec.horizon) + 1:
        warnings.warn(
            f"mode {k}: |A(T) - 1| = {abs(denom[k - 1]):.3e} under half the "
            "guaranteed deviation bound; kernel quadrature is suspect",
            stacklevel=3,
        )
    return psi * a / denom


def _finish(spec: ProblemSpec, coefficients: np.ndarray, q,
            **extra) -> SolutionTrace:
    """Wrap the coefficients in a trace and attach its diagnostics.

    Norms, the solver's own entries, then one residual and one coercivity
    report (None on grids too coarse for them).
    """
    lam = spec.operator.eigenvalues
    diagnostics = {
        "norm_H": np.sqrt(np.sum(coefficients ** 2, axis=1)).tolist(),
        "norm_A": np.sqrt(np.sum((coefficients * lam) ** 2, axis=1)).tolist(),
        "data_tail_indicator": tail_indicator(spec.data),
        **extra,
    }
    trace = SolutionTrace(spec.time_grid.copy(), coefficients, spec.operator,
                          diagnostics)
    if trace.nodes.size - 2 < MIN_INTERIOR_NODES:
        diagnostics.update(residual_max_interior=None, coercivity=None)
        return trace
    t_int, res = residual(trace, spec, q)
    rep = coercivity_report(trace, spec)
    diagnostics.update(
        residual_max_interior=float(np.max(res[t_int >= spec.horizon / 32.0])),
        interior_t=t_int.tolist(),
        residual_norm=res.tolist(),
        norm_dt_u=rep["norm_dt_u"].tolist(),
        norm_A_caputo_u=rep["norm_A_caputo_u"].tolist(),
        coercivity={key: values.tolist() for key, values in rep.items()},
    )
    return trace


# ---------------------------------------------------------------------------
# Solvers


def solve_forward(spec: ProblemSpec, q: QuadratureConfig | None = None) -> SolutionTrace:
    """Series solution u_k(t) = A(lam_k, t) phi_k + (B *_t f_k)(t)."""
    if spec.kind != "forward":
        raise ValueError("spec.kind must be 'forward'")
    a, _, conv = _assemble_modes(spec, q)
    return _finish(spec, a * spec.data.coefficients + conv, q)


def solve_auxiliary_W(psi: CoefficientField, rho: float, gamma: float,
                      horizon: float, time_grid=None,
                      q: QuadratureConfig | None = None) -> SolutionTrace:
    """Homogeneous solution with the non-local increment W(T) - W(0) = psi.

    W_k(t) = psi_k A(lam_k, t) / (A(lam_k, T) - 1); the denominators are
    uniformly negative since A < 1 for t > 0.
    """
    spec = ProblemSpec("nonlocal", psi.operator, rho, gamma, horizon, psi,
                       ZeroSource(), time_grid)
    a, _, _ = _assemble_modes(spec, q)
    coeffs = _homogeneous_nonlocal(spec, a, psi.coefficients, q)
    gap = np.max(np.abs(coeffs[-1] - coeffs[0] - psi.coefficients))
    return _finish(spec, coeffs, q, increment_gap=float(gap))


def solve_nonlocal(spec: ProblemSpec, q: QuadratureConfig | None = None) -> SolutionTrace:
    """Solve u(T) = u(0) + data as V + W.

    V = B * f is the forced part from zero data; W is the homogeneous part
    with increment data - V(T).  Both come from the same kernel columns.
    """
    if spec.kind != "nonlocal":
        raise ValueError("spec.kind must be 'nonlocal'")
    a, _, conv = _assemble_modes(spec, q)
    psi = spec.data.coefficients - conv[-1]
    coeffs = _homogeneous_nonlocal(spec, a, psi, q) + conv
    gap = np.max(np.abs(coeffs[-1] - coeffs[0] - spec.data.coefficients))
    return _finish(
        spec, coeffs, q, nonlocal_gap=float(gap),
        psi_tail_indicator=tail_indicator(CoefficientField(psi, spec.operator)),
    )


def solve_backward(spec: ProblemSpec, q: QuadratureConfig | None = None) -> SolutionTrace:
    """Recover the evolution from the terminal state u(T) = data.

    The initial coefficients are (psi_k - (B * f_k)(T)) / A(lam_k, T); the
    division is uniformly stable because A(lam, T) is bounded below in lam.
    The solve fails loudly when the kernel error bound at T exceeds half
    that lower bound.
    """
    if spec.kind != "backward":
        raise ValueError("spec.kind must be 'backward'")
    c_a = lower_bound_A(spec.rho, spec.gamma, float(spec.operator.eigenvalues[0]),
                        spec.horizon, q)
    a, a_err_T, conv = _assemble_modes(spec, q)
    suspect = np.flatnonzero(a_err_T > 0.5 * c_a)
    if suspect.size:
        k = int(suspect[0]) + 1
        raise KernelAccuracyError(
            f"mode {k}: kernel error bound {a_err_T[k - 1]:.3e} at the horizon "
            f"exceeds half the guaranteed lower bound {c_a:.3e}"
        )
    psi = spec.data.coefficients
    phi = (psi - conv[-1]) / a[-1]
    coeffs = a * phi + conv
    return _finish(
        spec, coeffs, q,
        terminal_gap=float(np.max(np.abs(coeffs[-1] - psi))),
        lower_bound_A=c_a,
        recovered_initial_norm=float(np.linalg.norm(phi)),
        stability_bound=float(np.linalg.norm(psi - conv[-1]) / c_a),
    )


# ---------------------------------------------------------------------------
# Diagnostics


def _central_derivative(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order three-point derivative at interior nodes (nonuniform)."""
    h1 = (nodes[1:-1] - nodes[:-2])[:, None]
    h2 = (nodes[2:] - nodes[1:-1])[:, None]
    f0, f1, f2 = values[:-2], values[1:-1], values[2:]
    return (-h2 / (h1 * (h1 + h2)) * f0
            + (h2 - h1) / (h1 * h2) * f1
            + h1 / (h2 * (h1 + h2)) * f2)


def _source_matrix(spec: ProblemSpec, nodes: np.ndarray) -> np.ndarray:
    out = np.zeros((nodes.size, spec.operator.n_modes))
    if spec.source.is_zero:
        return out
    for k in range(1, spec.operator.n_modes + 1):
        f_mode = spec.source.mode_function(
            k, float(spec.operator.eigenvalues[k - 1]))
        out[:, k - 1] = f_mode(nodes)
    return out


def residual(trace: SolutionTrace, spec: ProblemSpec,
             q: QuadratureConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Equation residual norm per interior node.

    Computes || D_t u + A u + gamma A D_t^rho u - f || with the classical
    derivative by central differences and the fractional derivative by the
    L1 rule applied to the trace itself, so the check is independent of the
    kernel quadrature that produced the trace.
    """
    nodes = trace.nodes
    if nodes.size - 2 < MIN_INTERIOR_NODES:
        raise GridTooCoarseError(
            f"residual needs >= {MIN_INTERIOR_NODES} interior nodes, "
            f"got {nodes.size - 2}"
        )
    lam = trace.operator.eigenvalues[None, :]
    u = trace.coefficients
    du = _central_derivative(nodes, u)
    dru = caputo_l1_trace(nodes, u, spec.rho)[1:-1]
    f = _source_matrix(spec, nodes)[1:-1]
    res = du + lam * u[1:-1] + spec.gamma * lam * dru - f
    return nodes[1:-1], np.sqrt(np.sum(res ** 2, axis=1))


def coercivity_report(trace: SolutionTrace, spec: ProblemSpec) -> dict:
    """Per-node norms entering the regularity estimates.

    Reports t, ||D_t u||, ||A u||, ||A D_t^rho u|| and the damped quantity
    t^(1-rho) ||D_t u|| on interior nodes; the fractional term is recovered
    from the equation itself (residual identity), keeping it independent of
    the kernel quadrature.
    """
    nodes = trace.nodes
    if nodes.size - 2 < MIN_INTERIOR_NODES:
        raise GridTooCoarseError(
            f"coercivity report needs >= {MIN_INTERIOR_NODES} interior nodes, "
            f"got {nodes.size - 2}"
        )
    lam = trace.operator.eigenvalues[None, :]
    u = trace.coefficients
    t = nodes[1:-1]
    du = _central_derivative(nodes, u)
    au = lam * u[1:-1]
    f = _source_matrix(spec, nodes)[1:-1]
    adru = (f - du - au) / spec.gamma
    norm_du = np.sqrt(np.sum(du ** 2, axis=1))
    return {
        "t": t,
        "norm_dt_u": norm_du,
        "norm_A_u": np.sqrt(np.sum(au ** 2, axis=1)),
        "norm_A_caputo_u": np.sqrt(np.sum(adru ** 2, axis=1)),
        "weighted_norm_dt_u": t ** (1.0 - spec.rho) * norm_du,
    }


# ---------------------------------------------------------------------------
# Exports


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_trace_csv(trace: SolutionTrace, path: str) -> None:
    """Long-format CSV `t,k,coefficient` with round-trip-safe formatting."""
    lines = ["t,k,coefficient"]
    for i, t in enumerate(trace.nodes):
        for k in range(1, trace.n_modes + 1):
            lines.append(f"{t:.17g},{k},{trace.coefficients[i, k - 1]:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")


def export_trace_json(trace: SolutionTrace, path: str) -> None:
    payload = {
        "nodes": [float(t) for t in trace.nodes],
        "eigenvalues": [float(v) for v in trace.operator.eigenvalues],
        "fields": [[float(c) for c in row] for row in trace.coefficients],
        "diagnostics": trace.diagnostics,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def export_trace_grid_csv(trace: SolutionTrace, x, path: str) -> None:
    """Grid-sampled CSV `t,x,u`; requires an operator with eigenfunctions."""
    from .spectral import synthesize

    xs = np.asarray(x, dtype=float)
    lines = ["t,x,u"]
    for i, t in enumerate(trace.nodes):
        u = synthesize(trace.field_at(i), xs)
        for xv, uv in zip(xs, u):
            lines.append(f"{t:.17g},{xv:.17g},{uv:.17g}")
    _atomic_write(path, "\n".join(lines) + "\n")
