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

Forced modes integrate by parts with dA/dt = -lam B:
    (B * f)(t) = (f(t) - A(t) f(0) - int_0^t A(s) f'(t - s) ds) / lam,
with f' the slope of f over each cell of a uniform lattice on [0, T], so
only the A integrals of the cells enter: the trapezoid, but Gauss points on
the first NEAR_CELLS cells, the first halved GRADING_LEVELS times toward
t = 0, where A' is weakly singular.  One A evaluation per mode covers the
lattice, these points and the nodes.  A uniform grid's nodes lie on the
lattice and on its every-other-point sublattice, and the sum is one FFT
convolution on each; other grids sum directly up to each node.  The two
levels are Richardson-combined.  Sums over modes are fixed-order so reruns
are bit-identical.
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

from .kernel import (
    KernelParams,
    QuadratureConfig,
    eval_A_grid,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import _convolve, caputo_l1_trace
from .quadrature import QuadratureNonconvergence
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
LATTICE_MIN_CELLS = 4096  # fewest cells of the convolution lattice
NEAR_CELLS = 16  # lattice cells from t = 0 whose A integrals take Gauss points
GRADING_LEVELS = 16  # halvings of the first cell toward t = 0
GAUSS3_NODES, GAUSS3_WEIGHTS = np.polynomial.legendre.leggauss(3)
ROW_BLOCK = 64  # nodes per block of the direct lattice sum
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
# Lattice convolution


def _node_sums(lattice, integrals, antiderivative, f_mode, ts, f0):
    """sum_m I_m d_m of the lattice rule, direct, for nodes off the lattice.

    f is evaluated once on the lattice points below each node, in blocks of
    ROW_BLOCK nodes; each node's last cell ends at the node itself.
    """
    k = np.searchsorted(lattice, ts, side="left") - 1
    sums = np.zeros((2, ts.size))
    for i0 in range(1, ts.size, ROW_BLOCK):
        rows = slice(i0, i0 + ROW_BLOCK)
        t = ts[rows]
        cols = np.arange(k[rows][-1] + 1)
        below = cols <= k[rows, None]
        F = np.zeros(below.shape)
        F[below] = f_mode((t[:, None] - lattice[cols])[below])
        for level, step in enumerate((1, 2)):
            j = k[rows] // step * step
            diff = F[:, :-step:step] - F[:, step::step]
            diff[step * np.arange(diff.shape[1]) >= j[:, None]] = 0.0
            last = (antiderivative(t) - antiderivative(lattice[j])) * (
                F[np.arange(j.size), j] - f0) / (t - lattice[j])
            sums[level, rows] = (diff @ integrals[level][:diff.shape[1]]
                                 / (step * lattice[1]) + last)
    return sums


def _kernel_and_convolution(p: KernelParams, f_mode, ts: np.ndarray, q):
    """A(lam, .) with its error bounds and (B * f) on the nodes ts, ts[0] = 0.

    Also returns the largest Richardson correction as the convolution's
    error estimate.
    """
    T, n = ts[-1], ts.size
    uniform = np.allclose(ts, np.linspace(0.0, T, n), rtol=0.0, atol=1e-12 * T)
    unit = 2 * (n - 1) if uniform else 2
    cells = unit * -(-LATTICE_MIN_CELLS // unit)
    lattice = np.linspace(0.0, T, cells + 1)
    if uniform:
        lattice[::cells // (n - 1)] = ts
    h = lattice[1]
    knots = np.concatenate(([0.0], h * 0.5 ** np.arange(GRADING_LEVELS, 0, -1),
                            lattice[1:]))
    lo = knots[:GRADING_LEVELS + NEAR_CELLS, None]
    hi = knots[1:GRADING_LEVELS + NEAR_CELLS + 1, None]
    gauss = 0.5 * (lo + hi) + 0.5 * (hi - lo) * GAUSS3_NODES
    points = np.unique(np.concatenate((knots, ts, gauss.ravel())))
    values, errors = eval_A_grid(p, points, q)
    values[0] = 1.0

    def A(x):
        return values[np.searchsorted(points, x)]

    a_knots = A(knots)
    pieces = 0.5 * np.diff(knots) * (a_knots[:-1] + a_knots[1:])
    pieces[:lo.size] = 0.5 * (hi - lo)[:, 0] * (A(gauss) @ GAUSS3_WEIGHTS)
    phi = np.concatenate(([0.0], np.cumsum(pieces)))

    def antiderivative(x):  # int_0^x A: exact to the knot below, trapezoid on
        i = np.searchsorted(knots, x, side="right") - 1
        return phi[i] + 0.5 * (x - knots[i]) * (a_knots[i] + A(x))

    a_lat = A(lattice)
    fine_cells = np.diff(antiderivative(lattice))
    coarse_cells = h * (a_lat[:-2:2] + a_lat[2::2])
    coarse_cells[:NEAR_CELLS // 2] = fine_cells[:NEAR_CELLS].reshape(-1, 2).sum(1)
    f_ts = np.asarray(f_mode(ts), dtype=float)
    if uniform:
        f_lat = np.asarray(f_mode(lattice), dtype=float)
        sums = []
        for w, step in ((fine_cells, 1), (coarse_cells, 2)):
            slopes = np.diff(f_lat[::step]) / (step * h)
            sums.append(np.concatenate(([0.0], _convolve(w, slopes, w.size)))
                        [::cells // (n - 1) // step])
    else:
        sums = _node_sums(lattice, (fine_cells, coarse_cells), antiderivative,
                          f_mode, ts, f_ts[0])
    fine, coarse = ((f_ts - A(ts) * f_ts[0] - s) / p.lam for s in sums)
    return (A(ts), errors[np.searchsorted(points, ts)],
            (4.0 * fine - coarse) / 3.0, float(np.max(np.abs(fine - coarse))) / 3.0)


def convolve_B(p: KernelParams, f_mode: Callable[[np.ndarray], np.ndarray],
               t: float, q: QuadratureConfig | None = None) -> float:
    """Duhamel convolution int_0^t B(lam, t - tau) f(tau) dtau for one mode.

    f_mode must be vectorized on [0, t]; the result is bounded by
    max|f| / lam because the kernel integrates to less than 1 / lam.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    _, _, conv, _ = _kernel_and_convolution(p, f_mode, np.array([0.0, t]), q)
    return float(conv[-1])


# ---------------------------------------------------------------------------
# Shared mode assembly


def _assemble_modes(spec: ProblemSpec, q):
    """One kernel pass over the modes: the columns every solver combines.

    Returns A(lam_k, t_i) with the t = 0 identity pinned, the quadrature
    error bound of A(lam_k, T), the convolution (B *_t f_k)(t_i), which
    stays zero for a zero source, and the diagnostics of a forced solve.
    """
    ts = spec.time_grid
    n_modes = spec.operator.n_modes
    forced = not spec.source.is_zero
    a = np.empty((ts.size, n_modes))
    a_err_T = np.empty(n_modes)
    conv = np.zeros((ts.size, n_modes))
    conv_err = np.zeros(n_modes)
    for k in range(1, n_modes + 1):
        p = spec.params_for_mode(k)
        try:
            if forced:
                f_mode = spec.source.mode_function(k, p.lam)
                values, errors, conv[:, k - 1], conv_err[k - 1] = (
                    _kernel_and_convolution(p, f_mode, ts, q))
            else:
                values, errors = eval_A_grid(p, ts, q)
        except QuadratureNonconvergence as exc:
            raise SolverError(f"mode {k}: kernel quadrature did not converge") from exc
        a[:, k - 1] = values
        a_err_T[k - 1] = errors[-1]
    a[0] = 1.0  # ProblemSpec guarantees the grid starts at t = 0
    notes = {"convolution_error_estimate": conv_err.tolist()} if forced else {}
    return a, a_err_T, conv, notes


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
    a, _, conv, notes = _assemble_modes(spec, q)
    return _finish(spec, a * spec.data.coefficients + conv, q, **notes)


def solve_auxiliary_W(psi: CoefficientField, rho: float, gamma: float,
                      horizon: float, time_grid=None,
                      q: QuadratureConfig | None = None) -> SolutionTrace:
    """Homogeneous solution with the non-local increment W(T) - W(0) = psi.

    W_k(t) = psi_k A(lam_k, t) / (A(lam_k, T) - 1); the denominators are
    uniformly negative since A < 1 for t > 0.
    """
    spec = ProblemSpec("nonlocal", psi.operator, rho, gamma, horizon, psi,
                       ZeroSource(), time_grid)
    a, _, _, _ = _assemble_modes(spec, q)
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
    a, _, conv, notes = _assemble_modes(spec, q)
    psi = spec.data.coefficients - conv[-1]
    coeffs = _homogeneous_nonlocal(spec, a, psi, q) + conv
    gap = np.max(np.abs(coeffs[-1] - coeffs[0] - spec.data.coefficients))
    return _finish(
        spec, coeffs, q, **notes, nonlocal_gap=float(gap),
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
    a, a_err_T, conv, notes = _assemble_modes(spec, q)
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
        spec, coeffs, q, **notes,
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
