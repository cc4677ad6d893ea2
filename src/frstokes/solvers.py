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

A source is None (zero forcing) or one callable f(t) giving every mode's
value at the times t, shaped t.shape + (n_modes,): constant_source,
sampled_source and manufactured_quadratic_source build them.  The point
sets the solver reads it on (nodes, lattice, node-minus-lattice times) do
not depend on the mode, so it is sampled once per point set for all modes.

Forced modes integrate by parts with dA/dt = -lam B:
    (B * f)(t) = (f(t) - A(t) f(0) - int_0^t A(s) f'(t - s) ds) / lam,
with f' the slope of f over each cell of a uniform lattice on [0, T], so
only the A integrals of the cells enter: the trapezoid, but Gauss points on
the first NEAR_CELLS cells, the first halved GRADING_LEVELS times toward
t = 0, where A' is weakly singular.  One A evaluation per mode covers the
lattice, these points and the nodes; the lattice is built once per solve.
A uniform grid's nodes lie on the lattice and on its every-other-point
sublattice, and the sum on each is one FFT convolution along the time axis
for all modes; other grids sum directly up to each node.  The two levels
are Richardson-combined.  Sums over modes are fixed-order so reruns are
bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
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
    "constant_source",
    "sampled_source",
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
BLOCK_PAIRS = 64  # node-mode pairs per block of the direct lattice sum
MIN_INTERIOR_NODES = 64


class SolverError(RuntimeError):
    """A mode-level solve failed; the message names the mode."""


class KernelAccuracyError(SolverError):
    """Kernel error bound too large for a stable backward division."""


class GridTooCoarseError(ValueError):
    """Trace grid too coarse for finite-difference diagnostics."""


# ---------------------------------------------------------------------------
# Sources


def constant_source(values) -> Callable[[np.ndarray], np.ndarray]:
    """Time-constant forcing: one value for every mode, or one per mode."""
    c = np.atleast_1d(np.asarray(values, dtype=float))
    return lambda t: np.broadcast_to(c, np.shape(t) + c.shape)


def sampled_source(times, values) -> Callable[[np.ndarray], np.ndarray]:
    """Per-mode time series values[i, k - 1] at times[i], linear in between."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    if values.ndim != 2 or values.shape[0] != times.size:
        raise ValueError("values must be (n_times, n_modes)")

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + values.shape[1:])
        for k, column in enumerate(values.T):
            out[..., k] = np.interp(t, times, column)
        return out

    return f


def manufactured_quadratic_source(op: SpectralOperator, rho: float,
                                  gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """Forcing whose exact mode response from zero data is t^2.

    Substituting y = t^2 into the scalar equation gives
    f(t) = 2 t + lam t^2 + 2 lam gamma t^(2-rho) / Gamma(3-rho).
    """
    coef = 2.0 * gamma / math.gamma(3.0 - rho)
    lam = op.eigenvalues

    def f(t):
        t = np.asarray(t, dtype=float)[..., None]
        return 2.0 * t + lam * t ** 2 + lam * coef * t ** (2.0 - rho)

    return f


def _sample(source, n_modes: int, t: np.ndarray) -> np.ndarray:
    """The source at times t as a (t.shape + (n_modes,)) array; zero for None."""
    shape = np.shape(t) + (n_modes,)
    if source is None:
        return np.zeros(shape)
    values = np.asarray(source(t), dtype=float)
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"source values of shape {values.shape} do not "
                         f"broadcast to {shape}") from None


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
    for the backward problem.  source is None (zero forcing) or a callable
    whose values on the time grid broadcast to (n_nodes, n_modes); one
    sample on the grid checks that at construction.
    """

    kind: str
    operator: SpectralOperator
    rho: float
    gamma: float
    horizon: float
    data: CoefficientField
    source: Callable[[np.ndarray], np.ndarray] | None = None
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
        if self.source is not None:
            _sample(self.source, self.operator.n_modes, grid)

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


class _Lattice:
    """The convolution lattice of the nodes ts (ts[0] = 0), built once per
    solve, and the A cell integrals of each mode on it.

    add_mode makes a mode's one A evaluation, on the union of the lattice,
    the Gauss points of the near cells and the nodes.  convolution then
    samples the source once per point set for every mode at once.
    """

    def __init__(self, ts: np.ndarray, n_modes: int):
        T, n = ts[-1], ts.size
        self.ts = ts
        self.uniform = np.allclose(ts, np.linspace(0.0, T, n), rtol=0.0,
                                   atol=1e-12 * T)
        unit = 2 * (n - 1) if self.uniform else 2
        cells = unit * -(-LATTICE_MIN_CELLS // unit)
        self.lattice = np.linspace(0.0, T, cells + 1)
        if self.uniform:
            self.lattice[::cells // (n - 1)] = ts
        h = self.lattice[1]
        self.knots = np.concatenate(
            ([0.0], h * 0.5 ** np.arange(GRADING_LEVELS, 0, -1), self.lattice[1:]))
        lo = self.knots[:GRADING_LEVELS + NEAR_CELLS, None]
        hi = self.knots[1:GRADING_LEVELS + NEAR_CELLS + 1, None]
        self.gauss = 0.5 * (lo + hi) + 0.5 * (hi - lo) * GAUSS3_NODES
        self.gauss_halves = 0.5 * (hi - lo)[:, 0]
        self.points = np.unique(np.concatenate((self.knots, ts, self.gauss.ravel())))
        self.cell_integrals = (np.empty((n_modes, cells)),
                               np.empty((n_modes, cells // 2)))
        if not self.uniform:
            # each node's last lattice point below it, on both levels, and
            # int A over the partial cell from there to the node
            below = np.searchsorted(self.lattice, ts, side="left") - 1
            self.last = (below, below // 2 * 2)
            self.tails = np.empty((2, n, n_modes))

    def add_mode(self, m: int, p: KernelParams, q):
        """A(lam, .) and its error bounds at the nodes; stores mode m's cells."""
        points, knots = self.points, self.knots
        values, errors = eval_A_grid(p, points, q)
        values[0] = 1.0

        def A(x):
            return values[np.searchsorted(points, x)]

        a_knots = A(knots)
        pieces = 0.5 * np.diff(knots) * (a_knots[:-1] + a_knots[1:])
        halves = self.gauss_halves
        pieces[:halves.size] = halves * (A(self.gauss) @ GAUSS3_WEIGHTS)
        phi = np.concatenate(([0.0], np.cumsum(pieces)))

        def antiderivative(x):  # int_0^x A: exact to the knot below, trapezoid on
            i = np.searchsorted(knots, x, side="right") - 1
            return phi[i] + 0.5 * (x - knots[i]) * (a_knots[i] + A(x))

        lattice = self.lattice
        a_lat = A(lattice)
        fine, coarse = self.cell_integrals
        fine[m] = np.diff(antiderivative(lattice))
        coarse[m] = lattice[1] * (a_lat[:-2:2] + a_lat[2::2])
        coarse[m, :NEAR_CELLS // 2] = fine[m, :NEAR_CELLS].reshape(-1, 2).sum(1)
        if not self.uniform:
            for level, j in enumerate(self.last):
                self.tails[level, :, m] = (antiderivative(self.ts)
                                           - antiderivative(lattice[j]))
        return A(self.ts), errors[np.searchsorted(points, self.ts)]

    def convolution(self, sample, a: np.ndarray, lam: np.ndarray):
        """(B * f_k)(t_i) of every mode, from the source sampler sample(t).

        a holds A(lam_k, t_i).  Also returns each mode's largest Richardson
        correction as its error estimate.
        """
        ts, h = self.ts, self.lattice[1]
        f_ts = sample(ts)
        sums = np.zeros((2,) + a.shape)
        if self.uniform:
            f_lat = sample(self.lattice)
            stride = (self.lattice.size - 1) // (ts.size - 1)
            for level, step in enumerate((1, 2)):
                w = self.cell_integrals[level].T
                slopes = np.diff(f_lat[::step], axis=0) / (step * h)
                sums[level, 1:] = _convolve(w, slopes, len(w))[
                    stride // step - 1::stride // step]
        else:
            self._node_sums(sample, f_ts[0], sums)
        fine, coarse = ((f_ts - a * f_ts[0] - s) / lam for s in sums)
        return (4.0 * fine - coarse) / 3.0, np.max(np.abs(fine - coarse), axis=0) / 3.0

    def _node_sums(self, sample, f0, sums):
        """sum_m I_m d_m of the lattice rule, direct, for nodes off the lattice.

        The source is sampled once per block of nodes, on the lattice points
        below each node, for all modes; a block holds BLOCK_PAIRS node-mode
        pairs.  Each node's last cell ends at the node itself.
        """
        ts, lattice = self.ts, self.lattice
        n_modes = f0.size
        size = max(1, BLOCK_PAIRS // n_modes)
        for i0 in range(1, ts.size, size):
            rows = slice(i0, i0 + size)
            t = ts[rows]
            cols = np.arange(self.last[0][rows][-1] + 1)
            below = cols <= self.last[0][rows, None]
            F = np.zeros((n_modes,) + below.shape)
            F[:, below] = sample((t[:, None] - lattice[cols])[below]).T
            for level, step in enumerate((1, 2)):
                j = self.last[level][rows]
                diff = F[:, :, :-step:step] - F[:, :, step::step]
                diff[:, step * np.arange(diff.shape[2]) >= j[:, None]] = 0.0
                last = self.tails[level, rows] * (
                    F[:, np.arange(j.size), j].T - f0) / (t - lattice[j])[:, None]
                w = self.cell_integrals[level][:, :diff.shape[2], None]
                dot = np.matmul(diff, w)[..., 0]
                sums[level, rows] = dot.T / (step * lattice[1]) + last


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
    lattice = _Lattice(np.array([0.0, t]), 1)
    a, _ = lattice.add_mode(0, p, q)
    conv, _ = lattice.convolution(
        lambda x: np.asarray(f_mode(x), dtype=float)[..., None], a[:, None],
        np.array([p.lam]))
    return float(conv[-1, 0])


# ---------------------------------------------------------------------------
# Shared mode assembly


def _assemble_modes(spec: ProblemSpec, q):
    """One kernel pass over the modes: the columns every solver combines.

    Returns A(lam_k, t_i) with the t = 0 identity pinned, the quadrature
    error bound of A(lam_k, T), the convolution (B *_t f_k)(t_i), which
    stays zero for a zero source, and the diagnostics of a forced solve.
    """
    ts = spec.time_grid
    lam = spec.operator.eigenvalues
    forced = spec.source is not None
    lattice = _Lattice(ts, lam.size) if forced else None
    a = np.empty((ts.size, lam.size))
    a_err_T = np.empty(lam.size)
    for k in range(1, lam.size + 1):
        p = spec.params_for_mode(k)
        try:
            values, errors = (lattice.add_mode(k - 1, p, q) if forced
                              else eval_A_grid(p, ts, q))
        except QuadratureNonconvergence as exc:
            raise SolverError(f"mode {k}: kernel quadrature did not converge") from exc
        a[:, k - 1] = values
        a_err_T[k - 1] = errors[-1]
    a[0] = 1.0  # ProblemSpec guarantees the grid starts at t = 0
    if not forced:
        return a, a_err_T, np.zeros_like(a), {}
    conv, conv_err = lattice.convolution(
        lambda t: _sample(spec.source, lam.size, t), a, lam)
    return a, a_err_T, conv, {"convolution_error_estimate": conv_err.tolist()}


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
                       None, time_grid)
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
    f = _sample(spec.source, spec.operator.n_modes, nodes)[1:-1]
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
    f = _sample(spec.source, spec.operator.n_modes, nodes)[1:-1]
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
