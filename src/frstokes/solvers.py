"""Mode-wise solvers for the forward, non-local, and backward problems.

Spectral decoupling reduces each problem to independent scalar modes: the
forward solution is A(lam_k, t) phi_k plus a weakly singular convolution of
B(lam_k, .) against the mode source, the non-local problem (terminal state
equals initial state plus a prescribed increment) splits into a forced
zero-start part V and a homogeneous non-local part W, and the backward
problem divides by A(lam_k, T), which stays uniformly away from zero.

Every solve makes one assembly pass for all modes at once: A(lam_k, .) on
the trace grid (with its error estimate at T) from one Bromwich contour
call, and, for a forced solve, the B-convolution columns of the source.
The three solvers, and the W part on its own, are array algebra on those
columns: forward a phi + conv, non-local W(data - conv(T)) + conv,
backward (psi - conv(T)) / a(T).  One finishing step then attaches the
residual and the coercivity report, from one _diagnose pass per solve.

A source is None (zero forcing) or one callable f(t) giving every mode's
value at the times t, with the mode axis last (t.shape + (n_modes,), or
t.shape + (1,) for one value on every mode): constant_source,
sampled_source and manufactured_quadratic_source build them.  The point
sets the solver reads it on (nodes, lattice, node-minus-lattice times) do
not depend on the mode, so it is sampled once per point set for all modes.

Forced modes integrate by parts with dA/dt = -lam B:
    (B * f)(t) = (f(t) - A(t) f(0) - int_0^t A(s) f'(t - s) ds) / lam,
with f' the slope of f over each cell of a uniform lattice on [0, T], so
only the A integrals of the cells enter.  They are differences of the
antiderivative Phi(t) = int_0^t A, which one more contour call per block of
LATTICE_BLOCK modes gives on the lattice and then, off a uniform grid, on
the nodes; each block reads it by slices: the lattice rows for the cells,
the node rows, and each node's last lattice point below it.  The weak
singularity of A' at t = 0 needs no special cells.  The lattice is built
once per solve, by _convolution.  A uniform grid's nodes lie on the lattice
and on its every-other-point sublattice, and the sum on each is one FFT
convolution along the time axis per mode; other grids sum directly up to
each node, one node at a time, each mode's row of source differences
against its row of cells.  The two levels are Richardson-combined in their
own arrays.  Every sum runs in an order that depends only on its own mode's
row, so reruns are bit-identical and, on every grid, a mode's coefficients
depend only on its own (lam, f_k): solving a subset of the modes gives the
same columns bit for bit.

On a uniform grid, Phi and the FFT run only for the modes whose source
moves, that is whose lattice samples are not all equal.  A mode with no
slope gets (f(t) - A(t) f(0)) / lam from A alone: its lattice sums stay at
exactly the zero that the FFT of its zero slopes gave.  The result is bit
for bit unchanged, since a contour column does not depend on the other
modes of the call and the FFT transforms column by column.  On other grids
the node sums read f between lattice points, so every mode takes Phi.

The CSV exports, and the CLI's kernel table, write every number as
"%.17g" does, which round-trips, but a block of numbers per numpy call
(_format.g17): the 17 digits come from an exact double-double scaling by a power
of ten, and the few values it cannot settle exactly (zeros, non-finite
and subnormal values, near-ties) go through "%.17g" itself.  A long
CSV's node stamps are one call per run of up to EXPORT_BLOCK nodes.  The
JSON exports write every finite float as json.dumps does, float.__repr__,
and every other as null, from the same scaling (_format.shortest):
json.dumps lays out the document with a marker in place of each float
array, and the arrays' numbers share one call per batch of up to
_JSON_BATCH numbers.  The per-node diagnostics stay float64 arrays, so
they reach that writer without a round trip through Python floats.  Every
file is staged and renamed by one writer, _write_all; the CLI passes it
all of a solve's files at once, so a failed write leaves none of them.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from ._format import g17, lines, shortest
from .kernel import (
    BLOCK_ELEMENTS,
    QuadratureConfig,
    _bromwich,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import _convolve, _is_uniform, caputo_l1_trace
from .spectral import (CoefficientField, SpectralOperator, synthesize,
                       tail_indicator)

__all__ = [
    "ProblemSpec",
    "SolutionTrace",
    "constant_source",
    "sampled_source",
    "manufactured_quadratic_source",
    "SolverError",
    "KernelAccuracyError",
    "GridTooCoarseError",
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
LATTICE_BLOCK = 128  # moving modes per Phi contour call and lattice block
MIN_INTERIOR_NODES = 64
EXPORT_BLOCK = 1 << 13  # cells per formatted block of an export
# JSON float leaves share one shortest call while together they hold at most
# this many cells: a whole EXPORT_BLOCK's temporaries, on top of a 4096-node
# solve's arrays, raised the benchmark's peak RSS by about 1.2 MB
_JSON_BATCH = EXPORT_BLOCK // 2
_LEAF = "\0float leaf"  # a float leaf's place in json's text of a document


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
    """Per-mode time series values[i, k - 1] at times[i], linear in between.

    There is at least one sample, and the times are finite and strictly
    increasing: the `t,f1,...,fN` CSV file of a `sampled_csv` source, read
    by spectral._read_csv, gives its t column and its mode columns here.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 1 or not np.all(np.isfinite(times)):
        raise ValueError("sample times must be a finite, non-empty 1-D "
                         "sequence")
    if np.any(np.diff(times) <= 0.0):
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
    The values are formed in their one output array, the last term added
    a block of about BLOCK_ELEMENTS of them at a time.
    """
    coef = 2.0 * gamma / math.gamma(3.0 - rho)
    lam = op.eigenvalues
    lam_coef = lam * coef
    per = max(1, BLOCK_ELEMENTS // max(lam.size, 1))

    def f(t):
        t = np.asarray(t, dtype=float)[..., None]
        out = np.multiply(lam, t ** 2,
                          out=np.empty(np.broadcast_shapes(t.shape, lam.shape)))
        out += 2.0 * t
        power = (t ** (2.0 - rho)).reshape(-1, 1)
        rows = out.reshape(-1, lam.size)
        for i in range(0, len(rows), per):
            rows[i:i + per] += lam_coef * power[i:i + per]
        return out

    return f


def _sample(source, n_modes: int, t: np.ndarray) -> np.ndarray:
    """The source at times t as a (t.shape + (n_modes,)) array; zero for None.

    The values must carry the mode axis last (ndim == t.ndim + 1), so a
    per-time array can never pass for per-mode values.  They are taken
    with numpy's floating-point warnings silenced: a source that overflows
    is not finite, and the solve's finiteness check names it.
    """
    shape = np.shape(t) + (n_modes,)
    if source is None:
        return np.broadcast_to(0.0, shape)
    with np.errstate(all="ignore"):
        values = np.asarray(source(t), dtype=float)
    if values.ndim == len(shape):
        try:
            return np.broadcast_to(values, shape)
        except ValueError:
            pass
    raise ValueError(f"source values of shape {values.shape} do not "
                     f"broadcast to {shape} along a last, mode axis")


# ---------------------------------------------------------------------------
# Problem description and solution container


def uniform_grid(horizon: float, n_nodes: int = 512) -> np.ndarray:
    """Uniform time grid over [0, horizon] with the given node count."""
    if not (isinstance(n_nodes, numbers.Integral) and n_nodes >= 2):
        raise ValueError("need an integer count of at least two time nodes")
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    return np.linspace(0.0, horizon, n_nodes)


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of one solve.

    data is the initial state for the forward problem, the prescribed
    increment u(T) - u(0) for the non-local problem, and the terminal state
    for the backward problem.  source is None (zero forcing) or a callable
    whose values on the time grid have a last, mode axis and broadcast to
    (n_nodes, n_modes); one sample on the grid checks that at construction.
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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.data.operator is not self.operator:
            raise ValueError("data field must live on the problem operator")
        grid = self.time_grid
        if grid is None:
            grid = uniform_grid(self.horizon)
        grid = np.asarray(grid, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise ValueError("time grid must be finite")
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if grid[0] != 0.0 or not math.isclose(grid[-1], self.horizon,
                                              rel_tol=0.0, abs_tol=0.0):
            raise ValueError("time grid must start at 0 and end at the horizon")
        object.__setattr__(self, "time_grid", grid)
        if self.source is not None:
            _sample(self.source, self.operator.n_modes, grid)


@dataclass
class SolutionTrace:
    """Per-node coefficient fields plus derived diagnostics."""

    nodes: np.ndarray
    coefficients: np.ndarray  # (n_nodes, n_modes)
    operator: SpectralOperator
    diagnostics: dict

    @property
    def n_modes(self) -> int:
        return self.coefficients.shape[1]


# ---------------------------------------------------------------------------
# Lattice convolution


def _blocks(n_modes: int) -> list[slice]:
    """The modes 0 .. n_modes - 1 in slices of at most LATTICE_BLOCK."""
    return [slice(j, j + LATTICE_BLOCK)
            for j in range(0, n_modes, LATTICE_BLOCK)]


def _convolution(ts: np.ndarray, sample, a: np.ndarray, lam: np.ndarray,
                 phi):
    """(B * f_k)(t_i) of every mode on the nodes ts (ts[0] = 0), and each
    mode's largest Richardson correction as its error estimate.

    sample(t) gives the source at the times t for all modes, a holds
    A(lam_k, t_i) of every mode, and phi(lams, points) gives Phi(lam, .)
    at the points for each lam of lams.  The lattice is built here, once
    per solve, and the source is sampled once per point set for all modes:
    on the nodes and, on a uniform grid, on the lattice.

    On a uniform grid the points are the lattice, and only the moving
    modes, whose lattice samples are not all equal (a NaN counts as
    moving), take Phi, their slopes and the FFT; the lattice sums of the
    others stay exactly zero, which is what the FFT of their zero slopes
    gave.  Off it, the points are the lattice followed by the nodes, every
    mode moves, and each block reads Phi by slices: [:L] on the L lattice
    points for the cells, [L:] at the nodes, and each node's last lattice
    point below it for its partial last cell.  The modes are taken
    LATTICE_BLOCK at a time, so that the lattice arrays held at once are a
    block's; off a uniform grid the blocks fill every mode's cells,
    mode-major, for the direct node sums.
    """
    T, n = ts[-1], ts.size
    uniform = _is_uniform(ts)
    unit = 2 * (n - 1) if uniform else 2
    n_cells = unit * -(-LATTICE_MIN_CELLS // unit)
    lattice = np.linspace(0.0, T, n_cells + 1)
    L = lattice.size
    f_ts = sample(ts)
    n_modes = f_ts.shape[-1]
    if uniform:
        stride = n_cells // (n - 1)
        lattice[::stride] = ts
        points = lattice
        f_lat = sample(lattice)
        moving = np.flatnonzero(np.concatenate([
            np.any(np.diff(f_lat[:, block], axis=0) != 0.0, axis=0)
            for block in _blocks(n_modes)]))
    else:
        points = np.concatenate((lattice, ts))
        # each node's last lattice point below it, on both levels
        below = np.searchsorted(lattice, ts, side="left") - 1
        last = (below, below // 2 * 2)
        moving = np.arange(n_modes)
        cells = (np.empty((n_modes, n_cells)),
                 np.empty((n_modes, n_cells // 2)))
        tails = (np.empty(a.shape), np.empty(a.shape))
    h = lattice[1]
    sums = (np.zeros(a.shape), np.zeros(a.shape))
    for block in _blocks(moving.size):
        cols = moving[block]
        phi_block = phi(lam[cols], points)
        # mode-major: each mode's lattice values are one contiguous row
        phi_lat = np.ascontiguousarray(phi_block[:L].T)
        diffs = (np.diff(phi_lat, axis=1),
                 phi_lat[:, 2::2] - phi_lat[:, :-2:2])
        if uniform:
            f_block = np.ascontiguousarray(f_lat[:, cols].T)
            for level, step in enumerate((1, 2)):
                slopes = np.diff(f_block[:, ::step], axis=1)
                slopes /= step * h
                conv = _convolve(diffs[level].T, slopes.T, slopes.shape[1],
                                 np.empty_like(slopes).T)
                sums[level][1:, cols] = conv[stride // step - 1::stride // step]
        else:
            for level in (0, 1):
                cells[level][block] = diffs[level]
                # int A over each node's partial last cell
                tails[level][:, block] = phi_block[L:] - phi_block[last[level]]
    if not uniform:
        # sum_m I_m d_m of the lattice rule, one node at a time: the source
        # is sampled on the lattice points below the node, for all modes,
        # and each mode's row of differences is contracted with its row of
        # cells in one fixed order, so no mode's sum depends on the other
        # modes; each node's last cell ends at the node itself
        for i in range(1, n):
            t = ts[i]
            F = sample(t - lattice[:last[0][i] + 1]).T  # mode-major
            for level, step in enumerate((1, 2)):
                j = last[level][i]
                # C order: each mode's row contiguous for any mode count, so
                # einsum sums it in one order
                diff = np.subtract(F[:, :j:step], F[:, step:j + 1:step],
                                   order="C")
                dot = np.einsum("mc,mc->m", diff,
                                cells[level][:, :diff.shape[1]])
                tail = tails[level][i] * (F[:, j] - f_ts[0]) / (t - lattice[j])
                sums[level][i] = dot / (step * h) + tail
    # the Richardson tail, in place: (f - A f(0) - s) / lam on each level
    base = f_ts - a * f_ts[0]
    for s in sums:
        np.subtract(base, s, out=s)
        s /= lam
    fine, coarse = sums
    err = np.abs(np.subtract(fine, coarse, out=base), out=base)
    fine *= 4.0
    fine -= coarse
    fine /= 3.0
    return fine, np.max(err, axis=0) / 3.0


# ---------------------------------------------------------------------------
# Shared mode assembly


def _assemble_modes(spec: ProblemSpec, q):
    """One kernel pass for all modes: the columns every solver combines.

    Returns A(lam_k, t_i) with the t = 0 identity pinned, the contour error
    estimate of A(lam_k, T), the convolution (B *_t f_k)(t_i), a read-only
    broadcast zero for a zero source, and the diagnostics of a forced solve.
    """
    ts = spec.time_grid
    lam = spec.operator.eigenvalues
    (a,), (a_err,) = _bromwich("A", spec.rho, spec.gamma, lam, ts, q,
                               slice(-1, None))
    if spec.source is None:
        return a, a_err[-1], np.broadcast_to(0.0, a.shape), {}
    # a source that overflows gives a convolution that is not finite, which
    # _finish names: numpy's floating-point warnings are silenced here
    with np.errstate(all="ignore"):
        def phi(lams, points):
            (values,), _ = _bromwich("Phi", spec.rho, spec.gamma, lams,
                                     points, q, slice(0))
            return values

        conv, conv_err = _convolution(
            ts, lambda t: _sample(spec.source, lam.size, t), a, lam, phi)
    return a, a_err[-1], conv, {"convolution_error_estimate": conv_err}


def _homogeneous_nonlocal(spec: ProblemSpec, a: np.ndarray,
                          psi: np.ndarray) -> np.ndarray:
    """W_k(t) = psi_k A(lam_k, t) / (A(lam_k, T) - 1) from the A columns.

    The denominators are uniformly negative since A < 1 for t > 0; one under
    half the guaranteed deviation bound means the kernel quadrature is off.
    """
    denom = a[-1] - 1.0
    c_b = lower_bound_B(spec.rho, spec.gamma, float(spec.operator.eigenvalues[0]),
                        spec.horizon)
    for k in np.flatnonzero(np.abs(denom) < 0.5 * c_b * spec.horizon) + 1:
        warnings.warn(
            f"mode {k}: |A(T) - 1| = {abs(denom[k - 1]):.3e} under half the "
            "guaranteed deviation bound; kernel quadrature is suspect",
            stacklevel=3,
        )
    return psi * a / denom


def _finish(spec: ProblemSpec, coefficients: np.ndarray,
            **extra) -> SolutionTrace:
    """Wrap the coefficients in a trace and attach its diagnostics.

    Norms, the solver's own entries, then one residual and one coercivity
    report (None on grids too coarse for them).  The per-node entries
    (norm_H, norm_A, residual_norm, each coercivity entry and a forced
    solve's convolution_error_estimate per mode) stay float64 arrays, which
    the JSON writer formats as they are.  A non-finite coefficient
    or diagnostic raises SolverError: no trace is returned to be written.
    The diagnostics are formed with numpy's floating-point warnings
    silenced, since the check names what overflowed or was undefined.
    """
    lam = spec.operator.eigenvalues
    bad = np.flatnonzero(~np.all(np.isfinite(coefficients), axis=0))
    if bad.size:
        raise SolverError(f"mode {bad[0] + 1}: the solution is not finite")
    with np.errstate(all="ignore"):
        diagnostics = {
            "norm_H": np.sqrt(np.sum(coefficients ** 2, axis=1)),
            "norm_A": np.sqrt(np.sum((coefficients * lam) ** 2, axis=1)),
            "data_tail_indicator": tail_indicator(spec.data),
            **extra,
        }
        trace = SolutionTrace(spec.time_grid.copy(), coefficients,
                              spec.operator, diagnostics)
        try:
            t_int, res, rep = _diagnose(trace, spec)
        except GridTooCoarseError:
            diagnostics.update(residual_max_interior=None, coercivity=None)
        else:
            late = t_int >= spec.horizon / 32.0
            diagnostics.update(
                residual_max_interior=float(np.max(res[late])),
                residual_norm=res,   # on the nodes of coercivity["t"]
                coercivity=rep,
            )
    key = _non_finite_key(diagnostics)
    if key is not None:
        raise SolverError(f"diagnostic {key} is not finite")
    return trace


def _non_finite_key(diagnostics: dict) -> str | None:
    """The first key, in sorted order, of a diagnostic with a non-finite
    number; a nested dict's key is named as outer.inner."""
    for key, value in sorted(diagnostics.items()):
        if isinstance(value, dict):
            inner = _non_finite_key(value)
            if inner is not None:
                return f"{key}.{inner}"
        elif value is not None and not np.all(np.isfinite(value)):
            return key
    return None


# ---------------------------------------------------------------------------
# Solvers


def solve_forward(spec: ProblemSpec, q: QuadratureConfig | None = None) -> SolutionTrace:
    """Series solution u_k(t) = A(lam_k, t) phi_k + (B *_t f_k)(t)."""
    if spec.kind != "forward":
        raise ValueError("spec.kind must be 'forward'")
    a, _, conv, notes = _assemble_modes(spec, q)
    return _finish(spec, a * spec.data.coefficients + conv, **notes)


def solve_auxiliary_W(psi: CoefficientField, rho: float, gamma: float,
                      horizon: float, time_grid=None) -> SolutionTrace:
    """Homogeneous solution with the non-local increment W(T) - W(0) = psi.

    W_k(t) = psi_k A(lam_k, t) / (A(lam_k, T) - 1); the denominators are
    uniformly negative since A < 1 for t > 0.
    """
    spec = ProblemSpec("nonlocal", psi.operator, rho, gamma, horizon, psi,
                       None, time_grid)
    a, _, _, _ = _assemble_modes(spec, None)
    coeffs = _homogeneous_nonlocal(spec, a, psi.coefficients)
    gap = np.max(np.abs(coeffs[-1] - coeffs[0] - psi.coefficients))
    return _finish(spec, coeffs, increment_gap=float(gap))


def solve_nonlocal(spec: ProblemSpec, q: QuadratureConfig | None = None) -> SolutionTrace:
    """Solve u(T) = u(0) + data as V + W.

    V = B * f is the forced part from zero data; W is the homogeneous part
    with increment data - V(T).  Both come from the same kernel columns.
    """
    if spec.kind != "nonlocal":
        raise ValueError("spec.kind must be 'nonlocal'")
    a, _, conv, notes = _assemble_modes(spec, q)
    psi = spec.data.coefficients - conv[-1]
    coeffs = _homogeneous_nonlocal(spec, a, psi) + conv
    gap = np.max(np.abs(coeffs[-1] - coeffs[0] - spec.data.coefficients))
    return _finish(
        spec, coeffs, **notes, nonlocal_gap=float(gap),
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
                        spec.horizon)
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
        spec, coeffs, **notes,
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


def _diagnose(trace: SolutionTrace, spec: ProblemSpec):
    """The residual's interior nodes and norms, and the coercivity report.

    Forms D_t u by central differences, A u, f and the L1 Caputo term
    once for both.  The Caputo term is one (nodes, modes) array, and the
    source is sampled once on the nodes.  D_t u, A u, the residual and the
    four norms are formed block by block of BLOCK_ELEMENTS // 8 node-mode
    pairs, so that the block's eight or so (nodes, modes) temporaries hold
    about BLOCK_ELEMENTS numbers; a block holds whole nodes, so a node's
    sums over the modes are those of a whole-grid pass.  Raises
    GridTooCoarseError on a grid with fewer than MIN_INTERIOR_NODES
    interior nodes.
    """
    nodes, u = trace.nodes, trace.coefficients
    if nodes.size - 2 < MIN_INTERIOR_NODES:
        raise GridTooCoarseError(
            f"the diagnostics need >= {MIN_INTERIOR_NODES} interior nodes, "
            f"got {nodes.size - 2}"
        )
    dru = caputo_l1_trace(nodes, u, spec.rho)[1:-1]
    f = _sample(spec.source, spec.operator.n_modes, nodes)[1:-1]
    lam = trace.operator.eigenvalues[None, :]
    glam = spec.gamma * lam
    t = nodes[1:-1]
    norms = np.empty((5, t.size))
    rows = max(1, BLOCK_ELEMENTS // 8 // lam.size)
    for i0 in range(0, t.size, rows):
        i = slice(i0, i0 + rows)
        du = _central_derivative(nodes[i0:i0 + rows + 2], u[i0:i0 + rows + 2])
        au = lam * u[1:-1][i]
        res = du + au + glam * dru[i] - f[i]
        adru = (f[i] - du - au) / spec.gamma
        for k, x in enumerate((res, du, au, adru)):
            norms[k, i] = np.sqrt(np.sum(x ** 2, axis=1))
    norms[4] = t ** (1.0 - spec.rho) * norms[1]
    res_norm, norm_du, norm_au, norm_adru, weighted = norms
    return t, res_norm, {
        "t": t.copy(),  # not a view of the trace's nodes
        "norm_dt_u": norm_du,
        "norm_A_u": norm_au,
        "norm_A_caputo_u": norm_adru,
        "weighted_norm_dt_u": weighted,
    }


def residual(trace: SolutionTrace,
             spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Equation residual norm per interior node.

    Computes || D_t u + A u + gamma A D_t^rho u - f || with the classical
    derivative by central differences and the fractional derivative by the
    L1 rule applied to the trace itself, so the check is independent of the
    kernel quadrature that produced the trace.
    """
    t_int, res, _ = _diagnose(trace, spec)
    return t_int, res


def coercivity_report(trace: SolutionTrace, spec: ProblemSpec) -> dict:
    """Per-node norms entering the regularity estimates.

    Reports t, ||D_t u||, ||A u||, ||A D_t^rho u|| and the damped quantity
    t^(1-rho) ||D_t u|| on interior nodes; the fractional term is recovered
    from the equation itself (residual identity), keeping it independent of
    the kernel quadrature.
    """
    return _diagnose(trace, spec)[2]


# ---------------------------------------------------------------------------
# Exports


def _stage(path) -> tuple[int, str]:
    """A new file beside path under a unique name, opened for writing, and
    that name.

    It is created with mode 0o666 less the umask, as open() creates one,
    and keeps that mode when it is renamed to path.
    """
    head, tail = os.path.split(os.path.abspath(path))
    while True:
        name = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
        try:
            return os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                           0o666), name
        except FileExistsError:
            continue


def _write_all(writers: dict) -> None:
    """All files of writers, a dict from path to a function writing to a
    descriptor, or none: each is staged in one new file beside its target
    (_stage), all are renamed only after every write has succeeded, and on
    any failure the staged files are removed.

    The renames are not all-or-none: each os.replace is atomic, but if a
    later one fails, the targets renamed before it already hold their new
    files, and only the files still staged are removed."""
    staged = {}
    try:
        for path, write in writers.items():
            fd, staged[path] = _stage(path)
            try:
                write(fd)
            finally:
                os.close(fd)
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _atomic_write(path, text) -> None:
    """Write a string, or strings from an iterable in order, to path.

    A file name is written by _write_all, the one writer of staged files.
    An int is the descriptor of a file the caller has staged, written in
    place and left open, as open() takes one.
    """
    if isinstance(path, int):
        with open(path, "w", closefd=False) as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
    else:
        _write_all({path: lambda fd: _atomic_write(fd, text)})


def _long_csv(header: str, nodes: np.ndarray, columns: list[str],
              values: np.ndarray) -> Iterator[str]:
    """CSV rows `t<column><value>`, node-major, one per node and column.

    Yields the file in blocks of about EXPORT_BLOCK cells, each one g17
    call for its values; the node stamps are one g17 call per run of
    whole blocks of at most EXPORT_BLOCK nodes.  So every number is
    formatted once, by "%.17g", which round-trips, and memory is bounded
    by the block and one run's stamps rather than the file.
    """
    m = len(columns)
    labels = _cells(columns)
    per = max(1, EXPORT_BLOCK // max(m, 1))
    chunk = per * (EXPORT_BLOCK // per)  # the nodes of one stamp call
    yield header + "\n"
    for c0 in range(0, nodes.size, chunk):
        run = g17(nodes[c0:c0 + chunk])
        run = run[run.any(axis=1)]  # the slots these nodes use
        for i0 in range(0, run.shape[1], per):
            stamps = run[:, i0:i0 + per]
            yield lines(np.repeat(stamps, m, axis=1),
                        np.tile(labels, stamps.shape[1]),
                        g17(values[c0 + i0:c0 + i0 + per]), "\n")


def _csv_table(header: str, columns) -> Iterator[str]:
    """CSV rows holding the equal-length columns' values, one row per index.

    Yields the header line, then the rows in blocks of about EXPORT_BLOCK
    cells, each column of a block one g17 call.
    """
    per = max(1, EXPORT_BLOCK // len(columns))
    yield header + "\n"
    for i0 in range(0, len(columns[0]), per):
        fields = []
        for column in columns:
            fields += [g17(column[i0:i0 + per]), ","]
        fields[-1] = "\n"
        yield lines(*fields)


def dumps_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, but with
    null for every non-finite number, which RFC 8259 has no token for.

    json lays out the document; each float64 vector or matrix in it is a
    float leaf, written by _format.shortest, float.__repr__ for a block of
    numbers per numpy call, and consecutive leaves share one call per batch
    (see _json).  A float64 array of more axes is the list of its rows, and
    other numpy arrays are written as their tolist().
    """
    return "".join(_json(obj))


def _json(obj) -> Iterator[str]:
    """The text of dumps_json in pieces, its float leaves formatted in
    batches.

    Consecutive leaves of fewer than EXPORT_BLOCK cells are grouped, in
    the walk's order, into batches of at most _JSON_BATCH cells (a larger
    leaf alone), and each batch is one shortest call; a leaf of
    EXPORT_BLOCK cells or more takes one call per block of its own.  So no
    call formats more than EXPORT_BLOCK cells.  The pieces from a batch's
    first leaf on are held until the batch is full, so only one batch's
    columns are alive at a time and an array is never held whole as Python
    floats or as text.
    """
    held, cells = [], 0  # the open batch: its pieces, and its leaves' cells
    for piece in _pieces(obj):
        if isinstance(piece, str):
            if held:
                held.append(piece)
            else:
                yield piece
            continue
        size = piece[0].size
        if held and cells + size > _JSON_BATCH:
            yield from _batch(held)
            held, cells = [], 0
        if size >= EXPORT_BLOCK:
            yield from _floats(*piece)
        else:
            held.append(piece)
            cells += size
    yield from _batch(held)


def _batch(held: list) -> Iterator[str]:
    """The held pieces of a batch, its leaves laid out from one shortest
    call on all of their cells, in order."""
    if not held:
        return
    text = shortest(np.concatenate([piece[0].ravel() for piece in held
                                    if not isinstance(piece, str)]))
    i = 0
    for piece in held:
        if isinstance(piece, str):
            yield piece
        else:
            values, newline = piece
            yield from _floats(values, newline, text[:, i:i + values.size])
            i += values.size


def _pieces(obj) -> Iterator:
    """dumps_json's text of obj in pieces, in order, with each float leaf
    in its place as a (values, newline) pair: values its float64 vector or
    matrix, newline the line break and indent of the line it starts on.

    json.dumps writes every leaf as the string _LEAF, by its default hook,
    and the text is split there.
    """
    leaves = []

    def leaf(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} "
                            f"is not JSON serializable")
        if o.dtype != float or o.size == 0 or o.ndim == 0:
            return _nulls(o.tolist())
        if o.ndim > 2:
            return list(o)
        leaves.append(o)
        return _LEAF

    texts = json.dumps(_nulls(obj), indent=2, sort_keys=True,
                       default=leaf).split(json.dumps(_LEAF))
    # json's encoder keeps leaf in a reference cycle, and with it the list
    found = leaves.copy()
    leaves.clear()
    if len(texts) != len(found) + 1:
        raise ValueError(f"a document string is the leaf marker {_LEAF!r}")
    yield texts[0]
    for values, before, text in zip(found, texts, texts[1:]):
        line = before.rpartition("\n")[2]
        yield values, "\n" + " " * (len(line) - len(line.lstrip(" ")))
        yield text


def _nulls(obj):
    """obj with None for each non-finite float in its dicts, lists and
    tuples (json writes a tuple as a list); arrays are left to the leaves."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _nulls(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulls(value) for value in obj]
    return obj


def _floats(values: np.ndarray, newline: str,
            text: np.ndarray | None = None) -> Iterator[str]:
    """dumps_json's text of a float64 vector or matrix, laid out from text,
    the shortest columns of its cells in row-major order that its batch
    formatted, or, without text, from one shortest call per block of about
    EXPORT_BLOCK cells.

    Each cell's line is laid out as head, indent, number, tail: a matrix
    cell opens its row's list in its head and closes it in its tail.  Every
    head starts with a comma, which the first block's bracket replaces.
    """
    inner = newline + "  "
    m = values.shape[1] if values.ndim == 2 else 1
    if values.ndim == 1:
        values, head, tail = values[:, None], [","], [""]
    else:
        head = ["," + inner + "["] + [","] * (m - 1)
        tail = [""] * (m - 1) + [inner + "]"]
        inner += "  "
    head, tail = _cells(head), _cells(tail)
    per = max(1, EXPORT_BLOCK // m)

    def block(i0: int) -> str:
        rows = values[i0:i0 + per]
        cells = (shortest(rows) if text is None
                 else text[:, i0 * m:(i0 + len(rows)) * m])
        return lines(np.tile(head, len(rows)), inner, cells,
                     np.tile(tail, len(rows)))

    yield "[" + block(0)[1:]
    for i0 in range(per, len(values), per):
        yield block(i0)
    yield newline + "]"


def _cells(texts: list[str]) -> np.ndarray:
    """The texts as a NUL-padded (width, len(texts)) uint8 field of lines."""
    cells = np.array([t.encode("ascii") for t in texts], "S")
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize).T


def export_trace_csv(trace: SolutionTrace, path: str | int) -> None:
    """Long-format CSV `t,k,coefficient` with round-trip-safe formatting.

    Every export writes path as _atomic_write does: a file name atomically,
    a descriptor in place.
    """
    keys = [f",{k}," for k in range(1, trace.n_modes + 1)]
    _atomic_write(path, _long_csv("t,k,coefficient", trace.nodes, keys,
                                  trace.coefficients))


def export_trace_json(trace: SolutionTrace, path: str | int) -> None:
    """JSON of the nodes, eigenvalues, coefficients and diagnostics.

    The text of dumps_json, written as it is made: memory is bounded by a
    block of coefficient rows rather than the file.
    """
    payload = {
        "nodes": trace.nodes,
        "eigenvalues": trace.operator.eigenvalues,
        "fields": trace.coefficients,
        "diagnostics": trace.diagnostics,
    }
    _atomic_write(path, chain(_json(payload), ("\n",)))


def export_trace_grid_csv(trace: SolutionTrace, x, path: str | int) -> None:
    """Grid-sampled CSV `t,x,u`; requires an operator with eigenfunctions.

    u = sum_k c_k v_k(x) at every node at once, by spectral.synthesize.
    """
    xs = np.asarray(x, dtype=float)
    columns = lines(",", g17(xs), ",\n").splitlines()
    _atomic_write(path, _long_csv("t,x,u", trace.nodes, columns,
                                  synthesize(trace, xs)))
