"""Independent finite-difference solver for the scalar mode problem.

Discretizes y' + lam * (1 + gamma * D_t^rho) y = f with implicit Euler for
the classical derivative and the L1 rule for the Caputo derivative.  The L1
weights are elementary and exactly checkable through a telescoping identity.
This module is the ground truth the quadrature kernels are validated
against.  The march is linear and its history is a discrete convolution, so
it is solved as one lower-triangular Toeplitz system with FFTs; trust in
that solve comes from a test that matches it against the dense step-by-step
forward substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "L1Grid",
    "l1_weights",
    "caputo_l1",
    "caputo_l1_trace",
    "solve_scalar",
    "richardson_extrapolate",
    "RichardsonResult",
]

TRACE_BLOCK = 256  # rows of the dense caputo_l1_trace weights built at once


def l1_weights(rho: float, n: int) -> np.ndarray:
    """L1 coefficients b_j = (j+1)^(1-rho) - j^(1-rho), j = 0..n-1.

    Positive, strictly decreasing, b_0 = 1, and telescoping:
    sum_{j<n} b_j = n^(1-rho).  For j >= 1 they are formed as
    j^(1-rho) expm1((1-rho) log1p(1/j)), which keeps full precision where
    the difference of powers would cancel.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    if n < 1:
        raise ValueError("need at least one weight")
    a = 1.0 - rho
    j = np.arange(1, n, dtype=np.float64)
    return np.concatenate(([1.0], j ** a * np.expm1(a * np.log1p(1.0 / j))))


@dataclass(frozen=True)
class L1Grid:
    """Uniform time grid with precomputed L1 weights for a fixed order."""

    step: float
    count: int
    rho: float
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        object.__setattr__(self, "weights", l1_weights(self.rho, self.count))

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.count + 1)


def caputo_l1(history: Sequence[float] | np.ndarray, rho: float,
              grid: L1Grid) -> float:
    """L1 approximation of the Caputo derivative at the last history node.

    history holds y_0 .. y_n on the grid; the rule is exact for affine y.
    """
    values = np.asarray(history, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("history must hold at least two values")
    n = values.size - 1
    if n > grid.count:
        raise ValueError("history longer than the grid")
    diffs = values[1:] - values[:-1]
    # sum_j b_j (y_{n-j} - y_{n-j-1}) pairs weight j with the diff ending at n-j
    acc = float(np.dot(grid.weights[:n], diffs[::-1]))
    return grid.step ** (-rho) / math.gamma(2.0 - rho) * acc


def _is_uniform(t: np.ndarray) -> bool:
    """Whether the increasing times t are equally spaced, to 1e-12 of the span.

    The one test of uniformity: the L1 trace and the solvers' convolution
    lattice both switch to FFT convolutions on it.
    """
    span = t[-1] - t[0]
    return bool(np.allclose(t, np.linspace(t[0], t[-1], t.size), rtol=0.0,
                            atol=1e-12 * span))


def caputo_l1_trace(times: np.ndarray, values: np.ndarray,
                    rho: float) -> np.ndarray:
    """Caputo derivative of a sampled trace at every node, nonuniform L1.

    Uses the exact fractional integral of the piecewise-linear interpolant,
    which reduces to the classical L1 weights on uniform grids.  ``values``
    may be (n,) or (n, m) for m simultaneous modes; node 0 gets zero.  On a
    uniform grid the sum is one FFT convolution of the L1 weights with the
    slopes, for all modes at once: O(n log n).  Other grids take the dense
    O(n^2) sum.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing, length >= 2")
    if v.shape[0] != t.size:
        raise ValueError("values and times disagree in length")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    h = np.diff(t)
    slopes = (v[1:] - v[:-1]) / (h[:, None] if v.ndim == 2 else h)
    out = np.empty(v.shape)
    if _is_uniform(t):
        # w[i, j] = step^(1-rho) b_(i-1-j): a Toeplitz product
        step = (t[-1] - t[0]) / (t.size - 1)
        b = l1_weights(rho, t.size - 1).reshape((-1,) + (1,) * (v.ndim - 1))
        out[0] = 0.0
        out[1:] = step ** (1.0 - rho) * _convolve(slopes, b, t.size - 1)
        return out / math.gamma(2.0 - rho)
    # w[i, j] = (t_i - t_j)^(1-rho) - (t_i - t_{j+1})^(1-rho) for j < i, built
    # TRACE_BLOCK rows at a time so memory stays O(n) rather than O(n^2)
    for i0 in range(0, t.size, TRACE_BLOCK):
        ti = t[i0:i0 + TRACE_BLOCK, None]
        dt_lo = ti - t[None, :-1]
        dt_hi = ti - t[None, 1:]
        mask = dt_hi >= 0.0  # cell j contributes at node i only when j + 1 <= i
        w = np.where(mask, np.abs(dt_lo) ** (1.0 - rho)
                     - np.abs(dt_hi) ** (1.0 - rho), 0.0)
        out[i0:i0 + TRACE_BLOCK] = w @ slopes
    return out / math.gamma(2.0 - rho)


def _convolve(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """First ``size`` terms of the linear convolution a * b along axis 0.

    By real FFT; 2-D operands convolve column by column in one transform.
    """
    m = 1 << (len(a) + len(b) - 2).bit_length()
    fa = np.fft.rfft(a, m, axis=0)
    fa *= np.fft.rfft(b, m, axis=0)
    return np.fft.irfft(fa, m, axis=0)[:size]


def _inverse_series(c: np.ndarray) -> np.ndarray:
    """Coefficients g of 1/c(x) mod x^n, by Newton doubling g <- g(2 - c g)."""
    g = np.array([1.0 / c[0]])
    while g.size < c.size:
        m = g.size
        k = min(2 * m, c.size)
        # c g = 1 + O(x^m); only its terms m .. k-1 enter the correction
        err = _convolve(c[:k], g, k)[m:]
        g = np.concatenate([g, -_convolve(g, err, k - m)])
    return g


def solve_scalar(lam: float, gamma: float, rho: float, y0: float,
                 f: Callable[[np.ndarray], np.ndarray] | Sequence[float] | None,
                 grid: L1Grid) -> np.ndarray:
    """Implicit Euler with the L1 Caputo history; returns y_0 .. y_n.

    Step i solves
        (1/dt + lam + lam*gamma*c) y_i = f(t_i) + y_{i-1}/dt
                                         + lam*gamma*c*(y_{i-1} - H_i)
    with c = dt^(-rho)/Gamma(2-rho) and H_i = sum_{k<i} b_{i-k} d_k the
    weighted older differences d_k = y_k - y_{k-1}.  In the differences the
    whole march is the lower-triangular Toeplitz system
        sum_{k<=i} s_{i-k} d_k = f(t_i) - lam*y0,   i = 1 .. n,
    with symbol s_0 = 1/dt + lam + lam*gamma*c and s_j = lam + lam*gamma*c*b_j
    (b = grid.weights).  It is solved by inverting the symbol as a power
    series and applying the inverse with one FFT convolution: O(n log n).
    """
    if lam <= 0.0 or gamma <= 0.0:
        raise ValueError("lam and gamma must be positive")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    n = grid.count
    if f is None:
        fvals = np.zeros(n + 1)
    elif callable(f):
        fvals = np.asarray(f(grid.times), dtype=float)
        if fvals.shape != (n + 1,):
            raise ValueError("source callable must be vectorized over the grid")
    else:
        fvals = np.asarray(f, dtype=float)
        if fvals.shape != (n + 1,):
            raise ValueError("sampled source must cover all grid nodes")
    lgc = lam * gamma * grid.step ** (-rho) / math.gamma(2.0 - rho)
    symbol = lam + lgc * grid.weights
    symbol[0] += 1.0 / grid.step
    d = _convolve(_inverse_series(symbol), fvals[1:] - lam * y0, n)
    return np.concatenate(([y0], y0 + np.cumsum(d)))


class RichardsonResult(NamedTuple):
    value: float
    observed_order: float | None
    order_reliable: bool


def richardson_extrapolate(values: Sequence[float],
                           assumed_order: float = 1.0) -> RichardsonResult:
    """Extrapolate a quantity computed at successively halved steps.

    ``values[k]`` is the result at step dt / 2^k.  With three or more
    entries the convergence order is observed from the last difference
    ratio; with two it falls back to ``assumed_order``.  The order estimate
    is flagged unreliable when consecutive differences disagree in sign
    (non-monotone approach) or vanish.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need results at two or more steps")
    d_last = vals[-1] - vals[-2]
    if d_last == 0.0:
        return RichardsonResult(vals[-1], None, False)
    observed = None
    reliable = False
    if len(vals) >= 3:
        d_prev = vals[-2] - vals[-3]
        if d_prev != 0.0 and (d_prev > 0.0) == (d_last > 0.0):
            ratio = d_prev / d_last
            if ratio > 1.0:
                observed = math.log2(ratio)
                reliable = True
    order = observed if reliable else assumed_order
    factor = 2.0 ** order
    improved = (factor * vals[-1] - vals[-2]) / (factor - 1.0)
    return RichardsonResult(improved, observed, reliable)
