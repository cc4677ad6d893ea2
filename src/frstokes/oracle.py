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

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .kernel import BLOCK_ELEMENTS

__all__ = [
    "L1Grid",
    "l1_weights",
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
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("need an integer count of at least one weight")
    a = 1.0 - rho
    w = np.empty(n)
    w[0] = 1.0
    # a block of BLOCK_ELEMENTS weights at a time bounds the temporaries
    for j0 in range(1, n, BLOCK_ELEMENTS):
        j = np.arange(j0, min(j0 + BLOCK_ELEMENTS, n), dtype=np.float64)
        w[j0:j0 + j.size] = j ** a * np.expm1(a * np.log1p(1.0 / j))
    return w


@dataclass(frozen=True)
class L1Grid:
    """Uniform time grid with precomputed L1 weights for a fixed order."""

    step: float
    count: int
    rho: float
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not (isinstance(self.count, numbers.Integral) and self.count >= 1):
            raise ValueError("count must be an integer >= 1")
        object.__setattr__(self, "weights", l1_weights(self.rho, self.count))

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.count + 1)


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
    slopes: O(n log n).  There the slopes are formed in the output's rows
    1 .. n-1, convolved in place by _convolve, mode-major block by block of
    modes, and scaled in place, so the output array, a mask of the
    non-finite slopes and one block of spectra are all it holds.  Other
    grids take the dense O(n^2) sum.  The trace is causal: from a column's
    first non-finite slope onward its derivative is NaN, and the nodes
    before keep their values.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if (t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t))
            or np.any(np.diff(t) <= 0.0)):
        raise ValueError("times must be finite and strictly increasing, "
                         "length >= 2")
    if v.shape[0] != t.size:
        raise ValueError("values and times disagree in length")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    h = np.diff(t)
    uniform = _is_uniform(t)
    out = np.empty(v.shape)
    slopes = out[1:] if uniform else np.empty_like(out[1:])
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(v[1:], v[:-1], out=slopes)
        slopes /= h[:, None] if v.ndim == 2 else h
    # the sums mix every slope (the FFT) or multiply 0 * inf (the dense
    # block), so non-finite slopes enter as zero and their nodes are reset
    bad = ~np.isfinite(slopes)
    slopes[bad] = 0.0
    if uniform:
        # w[i, j] = step^(1-rho) b_(i-1-j): a Toeplitz product
        step = (t[-1] - t[0]) / (t.size - 1)
        out[0] = 0.0
        _convolve(slopes, l1_weights(rho, t.size - 1), t.size - 1, slopes)
        out[1:] *= step ** (1.0 - rho)
        out /= math.gamma(2.0 - rho)
        return _causal(out, bad)
    # w[i, j] = p[i, j] - p[i, j + 1] with p[i, j] = max(t_i - t_j, 0)^(1-rho):
    # (t_i - t_j)^(1-rho) - (t_i - t_{j+1})^(1-rho) for j < i and 0 beyond,
    # built TRACE_BLOCK rows at a time so memory stays O(n) rather than O(n^2)
    for i0 in range(0, t.size, TRACE_BLOCK):
        p = np.maximum(t[i0:i0 + TRACE_BLOCK, None] - t, 0.0) ** (1.0 - rho)
        out[i0:i0 + TRACE_BLOCK] = (p[:, :-1] - p[:, 1:]) @ slopes
    return _causal(out / math.gamma(2.0 - rho), bad)


def _causal(out: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """out with NaN at every node past a non-finite slope of its column."""
    out[1:][np.logical_or.accumulate(bad, axis=0)] = np.nan
    return out


@functools.lru_cache(maxsize=1024)
def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n >= 1), a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray, size: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """First ``size`` terms of the linear convolution a * b along axis 0.

    a is (len_a,) or (len_a, k); b is (len_b,), one sequence for every
    column of a, and then transformed once, or (len_b, k), one per column.
    By real FFT of length m on mode-major rows: the columns are transformed
    as the rows of their transpose (a 1-D operand is one row), in blocks of
    at most BLOCK_ELEMENTS // m columns, and each block's result is written
    into out, of a's shape with ``size`` rows (a new array if None).  out
    may share a's memory column for column: a block is read whole before
    it is written.  A column's terms do not depend on the block it is in.
    """
    m = _fft_size(len(a) + len(b) - 1)
    if out is None:
        out = np.empty((size,) + a.shape[1:])
    rows_a, rows_out = a.reshape(len(a), -1).T, out.reshape(size, -1).T
    fb = np.fft.rfft(b, m) if b.ndim == 1 else None
    per = max(1, BLOCK_ELEMENTS // m)
    for j in range(0, len(rows_a), per):
        block = slice(j, j + per)
        fa = np.fft.rfft(rows_a[block], m)
        fa *= fb if fb is not None else np.fft.rfft(b[:, block].T, m)
        rows_out[block] = np.fft.irfft(fa, m)[:, :size]
    return out


def _inverse_series(w: np.ndarray, lam: float, lgc: float,
                    inv_dt: float) -> np.ndarray:
    """Coefficients g of 1/c(x) mod x^n, by Newton doubling g <- g(2 - c g),
    for the symbol c = lgc w + lam with c_0 raised by inv_dt, n = len(w).

    g is allocated once at length n; every doubling forms its prefix of c
    and its transforms in views of one real buffer and one pair of
    half-spectra of the longest transform's length, so no symbol array
    exists and the arithmetic is that of fresh arrays.
    """
    n = len(w)
    top = _fft_size(n)
    g = np.empty(n)
    g[0] = 1.0 / (lgc * w[0] + lam + inv_dt)
    spectra = np.empty((2, top // 2 + 1), dtype=complex)
    real = np.empty(top)
    m = 1
    while m < n:
        k = min(2 * m, n)
        size = _fft_size(k)
        fg, fc = spectra[:, :size // 2 + 1]
        buf = real[:size]
        np.fft.rfft(g[:m], size, out=fg)
        np.multiply(w[:k], lgc, out=buf[:k])
        buf[:k] += lam
        buf[0] += inv_dt
        np.fft.rfft(buf[:k], size, out=fc)
        fc *= fg
        # c g = 1 + O(x^m); only its terms m .. k-1 enter the correction, a
        # middle product (Hanrot, Quercia & Zimmermann, AAECC 14, 2004): taken
        # cyclically at size >= k its wrap-around lands below m, and g err is
        # k - 1 terms long, so both products share one transform of g
        np.fft.irfft(fc, size, out=buf)
        np.fft.rfft(buf[m:k], size, out=fc)
        fg *= fc
        np.fft.irfft(fg, size, out=buf)
        np.negative(buf[:k - m], out=g[m:k])
        m = k
    return g


def solve_scalar(lam: float, gamma: float, y0: float,
                 f: Sequence[float] | None, grid: L1Grid) -> np.ndarray:
    """Implicit Euler with the L1 Caputo history; returns y_0 .. y_n.

    The order rho is the grid's, ``grid.rho``, the one its L1 weights were
    built for.  The source f is its samples f(t_i) on ``grid.times``, which
    must be finite, or None for zero forcing.  Step i solves
        (1/dt + lam + lam*gamma*c) y_i = f(t_i) + y_{i-1}/dt
                                         + lam*gamma*c*(y_{i-1} - H_i)
    with c = dt^(-rho)/Gamma(2-rho) and H_i = sum_{k<i} b_{i-k} d_k the
    weighted older differences d_k = y_k - y_{k-1}.  In the differences the
    whole march is the lower-triangular Toeplitz system
        sum_{k<=i} s_{i-k} d_k = f(t_i) - lam*y0,   i = 1 .. n,
    with symbol s_0 = 1/dt + lam + lam*gamma*c and s_j = lam + lam*gamma*c*b_j
    (b = grid.weights).  It is solved by inverting the symbol as a power
    series and applying the inverse with one FFT convolution: O(n log n).
    A constant right-hand side r (a constant source, zero forcing among
    them) skips that convolution: its differences are r times the running
    sums of the inverse.
    """
    if not (0.0 < lam < math.inf and 0.0 < gamma < math.inf):
        raise ValueError("lam and gamma must be positive and finite")
    if not math.isfinite(y0):
        raise ValueError("y0 must be finite")
    rho, n = grid.rho, grid.count
    if f is not None:
        fvals = np.asarray(f, dtype=float)
        if fvals.shape != (n + 1,):
            raise ValueError("sampled source must cover all grid nodes")
        if not np.all(np.isfinite(fvals)):
            raise ValueError("source samples must be finite")
    lgc = lam * gamma * grid.step ** (-rho) / math.gamma(2.0 - rho)
    g = _inverse_series(grid.weights, lam, lgc, 1.0 / grid.step)
    # the output, allocated once the doubling's buffers are freed, holds the
    # right-hand side, then the differences, then the trajectory
    y = np.empty(n + 1)
    y[0] = y0
    r = y[1:]
    if f is None:
        r0 = -lam * y0
    else:
        np.subtract(fvals[1:], lam * y0, out=r)
        r0 = r[0] if np.all(r == r[0]) else None
    if r0 is None:
        _convolve(g, r, n, out=r)
    else:
        np.cumsum(g, out=r)
        r *= r0
    np.cumsum(r, out=r)
    r += y0
    return y


class RichardsonResult(NamedTuple):
    value: float
    observed_order: float | None
    order_reliable: bool


def richardson_extrapolate(values: Sequence[float]) -> RichardsonResult:
    """Extrapolate a quantity computed at successively halved steps.

    ``values[k]`` is the result at step dt / 2^k.  With three or more
    entries the convergence order is observed from the last difference
    ratio; with two it falls back to first order, the L1 rule's.  The
    order estimate is flagged unreliable when consecutive differences
    disagree in sign (non-monotone approach) or vanish.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need results at two or more steps")
    if not all(map(math.isfinite, vals)):
        raise ValueError("results must be finite")
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
    order = observed if reliable else 1.0
    factor = 2.0 ** order
    improved = (factor * vals[-1] - vals[-2]) / (factor - 1.0)
    return RichardsonResult(improved, observed, reliable)
