"""Relaxation kernels of the fractional Rayleigh-Stokes scalar problem.

The scalar mode problem

    y'(t) + lam * (1 + gamma * D_t^rho) y(t) = f(t)

has two fundamental solutions: ``A(lam, t)`` (unit initial value, zero
source) and ``B(lam, t)`` (the impulse response convolved against the
source).  Their Laplace transforms are explicit,

    A^(z) = (1 + lam gamma z^(rho-1)) / (z + lam + lam gamma z^rho),
    B^(z) = 1 / (z + lam + lam gamma z^rho),

and A, B and the antiderivative Phi(t) = int_0^t A (transform A^(z) / z)
come from one hyperbolic Bromwich contour that serves every eigenvalue at
once (Weideman & Trefethen 2007, Math. Comp. 76:1341-1356).  Both kernels
are also Laplace integrals of explicit spectral densities on the positive
half line.  The real-line engine (``quadrature``: the half line mapped onto
finite intervals and refined by one adaptive Gauss-Kronrod loop)
integrates those for dB/dt, for the uniform-in-mode lower bounds and as
the independent reference the verification suites compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    QuadratureConfig,
    adaptive_finite,
    exp_weighted_semiinfinite,
    integrate_semiinfinite,
)

__all__ = [
    "KernelParams",
    "QuadratureConfig",
    "density_A",
    "density_B",
    "eval_A",
    "eval_B",
    "eval_A_grid",
    "eval_B_grid",
    "eval_dA_dt",
    "eval_dB_dt",
    "eval_dB_dt_grid",
    "lower_bound_A",
    "lower_bound_B",
    "laplace_A_closed_form",
    "laplace_B_closed_form",
    "laplace_transform_numeric",
]


@dataclass(frozen=True)
class KernelParams:
    """One scalar mode: fractional order rho, relaxation gamma, eigenvalue lam."""

    rho: float
    gamma: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie strictly inside (0, 1), got {self.rho}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _check_positive_r(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("density argument r must be strictly positive")
    return arr


def _density_parts(r, p: KernelParams):
    """r, r**rho, sin(pi rho) and the modulus of both densities' denominator.

    The densities divide by it twice: its square overflows past r ~ 1e154,
    which would collapse them to 0 there.
    """
    arr = _check_positive_r(r)
    s = math.sin(math.pi * p.rho)
    rp = arr ** p.rho
    re_part = p.lam - arr + p.lam * p.gamma * rp * math.cos(math.pi * p.rho)
    im_part = p.lam * p.gamma * rp * s
    return arr, rp, s, np.hypot(re_part, im_part)


def density_A(r, p: KernelParams):
    """Spectral density of A: A(lam, t) = int_0^inf exp(-r t) density_A(r) dr.

    Nonnegative for all r > 0; behaves like r**(rho-1) at the origin and
    like r**(rho-3) at infinity.
    """
    arr, _, s, mod = _density_parts(r, p)
    out = (p.gamma / math.pi) * p.lam ** 2 * arr ** (p.rho - 1.0) * s
    out = out / mod / mod
    return out if isinstance(r, np.ndarray) else float(out)


def density_B(r, p: KernelParams):
    """Spectral density of B; equals (r / lam) * density_A(r) identically."""
    _, rp, s, mod = _density_parts(r, p)
    out = (p.gamma / math.pi) * p.lam * rp * s / mod / mod
    return out if isinstance(r, np.ndarray) else float(out)


def _check_times(ts, minimum=0.0, what="t"):
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(arr < minimum):
        raise ValueError(f"{what} must be >= {minimum}")
    return arr


def _transforms(z, rho, gamma, lam):
    """Laplace transforms (A^(z), B^(z)), with z broadcast against lam."""
    lgz = lam * gamma * z ** rho
    d = z + lam + lgz
    return (1.0 + lgz / z) / d, 1.0 / d


# Hyperbolic contour z(u) = mu (1 + sin(iu - alpha)), u = k h for k = -N..N,
# serving the times of one window (t_hi / 4, t_hi], t_hi a power of 4.  The
# step is wider than Weideman & Trefethen's fixed-t 1.0818 / N so that one
# contour covers the window's factor 4 in t.
CONTOUR_ALPHA = 1.1721
CONTOUR_STEP = 1.4          # h = CONTOUR_STEP / N
CONTOUR_SCALE = 4.4921      # mu = CONTOUR_SCALE * N / t_hi
# Worst absolute error of A per contour size N, against the density engine
# at rel_tol 1e-12, over rho in {0.05, 0.3, 0.5, 0.7, 0.9, 0.99}, gamma in
# {0.5, 1, 2}, lam in {1, 10, 100, 1e4, 1e6} and 256 uniform times in
# (0, 1].  Past N = 32 rounding (the contour's growth factor) wins: N = 36
# gives 1.3e-10.
CONTOUR_ERRORS = {8: 3.6e-4, 12: 1.4e-5, 16: 5.9e-7, 20: 2.5e-8,
                  24: 1.1e-9, 28: 5.1e-11, 32: 7.9e-12}
BLOCK_ELEMENTS = 1 << 16    # elements of one block's times x modes x nodes


def _contour_size(q: QuadratureConfig | None) -> int:
    """The smallest N whose measured error is at most rel_tol / 100."""
    tol = (q or QuadratureConfig()).rel_tol / 100.0
    return min((n for n, err in CONTOUR_ERRORS.items() if err <= tol),
               default=max(CONTOUR_ERRORS))


def _contour_sum(transform, t: np.ndarray, n: int) -> np.ndarray:
    """Trapezoid sum of the Bromwich integral at every t > 0, on 2n + 1 nodes.

    transform(z) maps z of shape (windows, n + 1, 1) to (windows, n + 1, M);
    conjugate symmetry halves the nodes.  The window of t depends on t
    alone and each value sums the nodes in a fixed order, so a value does
    not depend on the other times or modes of the call.  Returns (t.size, M).
    """
    m, e = np.frexp(t)
    e = e - (m == 0.5)                            # ceil(log2 t)
    t_hi = np.ldexp(1.0, 2 * -(-e // 2))
    windows, which = np.unique(t_hi, return_inverse=True)
    iu = 1j * (CONTOUR_STEP / n) * np.arange(n + 1)
    z = CONTOUR_SCALE * n * (1.0 + np.sin(iu - CONTOUR_ALPHA))
    dz = (CONTOUR_SCALE * CONTOUR_STEP / math.pi) * 1j * np.cos(iu - CONTOUR_ALPHA)
    dz[0] *= 0.5                      # weights (h / pi) z'(u); u = 0 once
    scale = 1.0 / windows[:, None, None]
    g = np.swapaxes(transform(z[:, None] * scale) * (dz[:, None] * scale), 1, 2)
    g_re, g_im = np.ascontiguousarray(g.real), np.ascontiguousarray(g.imag)
    out = np.empty((t.size, g.shape[1]))
    rows = max(1, BLOCK_ELEMENTS // (g.shape[1] * g.shape[2]))
    for i in range(0, t.size, rows):
        block = slice(i, i + rows)
        w = which[block]
        ez = np.exp(np.multiply.outer(t[block] / t_hi[block], z))[:, None, :]
        out[block] = (ez.real * g_im[w] + ez.imag * g_re[w]).sum(axis=2)
    return out


def _bromwich(kind: str, rho: float, gamma: float, lam, ts: np.ndarray,
              q: QuadratureConfig | None = None, error_at=slice(None)):
    """A, B or Phi = int_0^t A (kind) for every eigenvalue at every t in ts.

    Returns (values, errors): values, shaped (ts.size, lam.size), are the
    contour sum on the N that q.rel_tol picks; errors, at ts[error_at]
    alone (slice(0) for none), are its distance from the sum on N - 4.
    t = 0 is pinned (A = B = 1, Phi = 0) with a zero error bound.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))

    def transform(z):
        a, b = _transforms(z, rho, gamma, lam)
        return {"A": a, "B": b, "Phi": a / z}[kind]

    values = np.full((ts.size, lam.size), 0.0 if kind == "Phi" else 1.0)
    pos = ts > 0.0
    n = _contour_size(q)
    values[pos] = _contour_sum(transform, ts[pos], n)
    t_err, v_err = ts[error_at], values[error_at]
    errors = np.zeros_like(v_err)
    pos = t_err > 0.0
    errors[pos] = np.abs(v_err[pos] - _contour_sum(transform, t_err[pos], n - 4))
    return values, errors


def eval_A_grid(p: KernelParams, ts, q: QuadratureConfig | None = None):
    """A(lam, t) for every t in ts from the contour; returns (values, errors)."""
    values, errors = _bromwich("A", p.rho, p.gamma, p.lam, _check_times(ts), q)
    return values[:, 0], errors[:, 0]


def eval_B_grid(p: KernelParams, ts, q: QuadratureConfig | None = None):
    """B(lam, t) for every t in ts from the contour; returns (values, errors)."""
    values, errors = _bromwich("B", p.rho, p.gamma, p.lam, _check_times(ts), q)
    return values[:, 0], errors[:, 0]


def eval_A(p: KernelParams, t: float, q: QuadratureConfig | None = None,
           with_error: bool = False):
    """Relaxation kernel A(lam, t): equals 1 at t = 0, strictly decreasing."""
    values, errors = eval_A_grid(p, [t], q)
    return (float(values[0]), float(errors[0])) if with_error else float(values[0])


def eval_B(p: KernelParams, t: float, q: QuadratureConfig | None = None,
           with_error: bool = False):
    """Impulse-response kernel B(lam, t): equals 1 at t = 0, in (0, 1) after."""
    values, errors = eval_B_grid(p, [t], q)
    return (float(values[0]), float(errors[0])) if with_error else float(values[0])


def eval_dA_dt(p: KernelParams, t: float, q: QuadratureConfig | None = None):
    """d/dt A(lam, t) = -lam * B(lam, t), valid for t > 0."""
    if not t > 0.0:
        raise ValueError("derivative of A requires t > 0")
    return -p.lam * eval_B(p, t, q)


MIN_DERIVATIVE_TIME = 1e-6


def eval_dB_dt_grid(p: KernelParams, ts, q: QuadratureConfig | None = None,
                    min_time: float = MIN_DERIVATIVE_TIME):
    """d/dt B(lam, t) on a grid of t >= min_time; returns (values, errors).

    Refuses very small times: r density_B(r) decays only like r^(rho - 1),
    so the integrand -r exp(-r t) density_B(r) is integrable only through
    exp(-r t), and dB/dt grows without bound as t -> 0.
    """
    arr = _check_times(ts, minimum=min_time, what="derivative time")
    values, errors = exp_weighted_semiinfinite(
        lambda r: r * density_B(r, p), arr,
        singular_exponent=0.0, q=q,
    )
    return -values, errors


def eval_dB_dt(p: KernelParams, t: float, q: QuadratureConfig | None = None,
               min_time: float = MIN_DERIVATIVE_TIME):
    """d/dt B(lam, t), strictly negative for t >= min_time."""
    values, _ = eval_dB_dt_grid(p, [t], q, min_time=min_time)
    return float(values[0])


def _lower_bound(rho, gamma, lambda_1, T, power, q):
    """gamma sin(pi rho) / (3 pi) int_0^inf r^power e^(-rT) / denominator dr."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    if gamma <= 0.0 or lambda_1 <= 0.0 or T <= 0.0:
        raise ValueError("gamma, lambda_1 and T must be positive")

    def dens(r):
        denom = r ** 2 / lambda_1 ** 2 + gamma ** 2 * r ** (2.0 * rho) + 1.0
        return r ** power * np.exp(-r * T) / denom

    value, _ = integrate_semiinfinite(dens, min(power, 0.0), q)
    return gamma * math.sin(math.pi * rho) / (3.0 * math.pi) * value


def lower_bound_A(rho: float, gamma: float, lambda_1: float, T: float,
                  q: QuadratureConfig | None = None) -> float:
    """Uniform lower bound on A(lam_k, t) over lam_k >= lambda_1, t in [0, T]."""
    return _lower_bound(rho, gamma, lambda_1, T, rho - 1.0, q)


def lower_bound_B(rho: float, gamma: float, lambda_1: float, T: float,
                  q: QuadratureConfig | None = None) -> float:
    """Uniform lower bound on lam_k * B(lam_k, t) over lam_k >= lambda_1, [0, T].

    The prefactor gamma*sin(pi rho)/(3 pi) follows from bounding the
    density denominator by 3 lam^2 (r^2/lambda_1^2 + gamma^2 r^(2 rho) + 1),
    the same step that yields the A bound.  A sharper-looking sin(pi rho)/4
    prefactor circulates for this estimate but is numerically violated
    (e.g. rho=0.3, gamma=2, lam=100, t=T=1 gives lam*B ~ 0.07224 against a
    claimed bound of 0.07284), so the provable constant is used.
    """
    return _lower_bound(rho, gamma, lambda_1, T, rho, q)


def laplace_A_closed_form(p: KernelParams, z: float) -> float:
    """Laplace transform of A: (1 + lam*gamma*z^(rho-1)) / (z + lam + lam*gamma*z^rho)."""
    if not z > 0.0:
        raise ValueError("transform variable z must be positive")
    return float(_transforms(z, p.rho, p.gamma, p.lam)[0])


def laplace_B_closed_form(p: KernelParams, z: float) -> float:
    """Laplace transform of B: 1 / (z + lam + lam*gamma*z^rho)."""
    if not z > 0.0:
        raise ValueError("transform variable z must be positive")
    return float(_transforms(z, p.rho, p.gamma, p.lam)[1])


def laplace_transform_numeric(p: KernelParams, z: float,
                              q: QuadratureConfig | None = None,
                              kernel: str = "A",
                              folds: float = 50.0) -> tuple[float, float]:
    """Numerically transform an evaluated kernel: int_0^{folds/z} e^{-zt} K(t) dt.

    Cross-check target for the closed forms; the truncated tail beyond
    folds/z is exponentially negligible.  Returns (value, error_estimate).
    """
    if not z > 0.0:
        raise ValueError("transform variable z must be positive")
    if kernel not in ("A", "B"):
        raise ValueError("kernel must be 'A' or 'B'")
    if q is None:
        q = QuadratureConfig()
    grid_eval = eval_A_grid if kernel == "A" else eval_B_grid
    t_max = folds / z

    def fvec(ts):
        return np.exp(-z * ts) * grid_eval(p, ts, q)[0]

    # Geometric breakpoints resolve both the weak t -> 0 singularity in the
    # kernel's higher derivatives and the exponential damping scale 1/z.
    inner = t_max * 1e-6
    n_geo = int(math.ceil(math.log(t_max / inner) / math.log(2.0)))
    breaks = np.concatenate((
        [0.0], inner * 2.0 ** np.arange(n_geo), [t_max],
    ))
    breaks = np.unique(breaks[breaks <= t_max])
    return adaptive_finite(
        fvec, breaks,
        tol_abs=max(10.0 * q.abs_tol, 1e-11),
        tol_rel=max(10.0 * q.rel_tol, 1e-7),
    )
