"""Relaxation kernels of the fractional Rayleigh-Stokes scalar problem.

The scalar mode problem

    y'(t) + lam * (1 + gamma * D_t^rho) y(t) = f(t)

has two fundamental solutions: ``A(lam, t)`` (unit initial value, zero
source) and ``B(lam, t)`` (the impulse response convolved against the
source).  Their Laplace transforms are explicit,

    A^(z) = (1 + lam gamma z^(rho-1)) / (z + lam + lam gamma z^rho),
    B^(z) = 1 / (z + lam + lam gamma z^rho),

and A, B, dB/dt (transform z B^(z) - 1 = -(lam + lam gamma z^rho) B^(z))
and the antiderivative Phi(t) = int_0^t A (transform A^(z) / z) come from
one hyperbolic Bromwich contour that serves every eigenvalue at once
(Weideman & Trefethen 2007, Math. Comp. 76:1341-1356).  Its sum is one
fixed-order dot product per time and column, the time's exponentials on
the nodes of its window's contour against the column's weighted
transform, so a value does not depend on the other times, columns or
kinds it is asked with.  A column carries its own (rho, gamma, lam): the
exponentials depend on the times and nodes alone, so one call serves many
(rho, gamma) cells on the same times.
Both kernels are also Laplace integrals of explicit spectral densities on
the positive half line; the verification suites integrate those by a fixed
rule in log r (``verification._density_rule``) as the independent
reference.  The uniform-in-mode lower bounds are one fixed rule in log r
each, and the numeric Laplace transform of contour values one fixed rule
in t (``_laplace_rule``), with no tolerance of their own.  All of these
fixed rules lay out the one 15-point Gauss-Kronrod rule held here
(``_kronrod_cells``); the adaptive engine of ``quadrature``, which serves
only the tests and the benchmark, takes its nodes from here too, and no
module of the package imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParams",
    "QuadratureConfig",
    "density_A",
    "density_B",
    "eval_A",
    "eval_A_grid",
    "eval_B_grid",
    "eval_dB_dt_grid",
    "lower_bound_A",
    "lower_bound_B",
    "laplace_A_closed_form",
    "laplace_B_closed_form",
    "laplace_transform_numeric",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances; ``rel_tol`` sizes the Bromwich contour.

    The package reads ``rel_tol`` alone.  ``abs_tol`` and ``split_point``
    are read only by the adaptive engine of ``quadrature``, the tests'
    oracle, and set by the benchmark's reference configuration; they go
    with the engine.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    split_point: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be strictly positive")
        if not self.split_point > 0.0:
            raise ValueError("split_point must be positive")


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
# Odd-index nodes are the embedded Gauss points.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
]


def _kronrod_cells(breaks):
    """The 15 Kronrod nodes of each cell between consecutive breaks (last
    axis), shaped (..., cells, 15), and the cells' half-widths (..., cells)."""
    half = 0.5 * np.diff(breaks)
    return (breaks[..., :-1] + half)[..., None] + half[..., None] * _XK, half


@dataclass(frozen=True)
class KernelParams:
    """One scalar mode: fractional order rho, relaxation gamma, eigenvalue lam."""

    rho: float
    gamma: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie strictly inside (0, 1), got {self.rho}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


def _check_positive_r(r):
    arr = np.asarray(r, dtype=float)
    if not np.all((0.0 < arr) & (arr < math.inf)):
        raise ValueError("density argument r must be positive and finite")
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


def _check_times(ts):
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    if np.any(arr < 0.0):
        raise ValueError("t must be >= 0")
    return arr


def _power(z, rho):
    """z ** rho; rho a scalar, or one exponent per column of z (..., 1).

    Each distinct exponent is raised once, as a Python float, so a column
    is bit for bit its scalar power: numpy's power takes fast paths for a
    scalar exponent (z ** 0.5 is a square root) that an array one misses.
    """
    if np.ndim(rho) == 0:
        return z ** rho
    exponents, which = np.unique(rho, return_inverse=True)
    powers = [z ** float(r) for r in exponents]
    return np.concatenate(powers, axis=-1)[..., which]


def _transform(kinds, z, rho, gamma, lam):
    """Laplace transforms of each of kinds ("A", "B" or dB/dt as "dB"), z
    broadcast against lam, yielded in the order of kinds.

    rho and gamma are scalars or, like lam, one value per column.  The kinds
    share one power z ** rho and one denominator z + lam + lam gamma z^rho;
    each transform is formed when it is asked for, so a caller that weights
    and drops one before the next holds one at a time.
    """
    lgz = lam * gamma * _power(z, rho)
    d = z + lam + lgz
    for kind in kinds:
        if kind == "B":
            yield 1.0 / d
        elif kind == "dB":
            yield -(lam + lgz) / d
        else:
            yield (1.0 + lgz / z) / d


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
# (0, 1], each value summed as _contour_sum's per-window dot product.  Past
# N = 32 rounding (the contour's growth factor) wins: N = 36 gives 1.4e-10.
CONTOUR_ERRORS = {8: 3.6e-4, 12: 1.4e-5, 16: 5.9e-7, 20: 2.5e-8,
                  24: 1.1e-9, 28: 5.2e-11, 32: 8.0e-12}
BLOCK_ELEMENTS = 1 << 16    # a block's times x (2 (N + 1) + modes)


def _contour_size(q: QuadratureConfig | None) -> int:
    """The smallest N whose measured error is at most rel_tol / 100."""
    tol = (q or QuadratureConfig()).rel_tol / 100.0
    return min((n for n, err in CONTOUR_ERRORS.items() if err <= tol),
               default=max(CONTOUR_ERRORS))


def _contour_sum(transform, t: np.ndarray, n: int) -> np.ndarray:
    """Trapezoid sum of the Bromwich integral at every t > 0, on 2n + 1 nodes.

    transform(z, dz) maps the nodes z and their weights dz, both shaped
    (windows, n + 1, 1) and scaled to each window, to the weighted
    transform, shaped (windows, n + 1, M); it, its weights and the sums run
    with numpy's floating-point warnings silenced, and conjugate symmetry
    halves the nodes.  The times are taken window by window, in blocks of
    rows with rows x (2(n + 1) + M) at most BLOCK_ELEMENTS: a row is
    [Re, Im] of e^(zt) on the nodes, a mode is its window's [Im, Re] of the
    weighted transform, and each value is their contiguous length-2(n + 1)
    dot product, by einsum (never BLAS: its summation order depends on the
    shapes).  The window of t depends on t alone and the dot product's
    order on nothing else, so a value does not depend on the other times or
    modes of the call.  A window is kept as the exponent k of t_hi = 2^k and
    scaled by ldexp, so t_hi = 4^512, past the float range, is never formed.
    Returns (t.size, M).
    """
    m, e = np.frexp(t)
    e = e - (m == 0.5)                            # ceil(log2 t)
    k = 2 * -(-e // 2)                            # t_hi = 2^k
    windows, which = np.unique(k, return_inverse=True)
    iu = 1j * (CONTOUR_STEP / n) * np.arange(n + 1)
    z = CONTOUR_SCALE * n * (1.0 + np.sin(iu - CONTOUR_ALPHA))
    dz = (CONTOUR_SCALE * CONTOUR_STEP / math.pi) * 1j * np.cos(iu - CONTOUR_ALPHA)
    dz[0] *= 0.5                      # weights (h / pi) z'(u); u = 0 once
    scale = np.ldexp(1.0, -windows)[:, None, None]
    with np.errstate(all="ignore"):   # overflow gives NaN; callers check
        g = transform(z[:, None] * scale, dz[:, None] * scale)
        # (windows, M, 2(n + 1)): each mode's [Im, Re] contiguous
        g = np.concatenate((g.imag, g.real), axis=1).transpose(0, 2, 1).copy()
        out = np.empty((t.size, g.shape[1]))
        rows = max(1, BLOCK_ELEMENTS // (2 * (n + 1) + g.shape[1]))
        for w, exponent in enumerate(windows):
            at = np.flatnonzero(which == w)
            for i in range(0, at.size, rows):
                block = at[i:i + rows]
                ez = np.exp(np.multiply.outer(np.ldexp(t[block], -exponent), z))
                ez = np.concatenate((ez.real, ez.imag), axis=1)
                out[block] = np.einsum("tk,mk->tm", ez, g[w])
    return out


# Each kind's value at t = 0, where the contour is not summed; dB/dt is
# singular there.
_PINNED = {"A": 1.0, "B": 1.0, "Phi": 0.0, "dB": math.nan}


def _per_column(value, lam: np.ndarray, name: str):
    """value if a scalar, else as an array of lam's shape: one per column."""
    if np.ndim(value) == 0:
        return value
    arr = np.asarray(value, dtype=float)
    if arr.shape != lam.shape:
        raise ValueError(f"{name} has shape {arr.shape}; a scalar or lam's "
                         f"shape {lam.shape} was expected")
    return arr


def _bromwich(kinds, rho, gamma, lam, ts: np.ndarray,
              q: QuadratureConfig | None = None, error_at=slice(None)):
    """A, B, dB/dt ("dB") or Phi = int_0^t A for each of kinds (a str names
    one), every column and every t in ts.

    A column is one eigenvalue of lam with its (rho, gamma): rho and gamma
    are scalars shared by every column, or arrays of lam's shape, one per
    column, so that one call serves many (rho, gamma) cells on the same
    times and forms their exponentials e^(zt) once.  Returns (values,
    errors): values, shaped (len(kinds), ts.size, lam.size), are the
    contour sum on the N that q.rel_tol picks; errors, at ts[error_at]
    alone (slice(0) for none), are its distance from the sum on N - 4,
    which runs only where error_at selects a time t > 0.  The kinds and
    columns share each sum side by side, so a value is bit for bit that of
    a single-kind call for its column alone.  t = 0 takes _PINNED with a
    zero error bound.
    """
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    rho = _per_column(rho, lam, "rho")
    gamma = _per_column(gamma, lam, "gamma")

    def transform(z, dz):
        # Phi: A^(z) / z dz = A^(z) dz / z0 on z = z0 2^-k; the weight is
        # free of the window's scale, where A^(z) / z would overflow first
        bare = ["A" if kind == "Phi" else kind for kind in kinds]
        return np.concatenate([
            g * (dz / z) if kind == "Phi" else g * dz
            for kind, g in zip(kinds, _transform(bare, z, rho, gamma, lam))],
            axis=2)

    def contour_sum(t, n):
        out = _contour_sum(transform, t, n)
        return out.reshape(t.size, len(kinds), lam.size).transpose(1, 0, 2)

    values = np.empty((len(kinds), ts.size, lam.size))
    values[:] = np.array([_PINNED[kind] for kind in kinds])[:, None, None]
    pos = ts > 0.0
    n = _contour_size(q)
    values[:, pos] = contour_sum(ts[pos], n)
    t_err, v_err = ts[error_at], values[:, error_at]
    errors = np.zeros_like(v_err)
    pos = t_err > 0.0
    if np.any(pos):
        errors[:, pos] = np.abs(v_err[:, pos] - contour_sum(t_err[pos], n - 4))
    return values, errors


def _cell_contour(kinds, cells, lams, ts, q: QuadratureConfig | None = None):
    """Contour values of kinds for each (rho, gamma) of cells, every lam in
    lams and every t in ts, from one values-only _bromwich call.

    The columns are every lam of each cell, cell by cell; returns one
    (len(kinds), ts.size, len(lams)) view per cell.
    """
    lams = np.asarray(lams, dtype=float)
    rho, gamma = np.repeat(np.asarray(cells, dtype=float), lams.size, axis=0).T
    values, _ = _bromwich(kinds, rho, gamma, np.tile(lams, len(cells)),
                          np.asarray(ts, dtype=float), q, error_at=slice(0))
    return np.split(values, len(cells), axis=-1)


def eval_A_grid(p: KernelParams, ts, q: QuadratureConfig | None = None):
    """A(lam, t) for every t in ts from the contour; returns (values, errors)."""
    (values,), (errors,) = _bromwich("A", p.rho, p.gamma, p.lam,
                                     _check_times(ts), q)
    return values[:, 0], errors[:, 0]


def eval_B_grid(p: KernelParams, ts, q: QuadratureConfig | None = None):
    """B(lam, t) for every t in ts from the contour; returns (values, errors)."""
    (values,), (errors,) = _bromwich("B", p.rho, p.gamma, p.lam,
                                     _check_times(ts), q)
    return values[:, 0], errors[:, 0]


def eval_dB_dt_grid(p: KernelParams, ts, q: QuadratureConfig | None = None):
    """d/dt B(lam, t) < 0 at every t > 0 in ts, from the contour.

    Returns (values, errors).  Refuses t = 0, where dB/dt is singular: it
    grows like -lam gamma t^(-rho) / Gamma(1 - rho) as t -> 0.
    """
    arr = _check_times(ts)
    if np.any(arr == 0.0):
        raise ValueError("dB/dt is singular at t = 0")
    (values,), (errors,) = _bromwich("dB", p.rho, p.gamma, p.lam, arr, q)
    return values[:, 0], errors[:, 0]


def eval_A(p: KernelParams, t: float, q: QuadratureConfig | None = None) -> float:
    """Relaxation kernel A(lam, t): equals 1 at t = 0, strictly decreasing.

    Its derivative is dA/dt = -lam * B(lam, t) for t > 0.
    """
    (values,), _ = _bromwich("A", p.rho, p.gamma, p.lam, _check_times([t]), q,
                             slice(0))
    return float(values[0, 0])


# The lower bounds' rule in v = log r: unit cells from BOUND_DEPTH below the
# first feature up to r = 50 / T, past which e^(-rT) < e^-50, and below
# them cells over which r^rho halves, down to r^rho = e^-64 min(1, 1 / gamma).
BOUND_DEPTH = 40.0


def _lower_bound(rho, gamma, lambda_1, T, power):
    """gamma sin(pi rho) / (3 pi) int_0^inf r^power e^(-rT) / denominator dr.

    A fixed 15-point Kronrod rule in v = log r, the integrand formed in log
    space, so it is finite for every rho however far r = e^v under- or
    overflows.  The cells resolve the e^(-rT) cliff at r = 1/T, the turn of
    r^2 / lambda_1^2 at r = lambda_1, and the gamma^2 r^(2 rho) turn and slow
    r^(rho - 1) decay below them.  The rule reads no tolerance.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    if not (0.0 < gamma < math.inf and 0.0 < lambda_1 < math.inf
            and 0.0 < T < math.inf):
        raise ValueError("gamma, lambda_1 and T must be positive and finite")
    first = min(-math.log(T), math.log(lambda_1)) - BOUND_DEPTH
    top = math.log(50.0) - math.log(T)
    halvings = math.ceil((64.0 + max(0.0, math.log(gamma))) / math.log(2.0))
    breaks = np.concatenate((
        first - math.log(2.0) / rho * np.arange(halvings, 0, -1),
        np.linspace(first, top, math.ceil(top - first) + 1)))
    v, half = _kronrod_cells(breaks)
    log_denom = np.logaddexp(np.logaddexp(2.0 * (v - math.log(lambda_1)),
                                          2.0 * (math.log(gamma) + rho * v)), 0.0)
    f = np.exp(math.log(gamma * math.sin(math.pi * rho) / (3.0 * math.pi))
               + (power + 1.0) * v - np.exp(v + math.log(T)) - log_denom)
    return float(half @ (f @ _WK))


def lower_bound_A(rho: float, gamma: float, lambda_1: float, T: float) -> float:
    """Uniform lower bound on A(lam_k, t) over lam_k >= lambda_1, t in [0, T]."""
    return _lower_bound(rho, gamma, lambda_1, T, rho - 1.0)


def lower_bound_B(rho: float, gamma: float, lambda_1: float, T: float) -> float:
    """Uniform lower bound on lam_k * B(lam_k, t) over lam_k >= lambda_1, [0, T].

    The prefactor gamma*sin(pi rho)/(3 pi) follows from bounding the
    density denominator by 3 lam^2 (r^2/lambda_1^2 + gamma^2 r^(2 rho) + 1),
    the same step that yields the A bound.  A sharper-looking sin(pi rho)/4
    prefactor circulates for this estimate but is numerically violated
    (e.g. rho=0.3, gamma=2, lam=100, t=T=1 gives lam*B ~ 0.07224 against a
    claimed bound of 0.07284), so the provable constant is used.
    """
    return _lower_bound(rho, gamma, lambda_1, T, rho)


def laplace_A_closed_form(p: KernelParams, z: float) -> float:
    """Laplace transform of A: (1 + lam*gamma*z^(rho-1)) / (z + lam + lam*gamma*z^rho)."""
    if not 0.0 < z < math.inf:
        raise ValueError("transform variable z must be positive and finite")
    (value,) = _transform(("A",), z, p.rho, p.gamma, p.lam)
    return float(value)


def laplace_B_closed_form(p: KernelParams, z: float) -> float:
    """Laplace transform of B: 1 / (z + lam + lam*gamma*z^rho)."""
    if not 0.0 < z < math.inf:
        raise ValueError("transform variable z must be positive and finite")
    (value,) = _transform(("B",), z, p.rho, p.gamma, p.lam)
    return float(value)


def _laplace_rule(kinds, cells, lams, zs,
                  q: QuadratureConfig | None = None) -> list:
    """int_0^(50 / min z) e^(-zt) K(t) dt for each K of kinds ("A", "B"),
    each (rho, gamma) of cells, every lam in lams and every z in zs, with K
    from the contour on q.

    One fixed 15-point Kronrod rule on cells shared by every z:
    [0, 1e-6 * 50 / max z], then doubling cells up to 50 / min z, past
    which e^(-zt) < e^-50.  The doubling cells resolve the weak t -> 0
    singularity of the kernels' derivatives and every damping scale 1/z.
    One contour call serves the kinds, all nodes, every (rho, gamma) and
    every lam.  The sums over the nodes are BLAS products, whose order
    depends on the shapes, so each (rho, gamma) is summed on its own
    columns, as a call for it alone sums them.  Returns, per (rho, gamma),
    (values, errors), both (len(kinds), len(zs), len(lams)): the Kronrod
    sums, and the sums over the rule's cells of |Kronrod - embedded Gauss|.
    """
    z = np.atleast_1d(np.asarray(zs, dtype=float))
    inner, t_max = 1e-6 * 50.0 / z.max(), 50.0 / z.min()
    doublings = math.ceil(math.log2(t_max / inner))
    nodes, half = _kronrod_cells(np.concatenate((
        [0.0], inner * 2.0 ** np.arange(doublings), [t_max])))
    nodes = nodes.ravel()
    decay = np.exp(-np.outer(z, nodes))
    kronrod = decay * (half[:, None] * _WK).ravel()
    # Kronrod - Gauss weights rule cell by rule cell, (z, rule cells, 15)
    gauss_gap = (decay * (half[:, None] * (_WK - _WG)).ravel()).reshape(
        z.size, half.size, 15)
    sums = []
    for own in _cell_contour(kinds, cells, lams, nodes, q):
        own = np.ascontiguousarray(own)
        gap = np.einsum("zcn,kcnl->kzcl", gauss_gap,
                        own.reshape(len(own), half.size, 15, -1))
        sums.append((kronrod @ own, np.abs(gap).sum(axis=2)))
    return sums


def laplace_transform_numeric(p: KernelParams, z: float,
                              q: QuadratureConfig | None = None,
                              kernel: str = "A") -> tuple[float, float]:
    """Numerically transform an evaluated kernel: int_0^{50/z} e^{-zt} K(t) dt.

    Cross-check target for the closed forms; the truncated tail beyond
    50/z is exponentially negligible (e^-50).  The fixed rule of
    ``_laplace_rule`` on contour values at q.rel_tol; returns (value,
    error_estimate), the estimate being its |Kronrod - Gauss| sum.
    """
    if not 0.0 < z < math.inf:
        raise ValueError("transform variable z must be positive and finite")
    if kernel not in ("A", "B"):
        raise ValueError("kernel must be 'A' or 'B'")
    ((values, errors),) = _laplace_rule(kernel, [(p.rho, p.gamma)], [p.lam],
                                        [z], q)
    return float(values[0, 0, 0]), float(errors[0, 0, 0])
