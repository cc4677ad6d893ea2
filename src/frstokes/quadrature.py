"""Adaptive quadrature for the improper spectral-density integrals.

All relaxation-kernel values reduce to integrals of the form

    I(t) = int_0^inf exp(-r t) dens(r) dr

where ``dens`` has an integrable power singularity ``r**sigma`` (sigma in
(-1, 0]) at the origin and decays algebraically at infinity.  The engine
splits the half line at ``split_point`` and maps both parts onto finite
intervals:

* on ``[0, split]`` the substitution ``r = x**(1/(1+sigma))`` removes the
  endpoint singularity exactly;
* on ``[split, inf)`` the substitution ``r = split * y**-TAIL_POWER`` maps
  the tail onto ``y in (0, 1]`` (QUADPACK's ``qagi`` device, Piessens et
  al. 1983), where a density of order below -1 at infinity becomes
  integrable at ``y = 0``.

Both parts then run through one adaptive Gauss-Kronrod refinement loop,
``_refine``, on ``kernel``'s 7/15 rule, which also serves
``adaptive_finite``.  One adapted panel set
evaluates the whole family ``{I(t) : t in ts}`` at once, and for a density
with k columns (several densities sharing one substitution, say the two
kernels' densities) the k families together: every node is evaluated
once, and the panels refine until each output meets the tolerance.  The
integrand reaches ``_refine`` as two factors, the Jacobian-weighted
densities (n, k) and exp(-r t) (n, T), and a round's Kronrod and Gauss
sums are one stacked (panels, 2k, 15) @ (panels, 15, T) product.  Every
runtime kernel value, dB/dt included, comes from the Bromwich contour in
``kernel``, the numeric Laplace transform from the fixed rule
``kernel._laplace_rule``, and the verification suites' density references
from the fixed rule ``verification._density_rule``: no module of the
package imports this engine.  It serves only the tests, as those rules'
independent oracle, and the benchmark.  ``QuadratureConfig`` and the
Kronrod arrays are ``kernel``'s, imported here; of the config the engine
alone reads ``abs_tol`` and ``split_point``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .kernel import _WG, _WK, _XK, QuadratureConfig

__all__ = [
    "QuadratureConfig",
    "QuadratureNonconvergence",
    "exp_weighted_semiinfinite",
    "adaptive_finite",
]

TAIL_POWER = 16.0   # r = split * y**-16: a tail r**-p becomes y**(16 p - 17)
MAX_SPLITS = 64 * 30  # bisections per integral family before nonconvergence


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureNonconvergence(RuntimeError):
    """Tolerance unmet after the refinement budget.

    Carries the best available estimate in ``value`` and the achieved error
    bound in ``error_bound`` (arrays when a batch was requested).
    """

    def __init__(self, message, value=None, error_bound=None):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound


class _BeyondRange(ValueError):
    """A non-finite integrand value at a node its substitution cannot map."""


def _refine(integrand, breaks, abs_tol, rel_tol, in_range=None):
    """Adaptive Gauss-Kronrod on the panels between consecutive ``breaks``.

    ``integrand`` maps nodes of shape (n,) to two factors: values of shape
    (n, k) and decay factors of shape (n, T), finite wherever the values
    are.  The outputs are the k * T integrals of their products,
    density-major (output j * T + i pairs column j with decay i).  It runs
    once per round, on every new node at once, with numpy's floating-point
    warnings silenced (a non-finite value raises ValueError instead).  Each
    round bisects the worst eighth of the panels, ranked by
    |Kronrod - Gauss| over the tolerance of each output still open, until
    every output meets ``max(abs_tol, rel_tol * |value|)``.
    Returns the per-output (values, errors).  Raises
    :class:`QuadratureNonconvergence` with them once ``MAX_SPLITS``
    bisections are spent, when the worst panels reach
    floating-point resolution, or when the integrand is not finite on a
    new panel at a node that ``in_range`` (a mask of the nodes the
    integrand's substitution can represent) rejects.  In that last case
    the panels miss part of the integral, so the error bound is infinite.
    """

    def panel_sums(lo, hi):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
        with np.errstate(all="ignore"):
            f, decay = integrand(x.ravel())
        f = np.asarray(f, dtype=float).reshape(x.shape + (-1,))
        finite = np.all(np.isfinite(f), axis=(1, 2))
        if not np.all(finite):
            i = int(np.argmin(finite))
            beyond = in_range is not None and not np.all(in_range(x[i]))
            raise (_BeyondRange if beyond else ValueError)(
                f"integrand is not finite on [{lo[i]:g}, {hi[i]:g}]")
        # Kronrod and Gauss weights times the k columns, against the T decay
        # factors: one (P, 2k, 15) @ (P, 15, T) product, density-major out
        rule = np.concatenate((_WK[:, None] * f, _WG[:, None] * f), axis=2)
        sums = np.swapaxes(rule, 1, 2) @ decay.reshape(x.shape + (-1,))
        sums = half[:, None, None] * sums.reshape(lo.size, 2, -1)
        return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])

    lo, hi = breaks[:-1], breaks[1:]
    vals, errs = panel_sums(lo, hi)
    splits = 0
    reason = "refinement budget exhausted before reaching tolerance"
    while True:
        value, error = vals.sum(axis=0), errs.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(value))
        unmet = error > tol
        if not np.any(unmet):
            return value, error
        if splits >= MAX_SPLITS:
            break
        score = np.max(errs * np.where(unmet, 1.0 / tol, 0.0), axis=1)
        n_split = min(max(1, lo.size // 8), MAX_SPLITS - splits)
        worst = np.argsort(-score)[:n_split]
        mid = 0.5 * (lo[worst] + hi[worst])
        ok = (lo[worst] < mid) & (mid < hi[worst])
        if not np.any(ok):
            reason = "worst panel at floating-point resolution before tolerance"
            break
        worst, mid = worst[ok], mid[ok]
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        new_lo = np.concatenate((lo[worst], mid))
        new_hi = np.concatenate((mid, hi[worst]))
        try:
            new_vals, new_errs = panel_sums(new_lo, new_hi)
        except _BeyondRange:
            reason = "worst panel at the float range of the substitution"
            error = np.full_like(error, np.inf)
            break
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
        splits += worst.size
    raise QuadratureNonconvergence(
        reason,
        value=value if value.size > 1 else float(value[0]),
        error_bound=error if error.size > 1 else float(error[0]),
    )


def exp_weighted_semiinfinite(
    dens: Callable[[np.ndarray], np.ndarray],
    ts: Sequence[float] | np.ndarray,
    *,
    singular_exponent: float = 0.0,
    q: QuadratureConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``int_0^inf exp(-r t) dens(r) dr`` for every t in ``ts``.

    ``dens`` must be vectorized and t-independent; ``singular_exponent`` is
    its power behaviour at r -> 0.  At t = 0 it must decay faster than
    ``1/r`` at infinity.  ``dens`` maps nodes of shape (n,) to (n,), or to
    (n, k) for k densities integrated on one adapted panel set, each held
    to the tolerance on its own.

    Returns ``(values, errors)`` aligned with ``ts``: shaped (ts.size,), or
    (ts.size, k) for k densities.  Raises :class:`QuadratureNonconvergence`
    (best estimates attached, flattened density-major) if the refinement
    budget is exhausted first.
    """
    if q is None:
        q = DEFAULT_CONFIG
    if not -1.0 < singular_exponent <= 0.0:
        raise ValueError("singular_exponent must lie in (-1, 0]")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        raise ValueError("ts must be non-empty")
    if np.any(ts < 0.0):
        raise ValueError("decay scales must be nonnegative")

    beta = 1.0 + singular_exponent
    inv = 1.0 / beta
    split = q.split_point
    shape = [ts.size]   # (ts.size, k) once dens returns k columns

    def tail(y):
        # r = split * y**-TAIL_POWER and its Jacobian
        r = split * y ** -TAIL_POWER
        return r, TAIL_POWER * r / y

    def integrand(x):
        # head nodes x in (0, split**beta]: r = x**(1/beta); tail nodes
        # x = -y, y in (0, 1): the tail map
        tail_r, tail_jac = tail(-x)
        r = np.where(x < 0.0, tail_r, x ** inv)
        jac = np.where(x < 0.0, tail_jac, inv * x ** (inv - 1.0))
        f = np.asarray(dens(r), dtype=float)
        if f.shape[:1] != r.shape or f.ndim > 2:
            raise ValueError("integrand must be vectorized (shape-preserving)")
        shape[1:] = f.shape[1:]
        return jac[:, None] * f.reshape(r.size, -1), np.exp(-np.outer(r, ts))

    def in_range(x):
        # the tail map overflows below y ~ 1e-18, which a slow tail at t = 0
        # reaches by bisecting its end panel
        with np.errstate(all="ignore"):
            return (x > 0.0) | np.isfinite(tail(-x)[1])

    breaks = np.concatenate(([-1.0], np.linspace(0.0, split ** beta, 5)))
    values, errors = _refine(integrand, breaks, q.abs_tol, q.rel_tol,
                             in_range)
    # density-major inside: one transpose to (ts.size, k)
    return (values.reshape(-1, ts.size).T.reshape(shape),
            errors.reshape(-1, ts.size).T.reshape(shape))


def adaptive_finite(
    fvec: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[float] | np.ndarray,
    *,
    tol_abs: float,
    tol_rel: float,
) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integration over a pre-broken finite interval.

    ``fvec`` is called once per refinement round with all new nodes gathered
    into a single array, which keeps batch-expensive integrands (kernel
    evaluations over time grids) efficient.  The refinement budget is the
    semi-infinite engine's, ``MAX_SPLITS`` bisections.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2 or np.any(np.diff(breaks) <= 0.0):
        raise ValueError("breaks must be strictly increasing with >= 2 entries")
    value, error = _refine(lambda x: (np.reshape(fvec(x), (-1, 1)),
                                      np.ones((x.size, 1))),
                           breaks, tol_abs, tol_rel)
    return float(value[0]), float(error[0])
