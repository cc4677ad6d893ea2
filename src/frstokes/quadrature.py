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
``_refine``, which also serves ``adaptive_finite``.  One adapted panel set
evaluates the whole family ``{I(t) : t in ts}`` at once.  The solve path
takes its kernels from the Bromwich contour in ``kernel``; this engine
serves dB/dt, the lower bounds and the reference values the verification
suites compare against, on at most a few hundred times per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureNonconvergence",
    "integrate_semiinfinite",
    "exp_weighted_semiinfinite",
    "adaptive_finite",
    "graded_mesh",
]

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

TAIL_POWER = 16.0   # r = split * y**-16: a tail r**-p becomes y**(16 p - 17)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget; ``rel_tol`` also sizes the kernel contour.

    The Bromwich contour in ``kernel`` reads only ``rel_tol``.  This engine
    reads all four; it bisects at most ``64 * max_refinements`` panels per
    integral family before reporting nonconvergence.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_refinements: int = 30
    split_point: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if not self.split_point > 0.0:
            raise ValueError("split_point must be positive")


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


def _refine(integrand, breaks, abs_tol, rel_tol, max_rounds, max_splits):
    """Adaptive Gauss-Kronrod on the panels between consecutive ``breaks``.

    ``integrand`` maps nodes of shape (n,) to values of shape (n, m), one
    column per output; it runs once per round, on every new node at once,
    with numpy's floating-point warnings silenced (a non-finite value raises
    ValueError instead).  Each round bisects the worst eighth of the panels,
    ranked by |Kronrod - Gauss| over the tolerance of each output still
    open, until every output meets ``max(abs_tol, rel_tol * |value|)``.
    Returns the per-output (values, errors); raises
    :class:`QuadratureNonconvergence` with them once ``max_rounds`` rounds
    or ``max_splits`` bisections are spent.
    """

    def panel_sums(lo, hi):
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
        with np.errstate(all="ignore"):
            f = np.asarray(integrand(x.ravel()), dtype=float)
        f = f.reshape(x.shape + (-1,))
        finite = np.all(np.isfinite(f), axis=(1, 2))
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise ValueError(f"integrand is not finite on [{lo[i]:g}, {hi[i]:g}]")
        k = half[:, None] * (_WK @ f)
        return k, np.abs(k - half[:, None] * (_WG @ f))

    lo, hi = breaks[:-1], breaks[1:]
    vals, errs = panel_sums(lo, hi)
    rounds = splits = 0
    reason = "refinement budget exhausted before reaching tolerance"
    while True:
        value, error = vals.sum(axis=0), errs.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(value))
        unmet = error > tol
        if not np.any(unmet):
            return value, error
        if rounds >= max_rounds or splits >= max_splits:
            break
        score = np.max(errs[:, unmet] / tol[unmet], axis=1)
        n_split = min(max(1, lo.size // 8), max_splits - splits)
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
        new_vals, new_errs = panel_sums(new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))
        rounds += 1
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
    ``1/r`` at infinity.

    Returns ``(values, errors)`` aligned with ``ts``.  Raises
    :class:`QuadratureNonconvergence` (best estimates attached) if the
    refinement budget is exhausted first.
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

    def integrand(x):
        # head nodes x in (0, split**beta]: r = x**(1/beta); tail nodes
        # x = -y, y in (0, 1): r = split * y**-TAIL_POWER
        y = -x
        r = np.where(x < 0.0, split * y ** -TAIL_POWER, x ** inv)
        jac = np.where(x < 0.0, TAIL_POWER * r / y, inv * x ** (inv - 1.0))
        f = np.asarray(dens(r), dtype=float)
        if f.shape != r.shape:
            raise ValueError("integrand must be vectorized (shape-preserving)")
        return (jac * f)[:, None] * np.exp(-np.outer(r, ts))

    breaks = np.concatenate(([-1.0], np.linspace(0.0, split ** beta, 5)))
    budget = 64 * q.max_refinements
    return _refine(integrand, breaks, q.abs_tol, q.rel_tol, budget, budget)


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    singular_exponent: float = 0.0,
    q: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over [0, inf).

    ``f`` must behave like ``r**singular_exponent`` near zero and decay
    faster than ``1/r`` at infinity.  Returns ``(value, error)``.
    """
    values, errors = exp_weighted_semiinfinite(
        f, [0.0], singular_exponent=singular_exponent, q=q)
    return float(values[0]), float(errors[0])


def graded_mesh(t_end: float, cells: int, exponent: float,
                t_start: float = 0.0) -> np.ndarray:
    """Breakpoints of a mesh on [t_start, t_end] clustered toward t_start."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if not t_end > t_start:
        raise ValueError("empty mesh interval")
    u = (np.arange(cells + 1) / cells) ** exponent
    return t_start + (t_end - t_start) * u


def adaptive_finite(
    fvec: Callable[[np.ndarray], np.ndarray],
    breaks: Sequence[float] | np.ndarray,
    *,
    tol_abs: float,
    tol_rel: float,
    max_rounds: int = 24,
) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integration over a pre-broken finite interval.

    ``fvec`` is called once per refinement round with all new nodes gathered
    into a single array, which keeps batch-expensive integrands (kernel
    evaluations over time grids) efficient.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.size < 2 or np.any(np.diff(breaks) <= 0.0):
        raise ValueError("breaks must be strictly increasing with >= 2 entries")
    value, error = _refine(lambda x: np.reshape(fvec(x), (-1, 1)), breaks,
                           tol_abs, tol_rel, max_rounds, np.inf)
    return float(value[0]), float(error[0])
