"""Adaptive quadrature for the improper spectral-density integrals.

All relaxation-kernel values reduce to integrals of the form

    I(t) = int_0^inf exp(-r t) dens(r) dr

where ``dens`` has an integrable power singularity ``r**sigma`` (sigma in
(-1, 0]) at the origin and decays algebraically at infinity.  The engine
splits the half line at ``split_point``:

* on ``[0, split]`` the substitution ``r = s**(1/(1+sigma))`` removes the
  endpoint singularity exactly, after which adaptive Gauss-Legendre panels
  (with the Kronrod extension supplying the error estimate) converge fast;
* on ``[split, inf)`` geometric bands are appended until the tail
  remainder, extrapolated from the observed band decay, is negligible.

Every panel is stored as plain nodes-plus-weights in the original ``r``
variable, so one adapted panel set evaluates the whole family
``{I(t) : t in ts}`` at once.  The solve path takes its kernels from the
Bromwich contour in ``kernel``; this engine serves dB/dt, the lower bounds
and the reference values the verification suites compare against, on at
most a few hundred times per call.
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
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GIDX = np.arange(1, 15, 2)

_GROW = 4.0           # geometric ratio of tail bands
_R_CAP = 1e120        # hard truncation of the half line
_EXP_FOLDS = 45.0     # exp(-45) ~ 3e-20: bands beyond this are noise


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget; ``rel_tol`` also sizes the kernel contour.

    The Bromwich contour in ``kernel`` reads only ``rel_tol``.  This engine
    reads all four; it performs at most ``64 * max_refinements`` panel
    bisections per integral family before reporting nonconvergence.
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


class _Panel:
    """One quadrature panel reduced to nodes and weights in r-space.

    The panel contribution to I(t) is ``pk @ exp(-r t)``; the embedded
    Gauss value ``pg @ exp(-r[1::2] t)`` supplies the error estimate.
    ``band`` is the index of the geometric tail band the panel belongs to,
    or -1 for the singular region below the split point.
    """

    __slots__ = ("lo", "hi", "beta", "band", "r", "pk", "pg")

    def __init__(self, lo, hi, beta, band, r, pk, pg):
        self.lo = lo
        self.hi = hi
        self.beta = beta
        self.band = band
        self.r = r
        self.pk = pk
        self.pg = pg


def _make_panel(dens, lo, hi, beta, band):
    """Build a panel over [lo, hi] in the x coordinate, r = x**(1/beta)."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _XK
    if beta == 1.0:
        r = x
        jac = np.ones_like(x)
    else:
        inv = 1.0 / beta
        r = x ** inv
        jac = inv * x ** (inv - 1.0)
    f = np.asarray(dens(r), dtype=float)
    if f.shape != r.shape:
        raise ValueError("integrand must be vectorized (shape-preserving)")
    if not np.all(np.isfinite(f)):
        # e.g. r = x**(1/beta) underflowing to 0 for a tiny beta
        raise ValueError(f"integrand is not finite on [{lo:g}, {hi:g}]")
    base = half * jac * f
    return _Panel(lo, hi, beta, band, r, _WK * base, _WG * base[_GIDX])


def _panel_rows(panel, ts):
    """Kronrod value and |K-G| error of one panel for every t in ts."""
    e = np.exp(-np.outer(panel.r, ts))
    v = panel.pk @ e
    g = panel.pg @ e[_GIDX]
    return v, np.abs(v - g)


class _Workspace:
    """Panels plus their cached value/error rows on the requested times."""

    def __init__(self, dens, ts):
        self.dens = dens
        self.ts = ts
        self.panels: list[_Panel] = []
        self.rows_v: list[np.ndarray] = []
        self.rows_e: list[np.ndarray] = []
        self.n_bands = 0

    def add(self, lo, hi, beta, band):
        p = _make_panel(self.dens, lo, hi, beta, band)
        v, e = _panel_rows(p, self.ts)
        self.panels.append(p)
        self.rows_v.append(v)
        self.rows_e.append(e)

    def add_band(self, split):
        lo = split * _GROW ** self.n_bands
        hi = lo * _GROW
        self.add(lo, hi, 1.0, self.n_bands)
        self.n_bands += 1

    def split_worst(self, bad):
        scores = [np.max(e[bad]) for e in self.rows_e]
        i = int(np.argmax(scores))
        p = self.panels[i]
        mid = 0.5 * (p.lo + p.hi)
        if mid <= p.lo or mid >= p.hi:
            return False
        left = _make_panel(self.dens, p.lo, mid, p.beta, p.band)
        self.panels[i] = left
        self.rows_v[i], self.rows_e[i] = _panel_rows(left, self.ts)
        self.add(mid, p.hi, p.beta, p.band)
        return True

    def totals(self):
        return np.sum(self.rows_v, axis=0), np.sum(self.rows_e, axis=0)

    def band_row(self, band):
        rows = [v for p, v in zip(self.panels, self.rows_v) if p.band == band]
        return np.sum(rows, axis=0)

    def tail_remainder(self, decay, split):
        """Per-t bound on the not-yet-integrated tail beyond the last band.

        Extrapolates geometrically from the last two band contributions;
        infinite where the observed decay is too weak to extrapolate, unless
        exponential damping has already pushed the frontier past relevance.
        """
        frontier = split * _GROW ** self.n_bands
        if self.n_bands < 2:
            return np.full(self.ts.shape, np.inf)
        last = np.abs(self.band_row(self.n_bands - 1))
        if decay > 0.0 and frontier * decay > _EXP_FOLDS:
            return last * 1e-12
        prev = np.abs(self.band_row(self.n_bands - 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(prev > 0.0, last / prev, 0.0)
        rem = last * np.clip(ratio, 0.0, 0.97) / (1.0 - np.clip(ratio, 0.0, 0.97))
        rem[ratio >= 0.97] = np.inf
        return rem


def exp_weighted_semiinfinite(
    dens: Callable[[np.ndarray], np.ndarray],
    ts: Sequence[float] | np.ndarray,
    *,
    singular_exponent: float = 0.0,
    extra_decay: float = 0.0,
    q: QuadratureConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``int_0^inf exp(-r t) dens(r) dr`` for every t in ``ts``.

    ``dens`` must be vectorized and t-independent; ``singular_exponent`` is
    its power behaviour at r -> 0.  ``extra_decay`` declares exponential
    decay carried inside ``dens`` itself (used when integrating a fully
    formed integrand with ts = [0]).

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

    decay = float(ts.min()) + extra_decay
    ws = _Workspace(dens, ts)
    beta = 1.0 + singular_exponent
    split = q.split_point
    xs = np.linspace(0.0, split ** beta, 5)
    for lo, hi in zip(xs[:-1], xs[1:]):
        ws.add(lo, hi, beta, -1)
    ws.add_band(split)
    ws.add_band(split)

    reason = "refinement budget exhausted before reaching tolerance"
    for _ in range(64 * q.max_refinements):
        total_v, total_e = ws.totals()
        rem = ws.tail_remainder(decay, split)
        tol = np.maximum(q.abs_tol, q.rel_tol * np.abs(total_v))

        frontier = split * _GROW ** ws.n_bands
        tail_open = frontier < _R_CAP and not (
            decay > 0.0 and frontier * decay > _EXP_FOLDS
        )
        if np.any(rem > 0.25 * tol) and tail_open:
            ws.add_band(split)
            continue

        bad = total_e + np.where(np.isfinite(rem), rem, 0.0) > tol
        bad |= (rem > 0.25 * tol) & ~np.isfinite(rem)
        if not np.any(bad):
            return _final_eval(ws, decay, split)
        if not ws.split_worst(bad):
            reason = "worst panel at floating-point resolution before tolerance"
            break
    values, errors = _final_eval(ws, decay, split)
    raise QuadratureNonconvergence(
        reason,
        value=values if values.size > 1 else float(values[0]),
        error_bound=errors if errors.size > 1 else float(errors[0]),
    )


def _final_eval(ws, decay, split):
    """Values and error bounds (panel errors plus the tail) of the panel set."""
    values, errors = ws.totals()
    rem = ws.tail_remainder(decay, split)
    return values, errors + np.where(np.isfinite(rem), rem,
                                     np.abs(ws.band_row(ws.n_bands - 1)))


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    singular_exponent: float = 0.0,
    decay_scale: float = 0.0,
    q: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Integrate ``f`` over [0, inf).

    ``f`` must behave like ``r**singular_exponent`` near zero and decay at
    least like ``exp(-r * decay_scale)`` at infinity, or algebraically of
    order < -1 when ``decay_scale`` is zero.  Returns ``(value, error)``.
    """
    if decay_scale < 0.0:
        raise ValueError("decay_scale must be nonnegative")
    values, errors = exp_weighted_semiinfinite(
        f, [0.0], singular_exponent=singular_exponent,
        extra_decay=decay_scale, q=q,
    )
    return float(values[0]), float(errors[0])


def graded_mesh(t_end: float, cells: int, exponent: float,
                t_start: float = 0.0, toward: str = "start") -> np.ndarray:
    """Breakpoints of a mesh on [t_start, t_end] clustered at one end."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if not t_end > t_start:
        raise ValueError("empty mesh interval")
    u = (np.arange(cells + 1) / cells) ** exponent
    if toward == "start":
        return t_start + (t_end - t_start) * u
    if toward == "end":
        return t_end - (t_end - t_start) * u[::-1]
    raise ValueError("toward must be 'start' or 'end'")


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

    def eval_segments(segments):
        los = np.array([s[0] for s in segments])
        his = np.array([s[1] for s in segments])
        half = 0.5 * (his - los)
        nodes = 0.5 * (his + los)[:, None] + half[:, None] * _XK[None, :]
        f = np.asarray(fvec(nodes.ravel()), dtype=float).reshape(nodes.shape)
        vk = half * (f @ _WK)
        vg = half * (f[:, _GIDX] @ _WG)
        return [
            (seg[0], seg[1], vk[i], abs(vk[i] - vg[i]))
            for i, seg in enumerate(segments)
        ]

    items = eval_segments(list(zip(breaks[:-1], breaks[1:])))
    for _ in range(max_rounds):
        value = sum(it[2] for it in items)
        err = sum(it[3] for it in items)
        if err <= max(tol_abs, tol_rel * abs(value)):
            return value, err
        items.sort(key=lambda it: it[3], reverse=True)
        n_split = max(1, len(items) // 8)
        split, keep = items[:n_split], items[n_split:]
        new_segs = []
        for lo, hi, v, e in split:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                keep.append((lo, hi, v, e))
                continue
            new_segs.extend([(lo, mid), (mid, hi)])
        if not new_segs:
            break
        items = keep + eval_segments(new_segs)
    value = sum(it[2] for it in items)
    err = sum(it[3] for it in items)
    if err > max(tol_abs, tol_rel * abs(value)):
        raise QuadratureNonconvergence(
            "finite-interval refinement budget exhausted",
            value=value, error_bound=err,
        )
    return value, err
