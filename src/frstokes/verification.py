"""End-to-end property suites for the kernel and solver guarantees.

Each suite turns one family of proved statements into numerical checks with
explicit tolerances and reports the worst-case margin (tolerance minus
worst observed deviation; positive means pass).  The CLI ``verify`` command
and the acceptance test module both run these functions, so the command
line and the test suite cannot drift apart.

A suite forms each check's deviations as one array over its cases, and
``_check`` reduces it: the margin is the tolerance minus the largest
deviation, a NaN is worse than every number, so it fails its check, and a
tie keeps the first case.  Kernel-level suites sweep the standard
parameter grid rho in {0.3, 0.5, 0.7, 0.9} x gamma in {0.5, 1, 2}.
Kernel values (A, B, dB/dt) come from the Bromwich contour, as on the
solve path, through its values-only route: no suite reads the contour's
error estimate, so none pays for it.  A suite makes one contour call per
set of times for all its (rho, gamma) cells: each column carries its own
(rho, gamma, lam) (``kernel._cell_contour``), the exponentials e^(zt) are
formed once for all of them, and the contour sums each kind and column on
its own, so a column equals its single-cell, single-kind, single-mode
value bit for bit.  Each check reads its own cell's columns; a density
pass holds one cell, one column per eigenvalue.
int_0^t B is a fixed 15-point Kronrod rule on a graded mesh, the nodes of
all its times in one contour call per rho (the mesh depends on rho), and
laplace's transforms are ``kernel._laplace_rule``, the rule behind
``laplace_transform_numeric``; every fixed rule lays out ``kernel``'s one
Kronrod rule (``kernel._kronrod_cells``).  The checks that need an
independent route (the values at t = 0, the contour itself, dA/dt against
-lam B, dB/dt, the backward round trip) integrate the spectral densities on
the real line by one fixed 15-point Kronrod rule in v = log r
(``_density_rule``), with no tolerance to set: one call per (rho, gamma)
cell serves its kinds, its eigenvalues and its times.  This module does not
import the adaptive engine of ``quadrature``, which is the fixed rules'
test oracle.

Solver-level suites solve the pinned problems of ``_reference_problems``,
all at rho 0.5, gamma 1, T = 1 on 512 uniform nodes, or problems derived
from them by ``dataclasses.replace``.  Within one ``run_suites`` call
each pinned problem is solved once and its trace shared by the suites:

    manufactured       lam = 1..8, zero data, the t^2 manufactured source
    nonlocal-zero      lam = 1..8, increment lam^-2 xi, xi uniform on
                       [-1, 1] from REFERENCE_SEED, zero source
    nonlocal-constant  the same with the constant source 0.5
    forward-smooth     Dirichlet modes lam = k^2 <= 100, data lam^-2
    forward-basis      6 Dirichlet modes, data the first eigenfunction
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import constants as constants_mod
from . import kernel
from .kernel import (
    _WK,
    KernelParams,
    QuadratureConfig,
    _cell_contour,
    _kronrod_cells,
    laplace_A_closed_form,
    laplace_B_closed_form,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import L1Grid, solve_scalar
from .solvers import (
    ProblemSpec,
    constant_source,
    manufactured_quadratic_source,
    solve_auxiliary_W,
    solve_backward,
    solve_forward,
    solve_nonlocal,
    uniform_grid,
)
from .spectral import (
    CoefficientField,
    basis_field,
    dirichlet_laplacian_1d,
    explicit_spectrum,
)

__all__ = ["CheckResult", "SUITES", "run_suites"]

RHO_GRID = (0.3, 0.5, 0.7, 0.9)
GAMMA_GRID = (0.5, 1.0, 2.0)
LAMBDA_TRIPLE = (1.0, 10.0, 100.0)
LAPLACE_Z = (0.5, 1.0, 2.0, 5.0)      # transform-consistency's z and lam
LAPLACE_LAMBDAS = (1.0, 10.0)
REFERENCE_SEED = 42


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    margin: float
    tolerance: float
    detail: str

    def __post_init__(self):
        # suites compute with numpy; the report must hold plain JSON types
        self.passed = bool(self.passed)
        self.margin = float(self.margin)

    @staticmethod
    def from_worst(suite, name, tolerance, worst, detail=""):
        margin = tolerance - worst
        return CheckResult(suite, name, margin >= 0.0, margin, tolerance, detail)


def _check(suite, name, tol, dev, cases=None, detail=None, signed=False):
    """The check of margin tol minus the largest of the deviations dev.

    A NaN ranks above every number, and a tie keeps the first in C order.
    cases names the blocks of dev's leading axes, in C order; the worst's
    name is the detail unless detail is given.  Unless signed, the worst
    is floored at 0, which names no case.
    """
    dev = np.asarray(dev, dtype=float)
    i = int(np.argmax(dev))          # the first NaN, else the first maximum
    worst = dev.flat[i]
    where = "" if cases is None else cases[i // (dev.size // len(cases))]
    if not signed and worst <= 0.0:
        worst, where = 0.0, ""
    return CheckResult.from_worst(suite, name, tol, worst,
                                  where if detail is None else detail)


def _grid() -> list:
    """The kernel suites' (rho, gamma) cells, rho by rho."""
    return list(itertools.product(RHO_GRID, GAMMA_GRID))


def _integral_B_time(rho: float, gammas, lams, ts) -> list:
    """int_0^t B(lam, s) ds by the 15-point Kronrod rule on 64 graded cells.

    The grading exponent compensates the s^(-rho) growth of B', which is
    the kernel's only nonsmoothness on [0, t]; the 960 nodes of every t in
    ts take one contour call for every gamma in gammas and all lams.
    Returns one (ts.size, len(lams)) array per gamma.
    """
    exponent = max(2.0, 2.0 / (1.0 - rho))
    nodes, half = _kronrod_cells(np.multiply.outer(
        np.asarray(ts, dtype=float), (np.arange(65) / 64) ** exponent))
    integrals = []
    for (values,) in _cell_contour(
            "B", [(rho, gamma) for gamma in gammas], lams, nodes.ravel()):
        # one contiguous (cells, 15) block per (lam, t), as a single-t call had
        cells = np.ascontiguousarray(values.T).reshape(
            (-1,) + nodes.shape) @ _WK
        integrals.append(np.sum(half * cells, axis=-1).T)
    return integrals


# The density rule's cells in v = log r (``_density_breaks``).
_DENSITY_DEPTH = 20.0     # unit cells this far past the outermost features,
_DENSITY_HALVINGS = 58    # below them cells over each of which r^rho halves,
_TAIL_HALVINGS = 60       # at t = 0 above them cells over which r^(rho - 1)
                          # halves, down to lam gamma r^(rho - 1) = 2^-60


def _resonance(rho: float, gamma: float, lam: float) -> float:
    """v* = log r* at the root of lam - r + lam gamma r^rho cos(pi rho).

    The root is unique and the densities peak near it, in a width that
    shrinks like sin(pi rho) as rho -> 1.  Bisection on a bracket in which
    the sign of the expression divided by r is formed without overflow.
    """
    c = math.cos(math.pi * rho)
    log_lam, log_gamma = math.log(lam), math.log(gamma)
    # c > 0: positive at r = lam, negative once r >= 2 lam and
    # r >= 2 lam gamma c r^rho; c < 0: negative at r = lam, positive once
    # r <= lam / 2 and 2 gamma |c| r^rho <= 1
    if c > 0.0:
        lo = log_lam
        hi = max(log_lam, (log_lam + log_gamma + math.log(2.0 * c))
                 / (1.0 - rho)) + math.log(2.0)
    else:
        hi = log_lam
        lo = min(log_lam, -(log_gamma + math.log(-2.0 * c)) / rho)
        lo -= math.log(2.0)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if (math.exp(log_lam - mid) - 1.0
                + c * math.exp(log_lam + log_gamma + (rho - 1.0) * mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _density_breaks(rho: float, gamma: float, lams: np.ndarray,
                    ts: np.ndarray) -> tuple[np.ndarray, float]:
    """The rule's cell breaks in v = log r, and the top of the cells t > 0 use.

    Unit cells run from _DENSITY_DEPTH below the lowest feature (-log of
    the largest time, each log lam, each resonance v*) up to
    log(50 / t_min), t_min the smallest positive time, past which
    e^(-r t) < e^-50.  Below them _DENSITY_HALVINGS cells, over each of
    which r^rho halves, carry the r^rho head down to a 2^-58 remainder.
    Around each v*, breaks at v* and v* +- (sin(pi rho) / 8) 2^k, up to
    +-1, resolve the peak.  With t = 0 among ts, unit cells continue to
    _DENSITY_DEPTH above the highest log lam or v*, and above them the
    r^(rho - 1) tail of B and -dA/dt takes cells over each of which it
    halves, until lam gamma r^(rho - 1) is below 2^-_TAIL_HALVINGS.  The
    depth is where r / lam (below) and lam / r (above) have died out to
    e^-20, so that the halving cells, ln 2 / rho and ln 2 / (1 - rho) wide,
    need not resolve them however near rho is to 0 or 1.
    """
    s, log2 = math.sin(math.pi * rho), math.log(2.0)
    log_lams = np.log(lams)
    stars = np.array([_resonance(rho, gamma, lam) for lam in lams])
    positive = ts[ts > 0.0]
    low = min(log_lams.min(), stars.min())
    top = -math.inf
    if positive.size:
        low = min(low, -math.log(positive.max()))
        top = math.log(50.0 / positive.min())
    first = low - _DENSITY_DEPTH
    last = top
    if positive.size < ts.size:
        last = max(top, max(log_lams.max(), stars.max()) + _DENSITY_DEPTH)
    widths = s / 8.0 * 2.0 ** np.arange(math.ceil(math.log2(8.0 / s)))
    widths = np.append(widths, 1.0)
    cluster = (stars[:, None]
               + np.concatenate((-widths, [0.0], widths))).ravel()
    breaks = [first - log2 / rho * np.arange(_DENSITY_HALVINGS, 0, -1),
              np.linspace(first, last, math.ceil(last - first) + 1),
              cluster[(cluster > first) & (cluster < last)]]
    if positive.size:
        breaks.append([top])
    if positive.size < ts.size:
        log_y = math.log(lams.max() * gamma) + (rho - 1.0) * last
        tail = _TAIL_HALVINGS + max(0, math.ceil(log_y / log2))
        breaks.append(last + log2 / (1.0 - rho) * np.arange(1, tail + 1))
    return np.unique(np.concatenate(breaks)), top


def _density_rule(rho: float, gamma: float, lams, ts,
                  kinds=("A", "B")) -> np.ndarray:
    """int_0^inf e^(-rt) w(r) density_A(r) dr for each weight w of kinds,
    every lam in lams and every t >= 0 in ts.

    The route independent of the Bromwich contour: one fixed 15-point
    Kronrod rule in v = log r on the cells of ``_density_breaks``, with no
    tolerance and no adaptivity.  The kinds are "A" and "B" (weights 1
    and r / lam), "-dA" (-dA/dt, weight r) and "-dB" (-dB/dt, weight
    r^2 / lam), the last for t > 0 alone: it diverges at t = 0.  The
    weighted densities are formed in log space, as
    ``kernel._lower_bound`` forms its integrand, so they stay finite however
    far r = e^v under- or overflows; their node columns are shared by every
    time.  A time t > 0 takes the nodes below log(50 / t_min), its
    e^(-rt) on them formed in blocks of at most kernel.BLOCK_ELEMENTS
    nodes x times in one buffer; t = 0 sums every node.  Returns
    (ts.size, len(lams), len(kinds)).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    zero = ts == 0.0
    breaks, top = _density_breaks(rho, gamma, lams, ts)
    v, half = _kronrod_cells(breaks)
    v = v.ravel()
    log_lam = np.log(lams)
    # D = lam - r + lam gamma r^rho e^(i pi rho) = e^P h, P the log of its
    # largest term's modulus.  Each term's log modulus relative to P (e for
    # lam, d for r, g for lam gamma r^rho, all <= 0) is formed from v and
    # the constants directly on the side of log lam where |v| is large, so
    # it carries no rounding of the size of v where the densities matter.
    above = v[:, None] > log_lam
    e = np.where(above, log_lam - v[:, None], 0.0)
    d = np.where(above, 0.0, v[:, None] - log_lam)
    log_gamma = math.log(gamma)
    g = np.where(above, np.add.outer((rho - 1.0) * v, log_lam + log_gamma),
                 (rho * v + log_gamma)[:, None])
    shift = np.maximum(g, 0.0)
    e -= shift
    d -= shift
    g -= shift
    lgr = np.exp(g, out=shift)      # lam gamma r^rho / e^P
    h = np.exp(e)
    h -= np.exp(d)
    h += math.cos(math.pi * rho) * lgr
    lgr *= math.sin(math.pi * rho)
    h = np.log(np.hypot(h, lgr, out=h), out=h)
    del lgr
    # r density_A(r) (the Jacobian dr = r dv included) is
    # (sin(pi rho) / pi) e^(e + g) / h^2, and each kind's weight turns e^e
    # = lam / e^P into r / e^P (B), lam r / e^P (-dA/dt) or r^2 / e^P (-dB/dt)
    base = g + (math.log(math.sin(math.pi * rho) / math.pi) - 2.0 * h)
    del g, h
    leads = {"A": lambda: e, "B": lambda: d, "-dA": lambda: d + log_lam,
             "-dB": lambda: d + v[:, None]}
    weights = (half[:, None] * _WK).ravel()[:, None]
    f = np.empty((v.size, lams.size, len(kinds)))
    for j, kind in enumerate(kinds):
        np.exp(base + leads[kind](), out=f[:, :, j])
        f[:, :, j] *= weights
    f = f.reshape(v.size, -1)
    out = np.empty((ts.size, f.shape[1]))
    out[zero] = f.sum(axis=0)
    n = np.searchsorted(v, top)
    minus_r = -np.exp(v[:n])
    at = np.flatnonzero(~zero)
    rows = max(1, kernel.BLOCK_ELEMENTS // max(n, 1))
    buffer = np.empty((min(rows, at.size), n))
    for i in range(0, at.size, rows):
        block = at[i:i + rows]
        decay = buffer[:block.size]
        np.multiply.outer(ts[block], minus_r, out=decay)
        np.exp(decay, out=decay)
        out[block] = decay @ f[:n]
    return out.reshape(ts.size, lams.size, len(kinds))


# ---------------------------------------------------------------------------
# Kernel suites


def _cases(cells, lams, spec="") -> list:
    """The names of every (rho, gamma) of cells and lam of lams, in C order."""
    return [f"rho={rho} gamma={gamma} lam={lam:{spec}}"
            for rho, gamma in cells for lam in lams]


def _by_case(views) -> np.ndarray:
    """``_cell_contour``'s per-cell views as one (kinds, cells, lams, ts)
    array."""
    return np.stack(views, axis=1).swapaxes(-1, -2)


def suite_kernel_initial():
    """Both kernels equal 1 at t = 0 across the grid and lam in {1, 10, 100}.

    The contour pins t = 0, so the densities are integrated instead: one
    density-rule call per (rho, gamma) cell, its t = 0 tail cells included.
    """
    initial = np.abs(np.stack([
        _density_rule(rho, gamma, LAMBDA_TRIPLE, [0.0])[0]
        for rho, gamma in _grid()]) - 1.0)       # (cells, lams, kinds)
    cases = _cases(_grid(), LAMBDA_TRIPLE)
    return [_check("kernel-initial", name, 1e-6, initial[..., k], cases)
            for k, name in enumerate(("relaxation-at-zero",
                                      "impulse-at-zero"))]


def suite_a_properties():
    """Monotone decay, range (0, 1), and the uniform lower bound for A."""
    ts = np.geomspace(1e-3, 1.0, 50)
    cells = _grid()
    (a,) = _by_case(_cell_contour("A", cells, LAMBDA_TRIPLE, ts))
    c_a = np.array([lower_bound_A(rho, gamma, 1.0, 1.0)
                    for rho, gamma in cells])
    bound_cases = [f"{case} C={c:.3e}" for case, c in zip(
        _cases(cells, LAMBDA_TRIPLE), np.repeat(c_a, len(LAMBDA_TRIPLE)))]
    return [
        _check("a-properties", "strict-decrease", 0.0, np.diff(a),
               detail="max consecutive increment", signed=True),
        _check("a-properties", "range-(0,1)", 0.0, np.stack((a - 1.0, -a)),
               signed=True),
        _check("a-properties", "uniform-lower-bound", 0.0,
               c_a[:, None, None] - a, bound_cases, signed=True),
    ]


def suite_identities():
    """A = 1 - lam * int B, dA/dt = -lam B (with FD cross-check), int B < 1/lam,
    and the contour's dB/dt against the densities'.

    The derivative identity holds B from the contour against dA/dt from the
    density rule, -int_0^inf r e^(-rt) density_A(r) dr, and the contour's
    dB/dt is held against -int_0^inf r^2 e^(-rt) density_A(r) dr / lam.
    Each (rho, gamma) makes one density-rule call for both columns and both
    lam.  One contour call per set of times serves every cell, kind and
    lam, and int_0^t B takes one per rho, its nodes depending on rho alone.
    Every array below is (cells, lams, ts).
    """
    tight = QuadratureConfig(rel_tol=1e-11)
    ts = np.array([0.25, 1.0])
    lams = (1.0, 10.0)
    lam = np.array(lams)[:, None]
    h = 1e-4
    cells = _grid()
    ib = np.stack([ib for rho in RHO_GRID for ib in _integral_B_time(
        rho, GAMMA_GRID, lams, ts)]).swapaxes(1, 2)
    a, b, db = _by_case(_cell_contour(("A", "B", "dB"), cells, lams, ts))
    a_fd, b_fd = _by_case(_cell_contour(("A", "B"), cells, lams,
                                        [1.0 + h, 1.0 - h, 1.0], tight))
    minus_da, minus_db = np.stack([
        _density_rule(rho, gamma, lams, ts, ("-dA", "-dB"))
        for rho, gamma in cells]).transpose(3, 0, 2, 1)
    da = (a_fd[..., 0] - a_fd[..., 1]) / (2 * h)
    return [
        _check("identities", "integral-identity", 1e-6,
               np.abs(a - (1.0 - lam * ib))),
        _check("identities", "derivative-identity", 1e-6,
               np.abs(lam * b - minus_da)),
        _check("identities", "derivative-fd-cross-check", 1e-5,
               np.abs(da + lam[:, 0] * b_fd[..., 2])),
        _check("identities", "b-mass-under-1/lam", 0.0,
               ib[..., -1] - 1.0 / lam[:, 0],            # t = 1
               detail="smallest margin of 1/lam - int_0^T B", signed=True),
        _check("identities", "derivative-B-vs-density", 1e-6,
               np.abs(ts * (db + minus_db)), _cases(cells, lams)),
    ]


def suite_b_properties():
    """Range, sign of dB/dt, and the measured envelope constants for B.

    The constant checks run on a strict subset of the manifest's reference
    grid (every second node), so the measured suprema cannot grow except
    for quadrature noise, absorbed by a 1e-6 relative slack.
    """
    excess = "relative excess over manifest"
    ts = constants_mod.reference_time_grid(1.0)[::2]
    cells = _grid()
    b, db, env, der = np.stack(constants_mod._envelope_terms(
        cells, LAMBDA_TRIPLE, ts, constants_mod.DEFAULT_EPSILON), axis=1)
    manifest = [constants_mod.get_constants(*cell) for cell in cells]
    # each (cell, lam)'s supremum over t, relative to its cell's constant
    env_excess, der_excess = (
        sup.max(axis=1) / np.array([[m[key]] for m in manifest]) - 1.0
        for sup, key in ((env, "c_envelope_B"), (der, "c_derivative_B")))
    return [
        _check("b-properties", "range-(0,1)", 0.0, np.stack((b - 1.0, -b)),
               signed=True),
        _check("b-properties", "derivative-negative", 0.0, db, signed=True),
        _check("b-properties", "envelope-constant", 1e-6,
               env_excess, detail=excess, signed=True),
        _check("b-properties", "derivative-envelope-constant", 1e-6,
               der_excess, detail=excess, signed=True),
    ]


def suite_bounds():
    """Scaled lower bound for B, the deviation corollary, and the Gamma cap."""
    ts = np.geomspace(1e-3, 1.0, 25)
    cells = _grid()
    a, b = _by_case(_cell_contour(("A", "B"), cells, LAMBDA_TRIPLE, ts))
    c_b = np.array([lower_bound_B(rho, gamma, 1.0, 1.0)
                    for rho, gamma in cells])[:, None, None]
    cap = [lower_bound_A(rho, gamma, 1.0, 1.0) - math.gamma(rho) * gamma
           * math.sin(math.pi * rho) / (3.0 * math.pi) for rho, gamma in cells]
    return [
        _check("bounds", "scaled-lower-bound-B", 0.0,
               c_b - np.array(LAMBDA_TRIPLE)[:, None] * b, signed=True),
        _check("bounds", "deviation-corollary", 0.0,
               c_b * ts - np.abs(a - 1.0), detail="|A - 1| >= C t",
               signed=True),
        _check("bounds", "gamma-function-cap", 0.0, cap,
               detail="C_A <= Gamma(rho)/T^rho * gamma sin(pi rho)/(3 pi)",
               signed=True),
    ]


def suite_laplace():
    """Numerically transformed kernels match the closed forms at z in {.5,1,2,5};
    the contour inverting those closed forms matches the density rule.

    The transforms are ``kernel._laplace_rule``, the fixed rule behind
    ``laplace_transform_numeric``, one call for both kinds, every (rho,
    gamma), every z and both lam; the contour's reference is the density
    rule, one call per (rho, gamma) for both kinds and its four lam, against
    one contour call for both kinds and every cell.
    """
    cells = _grid()
    # (cells, lams, zs, kinds)
    transforms = np.stack([values for values, _ in kernel._laplace_rule(
        ("A", "B"), cells, LAPLACE_LAMBDAS, LAPLACE_Z)]).transpose(0, 3, 2, 1)
    closed = [(laplace_A_closed_form(p, z), laplace_B_closed_form(p, z))
              for rho, gamma in cells for lam in LAPLACE_LAMBDAS
              for p in [KernelParams(rho, gamma, lam)] for z in LAPLACE_Z]
    transform = _check("laplace", "transform-consistency", 1e-4,
                       np.abs(transforms.reshape(-1, 2) - closed),
                       [f"{case} z={z}" for case in _cases(
                           cells, LAPLACE_LAMBDAS) for z in LAPLACE_Z])
    # t = 0 is pinned on the contour and checked by kernel-initial
    ts = np.linspace(0.0, 1.0, 257)[1:]
    lams = (1.0, 1e2, 1e4, 1e6)
    cells = list(itertools.product((0.05, 0.3, 0.5, 0.7, 0.9, 0.99),
                                   GAMMA_GRID))
    # each (cell, lam)'s worst over its times and kinds: one cell's density
    # rule is alive at a time
    contour = [np.abs(np.moveaxis(values, 0, 2) - _density_rule(
        rho, gamma, lams, ts)).max(axis=(0, 2)) for (rho, gamma), values
        in zip(cells, _cell_contour(("A", "B"), cells, lams, ts))]
    return [transform, _check("laplace", "contour-vs-density", 1e-9, contour,
                              _cases(cells, lams, "g"))]


def suite_oracle():
    """Quadrature kernel vs L1 stepping at t = 1, monotone under halving."""
    lams = (1.0, 10.0)
    # A(lam, 1) of every case, in _cases order
    refs = iter(_by_case(_cell_contour("A", _grid(), lams, [1.0])).ravel())
    errs = []   # per (rho, gamma, lam), at dt = 4e-5, 2e-5, 1e-5
    for rho in RHO_GRID:
        grids = [L1Grid(dt, round(1.0 / dt), rho) for dt in (4e-5, 2e-5, 1e-5)]
        for gamma, lam in itertools.product(GAMMA_GRID, lams):
            ref = next(refs)
            errs.append([abs(float(solve_scalar(lam, gamma, 1.0, None,
                                                grid)[-1]) - ref)
                         for grid in grids])
    errs = np.array(errs)
    return [
        _check("oracle", "kernel-vs-l1", 1e-4, errs[:, -1],
               _cases(_grid(), lams)),
        # not (x < 0) rather than x >= 0, so that a NaN error fails
        _check("oracle", "error-monotone-under-halving", 0.0,
               ~np.all(np.diff(errs, axis=1) < 0.0, axis=1),
               detail="dt in {4e-5, 2e-5, 1e-5}"),
    ]


def suite_limit():
    """Near rho = 1 the kernel approaches exp(-lam t / (1 + lam gamma))."""
    lam, gamma, ts = 2.0, 1.0, (0.5, 1.0)
    ((a,),) = _cell_contour("A", [(0.999, gamma)], [lam], ts)
    dev = [abs(float(value) - math.exp(-lam * t / (1.0 + lam * gamma)))
           for value, t in zip(a[:, 0], ts)]
    return [_check("limit", "classical-relaxation", 1e-2, dev,
                   detail="rho=0.999 lam=2 gamma=1")]


# ---------------------------------------------------------------------------
# Solver suites (pinned reference configurations)


def _reference_problems() -> dict:
    """The pinned solver problems by name; the module docstring lists them."""
    eight = explicit_spectrum(np.arange(1.0, 9.0))
    ten = dirichlet_laplacian_1d(math.pi, 10)
    six = dirichlet_laplacian_1d(math.pi, 6)
    xi = np.random.default_rng(REFERENCE_SEED).uniform(-1.0, 1.0, 8)
    increment = CoefficientField(eight.eigenvalues ** -2.0 * xi, eight)

    def problem(kind, op, data, source=None):
        return ProblemSpec(kind, op, 0.5, 1.0, 1.0, data, source,
                           uniform_grid(1.0, 512))
    return {
        "manufactured": problem("forward", eight,
                                CoefficientField(np.zeros(8), eight),
                                manufactured_quadratic_source(eight, 0.5, 1.0)),
        "nonlocal-zero": problem("nonlocal", eight, increment),
        "nonlocal-constant": problem("nonlocal", eight, increment,
                                     constant_source(0.5)),
        "forward-smooth": problem(
            "forward", ten, CoefficientField(ten.eigenvalues ** -2.0, ten)),
        "forward-basis": problem("forward", six, basis_field(six, 1)),
    }


# The solved reference problems by name while run_suites runs, so suites
# that share a problem solve it once; None outside, where each suite solves
# its own.
_traces: dict | None = None


def _reference_trace(name: str):
    """The trace of the reference problem name, solved once per run_suites."""
    if _traces is not None and name in _traces:
        return _traces[name]
    spec = _reference_problems()[name]
    solve = solve_nonlocal if spec.kind == "nonlocal" else solve_forward
    trace = solve(spec)
    if _traces is not None:
        _traces[name] = trace
    return trace


def suite_manufactured():
    """Quadratic manufactured solution: every mode reproduces t^2 to 1e-4."""
    trace = _reference_trace("manufactured")
    return [_check("manufactured", "quadratic-response", 1e-4,
                   np.abs(trace.coefficients - trace.nodes[:, None] ** 2),
                   detail="8 modes, rho=0.5, gamma=1, T=1")]


def suite_nonlocal():
    """Increment condition and the forced/homogeneous decomposition."""
    problems = _reference_problems()
    gaps, splits = [], []
    for name in ("nonlocal-zero", "nonlocal-constant"):
        spec, trace = problems[name], _reference_trace(name)
        gaps.append(trace.diagnostics["nonlocal_gap"])
        op = spec.operator
        zero = CoefficientField(np.zeros(op.n_modes), op)   # V's data
        v_trace = solve_forward(replace(spec, kind="forward", data=zero))
        psi = CoefficientField(
            spec.data.coefficients - v_trace.coefficients[-1], op)
        w_trace = solve_auxiliary_W(psi, spec.rho, spec.gamma, spec.horizon,
                                    spec.time_grid)
        recomposed = w_trace.coefficients + v_trace.coefficients
        splits.append(np.abs(recomposed - trace.coefficients))
    return [
        _check("nonlocal", "increment-condition", 1e-6, gaps,
               detail="u(T) - u(0) = data"),
        _check("nonlocal", "decomposition", 1e-10, splits,
               detail="solution equals W + V node-wise"),
    ]


def suite_backward():
    """Round-trip recovery of terminal data built by an independent route.

    forward-smooth run backward: its terminal data phi_k A(lam_k, T) comes
    from the density rule, so the recovery through the contour is not a
    cancellation of shared kernel values; the solve runs on a tighter
    contour than the default.  The stability bound keeps its own pass
    rule, a 1e-12 slack on the margin it reports.
    """
    smooth = _reference_problems()["forward-smooth"]
    op, phi = smooth.operator, smooth.data.coefficients
    a_T = _density_rule(0.5, 1.0, op.eigenvalues, [1.0], ("A",))[0, :, 0]
    back = replace(smooth, kind="backward",
                   data=CoefficientField(phi * a_T, op))
    back_trace = solve_backward(back, QuadratureConfig(rel_tol=1e-9))
    bound = back_trace.diagnostics["stability_bound"]
    norm = back_trace.diagnostics["recovered_initial_norm"]
    return [
        _check("backward", "roundtrip-recovery", 1e-4,
               np.abs(back_trace.coefficients[0] - phi),
               detail="modes with lam <= 100"),
        CheckResult("backward", "stability-bound", norm <= bound + 1e-12,
                    bound - norm, 0.0, "||phi|| <= ||psi - V(T)|| / C_A"),
    ]


def suite_coercivity():
    """Damped derivative norm stable under grid doubling; all norms finite."""
    basis = _reference_problems()["forward-basis"]
    fine = replace(basis, time_grid=uniform_grid(1.0, 1024))
    reports = [trace.diagnostics["coercivity"] for trace in (
        _reference_trace("forward-basis"), solve_forward(fine))]
    sups = [float(np.max(rep["weighted_norm_dt_u"])) for rep in reports]
    norms = np.concatenate([np.ravel(rep[key]) for rep in reports
                            for key in ("norm_dt_u", "norm_A_u",
                                        "norm_A_caputo_u")])
    return [
        _check("coercivity", "weighted-derivative-stability", 0.10,
               abs(sups[1] - sups[0]) / sups[0],
               detail=f"sup t^(1-rho)||du||: {sups[0]:.6f} -> {sups[1]:.6f}"),
        _check("coercivity", "norms-finite", 0.0, ~np.isfinite(norms)),
    ]


def suite_residual():
    """Interior residual of every reference trace under 1e-3 for t >= T/32.

    The traces: every reference problem, and forward-smooth recovered
    backward from its own terminal state.  A trace with no residual (None)
    reads as NaN, and fails.
    """
    residuals = {}
    for name, spec in _reference_problems().items():
        trace = _reference_trace(name)
        residuals[name] = trace.diagnostics["residual_max_interior"]
        if name == "forward-smooth":
            terminal = CoefficientField(trace.coefficients[-1].copy(),
                                        spec.operator)
            back = solve_backward(replace(spec, kind="backward", data=terminal))
            residuals["backward"] = back.diagnostics["residual_max_interior"]
    return [_check("residual", "interior-gate", 1e-3, list(residuals.values()),
                   [f"worst trace: {name}" for name in residuals])]


SUITES = {
    "kernel-initial": suite_kernel_initial,
    "a-properties": suite_a_properties,
    "identities": suite_identities,
    "b-properties": suite_b_properties,
    "bounds": suite_bounds,
    "laplace": suite_laplace,
    "oracle": suite_oracle,
    "limit": suite_limit,
    "manufactured": suite_manufactured,
    "nonlocal": suite_nonlocal,
    "backward": suite_backward,
    "coercivity": suite_coercivity,
    "residual": suite_residual,
}


def run_suites(names=None) -> dict:
    """Run the selected suites and assemble the machine-readable report.

    The suites share the traces of the reference problems for this call
    only: a second call solves them afresh.
    """
    global _traces
    selected = list(SUITES if names is None else names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}; known: {sorted(SUITES)}")
    _traces = {}
    try:
        checks = [check for name in selected for check in SUITES[name]()]
    finally:
        _traces = None
    failed = [f"{c.suite}:{c.name}" for c in checks if not c.passed]
    return {
        "suites": selected,
        "checks": [asdict(c) for c in checks],
        "passed": not failed,
        "failed": failed,
    }
