"""End-to-end property suites for the kernel and solver guarantees.

Each suite turns one family of proved statements into numerical checks with
explicit tolerances and reports the worst-case margin (tolerance minus
worst observed deviation; positive means pass).  The CLI ``verify`` command
and the acceptance test module both run these functions, so the command
line and the test suite cannot drift apart.

Kernel-level suites sweep the standard parameter grid
rho in {0.3, 0.5, 0.7, 0.9} x gamma in {0.5, 1, 2}; solver-level suites run
the pinned reference configurations described in each docstring.  Kernel
values come from the Bromwich contour, as on the solve path, through its
values-only route: no suite reads the contour's error estimate, so none
pays for it.  int_0^t B is a fixed 15-point Kronrod rule on a graded mesh,
all its nodes in one contour call.  The checks that need an independent
route (the values at t = 0, the contour itself, dA/dt against -lam B, the
backward round trip) integrate the spectral densities on the real line,
one adaptive pass for all the densities that share a substitution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import constants as constants_mod
from . import kernel
from .kernel import (
    KernelParams,
    QuadratureConfig,
    _contour_values,
    density_A,
    eval_A,
    eval_B,
    laplace_A_closed_form,
    laplace_B_closed_form,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import L1Grid, solve_scalar
from .quadrature import _WK, _XK, exp_weighted_semiinfinite, graded_mesh
from .solvers import (
    ProblemSpec,
    coercivity_report,
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


def _grid():
    for rho in RHO_GRID:
        for gamma in GAMMA_GRID:
            yield rho, gamma


def _integral_B_time(p: KernelParams, t: float) -> float:
    """int_0^t B(lam, s) ds by the 15-point Kronrod rule on 64 graded cells.

    The grading exponent compensates the s^(-rho) growth of B', which is
    the kernel's only nonsmoothness on [0, t]; all 960 nodes take one
    contour call.
    """
    breaks = graded_mesh(t, 64, max(2.0, 2.0 / (1.0 - p.rho)))
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _XK
    values = _contour_values("B", p, nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(half * (values @ _WK)))


def _density_kernels(params, ts, q: QuadratureConfig | None = None,
                     kinds: str = "AB") -> np.ndarray:
    """The kernels named in kinds at the times ts from the density engine.

    The route independent of the Bromwich contour, for parameter sets that
    share one rho.  One adaptive pass integrates density_A and
    density_B = (r / lam) density_A of every set side by side under their
    shared r^(rho - 1) substitution, each column held to the tolerance on
    its own; returns (ts.size, len(params), len(kinds)).
    """
    rho = params[0].rho
    if any(p.rho != rho for p in params):
        raise ValueError("the parameter sets of one engine pass share rho")

    def dens(r):
        columns = []
        for p in params:
            a = density_A(r, p)
            columns += [a if kind == "A" else (r / p.lam) * a
                        for kind in kinds]
        return np.stack(columns, axis=1)

    values, _ = exp_weighted_semiinfinite(dens, ts,
                                          singular_exponent=rho - 1.0, q=q)
    return values.reshape(-1, len(params), len(kinds))


def _fixed_rule_transforms(rho: float, gamma: float) -> np.ndarray:
    """int_0^(50 / min z) e^(-zt) K(t) dt for K = A, B at every z in LAPLACE_Z.

    One fixed 15-point Kronrod rule on cells shared by the four z:
    [0, 1e-6 * 50 / max z], then doubling cells up to 50 / min z, past
    which e^(-zt) < e^-50.  The doubling cells resolve the weak t -> 0
    singularity of the kernels' derivatives and every damping scale 1/z.
    One contour call per kind serves all nodes and every lam in
    LAPLACE_LAMBDAS; returns (2, len(LAPLACE_Z), len(LAPLACE_LAMBDAS)).
    """
    z = np.array(LAPLACE_Z)
    inner, t_max = 1e-6 * 50.0 / z.max(), 50.0 / z.min()
    cells = math.ceil(math.log2(t_max / inner))
    breaks = np.concatenate(([0.0], inner * 2.0 ** np.arange(cells), [t_max]))
    half = 0.5 * np.diff(breaks)
    nodes = ((breaks[:-1] + half)[:, None] + half[:, None] * _XK).ravel()
    weights = np.exp(-np.outer(z, nodes)) * (half[:, None] * _WK).ravel()
    return np.stack([weights @ kernel._bromwich(
        kind, rho, gamma, LAPLACE_LAMBDAS, nodes, error_at=slice(0))[0]
        for kind in "AB"])


# ---------------------------------------------------------------------------
# Kernel suites


def suite_kernel_initial():
    """Both kernels equal 1 at t = 0 across the grid and lam in {1, 10, 100}.

    The contour pins t = 0, so the densities are integrated instead.
    """
    tol = 1e-6
    worst_a = worst_b = 0.0
    where_a = where_b = ""
    cases = [(gamma, lam) for gamma in GAMMA_GRID for lam in LAMBDA_TRIPLE]
    for rho in RHO_GRID:
        initial = _density_kernels(
            [KernelParams(rho, *case) for case in cases], [0.0])[0]
        for (gamma, lam), (da, db) in zip(cases, np.abs(initial - 1.0)):
            if da > worst_a:
                worst_a, where_a = da, f"rho={rho} gamma={gamma} lam={lam}"
            if db > worst_b:
                worst_b, where_b = db, f"rho={rho} gamma={gamma} lam={lam}"
    return [
        CheckResult.from_worst("kernel-initial", "relaxation-at-zero", tol,
                               worst_a, where_a),
        CheckResult.from_worst("kernel-initial", "impulse-at-zero", tol,
                               worst_b, where_b),
    ]


def suite_a_properties():
    """Monotone decay, range (0, 1), and the uniform lower bound for A."""
    tol = 0.0
    ts = np.geomspace(1e-3, 1.0, 50)
    worst_mono = -np.inf   # most positive consecutive increment
    worst_range = -np.inf  # range violation amount
    worst_bound = -np.inf  # bound violation amount
    detail = ""
    for rho, gamma in _grid():
        c_a = lower_bound_A(rho, gamma, 1.0, 1.0)
        for lam in LAMBDA_TRIPLE:
            p = KernelParams(rho, gamma, lam)
            vals = _contour_values("A", p, ts)
            worst_mono = max(worst_mono, float(np.max(np.diff(vals))))
            worst_range = max(worst_range, float(np.max(vals - 1.0)),
                              float(np.max(-vals)))
            bound_gap = float(np.max(c_a - vals))
            if bound_gap > worst_bound:
                detail = f"rho={rho} gamma={gamma} lam={lam} C={c_a:.3e}"
            worst_bound = max(worst_bound, bound_gap)
    return [
        CheckResult.from_worst("a-properties", "strict-decrease", tol,
                               worst_mono, "max consecutive increment"),
        CheckResult.from_worst("a-properties", "range-(0,1)", tol, worst_range),
        CheckResult.from_worst("a-properties", "uniform-lower-bound", tol,
                               worst_bound, detail),
    ]


def suite_identities():
    """A = 1 - lam * int B, dA/dt = -lam B (with FD cross-check), int B < 1/lam.

    The derivative identity holds B from the contour against dA/dt from the
    density engine, -int_0^inf r e^(-rt) density_A(r) dr: every case shares
    the plain substitution, so one engine pass serves the whole grid.
    """
    tight = QuadratureConfig(rel_tol=1e-11)
    ts = np.array([0.25, 1.0])
    worst_int = worst_deriv = worst_fd = 0.0
    min_b_margin = np.inf
    cases = [KernelParams(rho, gamma, lam) for rho, gamma in _grid()
             for lam in (1.0, 10.0)]
    minus_da, _ = exp_weighted_semiinfinite(
        lambda r: np.stack([r * density_A(r, p) for p in cases], axis=1), ts,
        singular_exponent=0.0)
    for p, case_minus_da in zip(cases, minus_da.T):
        lam = p.lam
        ib = np.array([_integral_B_time(p, t) for t in ts])
        worst_int = max(worst_int, float(np.max(np.abs(
            _contour_values("A", p, ts) - (1.0 - lam * ib)))))
        b_vals = _contour_values("B", p, ts)
        worst_deriv = max(worst_deriv,
                          float(np.max(np.abs(lam * b_vals - case_minus_da))))
        h = 1e-4
        fd = (eval_A(p, 1.0 + h, tight) - eval_A(p, 1.0 - h, tight)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd + lam * eval_B(p, 1.0, tight)))
        min_b_margin = min(min_b_margin, 1.0 / lam - ib[-1])   # t = 1
    return [
        CheckResult.from_worst("identities", "integral-identity", 1e-6,
                               worst_int),
        CheckResult.from_worst("identities", "derivative-identity", 1e-6,
                               worst_deriv),
        CheckResult.from_worst("identities", "derivative-fd-cross-check",
                               1e-5, worst_fd),
        CheckResult("identities", "b-mass-under-1/lam", min_b_margin > 0.0,
                    min_b_margin, 0.0,
                    "smallest margin of 1/lam - int_0^T B"),
    ]


def suite_b_properties():
    """Range, sign of dB/dt, and the measured envelope constants for B.

    The constant checks run on a strict subset of the manifest's reference
    grid (every second node), so the measured suprema cannot grow except
    for quadrature noise, absorbed by a 1e-6 relative slack.
    """
    tol = 0.0
    tol_const = 1e-6
    ts = constants_mod.reference_time_grid(1.0)[::2]
    worst_range = -np.inf
    worst_sign = -np.inf
    worst_env = -np.inf
    worst_der = -np.inf
    for rho, gamma in _grid():
        cell = constants_mod.get_constants(rho, gamma)
        for lam in (1.0, 10.0, 100.0):
            b_vals, db_vals, env, der = constants_mod._envelope_terms(
                KernelParams(rho, gamma, lam), ts, constants_mod.DEFAULT_EPSILON)
            worst_range = max(worst_range, float(np.max(b_vals - 1.0)),
                              float(np.max(-b_vals)))
            worst_sign = max(worst_sign, float(np.max(db_vals)))
            worst_env = max(worst_env,
                            float(np.max(env)) / cell["c_envelope_B"] - 1.0)
            worst_der = max(worst_der,
                            float(np.max(der)) / cell["c_derivative_B"] - 1.0)
    return [
        CheckResult.from_worst("b-properties", "range-(0,1)", tol, worst_range),
        CheckResult.from_worst("b-properties", "derivative-negative", tol,
                               worst_sign),
        CheckResult.from_worst("b-properties", "envelope-constant", tol_const,
                               worst_env, "relative excess over manifest"),
        CheckResult.from_worst("b-properties", "derivative-envelope-constant",
                               tol_const, worst_der,
                               "relative excess over manifest"),
    ]


def suite_bounds():
    """Scaled lower bound for B, the deviation corollary, and the Gamma cap."""
    tol = 0.0
    ts = np.geomspace(1e-3, 1.0, 25)
    worst_b = -np.inf
    worst_cor = -np.inf
    worst_cap = -np.inf
    for rho, gamma in _grid():
        c_b = lower_bound_B(rho, gamma, 1.0, 1.0)
        cap = (math.gamma(rho) * gamma * math.sin(math.pi * rho)
               / (3.0 * math.pi))
        c_a = lower_bound_A(rho, gamma, 1.0, 1.0)
        worst_cap = max(worst_cap, c_a - cap)
        for lam in LAMBDA_TRIPLE:
            p = KernelParams(rho, gamma, lam)
            b_vals = _contour_values("B", p, ts)
            worst_b = max(worst_b, float(np.max(c_b - lam * b_vals)))
            a_vals = _contour_values("A", p, ts)
            worst_cor = max(worst_cor, float(np.max(c_b * ts - np.abs(a_vals - 1.0))))
    return [
        CheckResult.from_worst("bounds", "scaled-lower-bound-B", tol, worst_b),
        CheckResult.from_worst("bounds", "deviation-corollary", tol, worst_cor,
                               "|A - 1| >= C t"),
        CheckResult.from_worst("bounds", "gamma-function-cap", tol, worst_cap,
                               "C_A <= Gamma(rho)/T^rho * gamma sin(pi rho)/(3 pi)"),
    ]


def suite_laplace():
    """Numerically transformed kernels match the closed forms at z in {.5,1,2,5};
    the contour inverting those closed forms matches the density engine.

    The transforms are one fixed Kronrod rule per (rho, gamma) on contour
    values (``_fixed_rule_transforms``); the contour's reference is the
    density engine at rel_tol 1e-12.
    """
    worst = 0.0
    detail = ""
    for rho, gamma in _grid():
        transforms = _fixed_rule_transforms(rho, gamma)
        for j, lam in enumerate(LAPLACE_LAMBDAS):
            p = KernelParams(rho, gamma, lam)
            for i, z in enumerate(LAPLACE_Z):
                da = abs(transforms[0, i, j] - laplace_A_closed_form(p, z))
                db = abs(transforms[1, i, j] - laplace_B_closed_form(p, z))
                if max(da, db) > worst:
                    detail = f"rho={rho} gamma={gamma} lam={lam} z={z}"
                worst = max(worst, da, db)
    # t = 0 is pinned on the contour and checked by kernel-initial; there the
    # density engine cannot integrate B's r^(rho - 2) tail for rho near 1
    ts = np.linspace(0.0, 1.0, 257)[1:]
    reference_q = QuadratureConfig(rel_tol=1e-12)
    worst_contour = 0.0
    detail_contour = ""
    for rho in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        for gamma in GAMMA_GRID:
            for lam in (1.0, 1e2, 1e4, 1e6):
                p = KernelParams(rho, gamma, lam)
                contour = np.stack([_contour_values(kind, p, ts)
                                    for kind in "AB"], axis=1)
                density = _density_kernels([p], ts, reference_q)[:, 0]
                d = np.max(np.abs(contour - density))
                if d > worst_contour:
                    detail_contour = f"rho={rho} gamma={gamma} lam={lam:g}"
                worst_contour = max(worst_contour, float(d))
    return [CheckResult.from_worst("laplace", "transform-consistency", 1e-4,
                                   worst, detail),
            CheckResult.from_worst("laplace", "contour-vs-density", 1e-9,
                                   worst_contour, detail_contour)]


def suite_oracle():
    """Quadrature kernel vs L1 stepping at t = 1, monotone under halving."""
    worst = 0.0
    mono_ok = True
    detail = ""
    for rho in RHO_GRID:
        for gamma in GAMMA_GRID:
            for lam in (1.0, 10.0):
                p = KernelParams(rho, gamma, lam)
                ref = eval_A(p, 1.0)
                errs = []
                for dt in (4e-5, 2e-5, 1e-5):
                    grid = L1Grid(dt, round(1.0 / dt), rho)
                    y = solve_scalar(lam, gamma, rho, 1.0, None, grid)
                    errs.append(abs(float(y[-1]) - ref))
                if not (errs[0] > errs[1] > errs[2]):
                    mono_ok = False
                if errs[-1] > worst:
                    detail = f"rho={rho} gamma={gamma} lam={lam}"
                worst = max(worst, errs[-1])
    results = [
        CheckResult.from_worst("oracle", "kernel-vs-l1", 1e-4, worst, detail),
        CheckResult("oracle", "error-monotone-under-halving", mono_ok,
                    0.0 if mono_ok else -1.0, 0.0, "dt in {4e-5, 2e-5, 1e-5}"),
    ]
    return results


def suite_limit():
    """Near rho = 1 the kernel approaches exp(-lam t / (1 + lam gamma))."""
    p = KernelParams(0.999, 1.0, 2.0)
    worst = 0.0
    for t in (0.5, 1.0):
        target = math.exp(-p.lam * t / (1.0 + p.lam * p.gamma))
        worst = max(worst, abs(eval_A(p, t) - target))
    return [CheckResult.from_worst("limit", "classical-relaxation", 1e-2, worst,
                                   "rho=0.999 lam=2 gamma=1")]


# ---------------------------------------------------------------------------
# Solver suites (pinned reference configurations)


def _manufactured_trace(rho=0.5, gamma=1.0, n_nodes=512):
    op = explicit_spectrum(np.arange(1.0, 9.0))
    spec = ProblemSpec(
        "forward", op, rho, gamma, 1.0,
        CoefficientField(np.zeros(op.n_modes), op),
        manufactured_quadratic_source(op, rho, gamma),
        uniform_grid(1.0, n_nodes),
    )
    return spec, solve_forward(spec)


def suite_manufactured():
    """Quadratic manufactured solution: every mode reproduces t^2 to 1e-4."""
    spec, trace = _manufactured_trace()
    target = trace.nodes[:, None] ** 2
    worst = float(np.max(np.abs(trace.coefficients - target)))
    return [CheckResult.from_worst("manufactured", "quadratic-response", 1e-4,
                                   worst, "8 modes, rho=0.5, gamma=1, T=1")]


def _nonlocal_data(op):
    rng = np.random.default_rng(REFERENCE_SEED)
    xi = rng.uniform(-1.0, 1.0, op.n_modes)
    return CoefficientField(op.eigenvalues ** -2.0 * xi, op)


def suite_nonlocal():
    """Increment condition and the forced/homogeneous decomposition."""
    op = explicit_spectrum(np.arange(1.0, 9.0))
    phihat = _nonlocal_data(op)
    worst_gap = 0.0
    worst_dec = 0.0
    for source in (None, constant_source(0.5)):
        spec = ProblemSpec("nonlocal", op, 0.5, 1.0, 1.0, phihat, source,
                           uniform_grid(1.0, 512))
        trace = solve_nonlocal(spec)
        worst_gap = max(worst_gap, trace.diagnostics["nonlocal_gap"])
        forced = ProblemSpec("forward", op, 0.5, 1.0, 1.0,
                             CoefficientField(np.zeros(op.n_modes), op),
                             source, spec.time_grid)
        v_trace = solve_forward(forced)
        psi = CoefficientField(phihat.coefficients - v_trace.coefficients[-1], op)
        w_trace = solve_auxiliary_W(psi, 0.5, 1.0, 1.0, spec.time_grid)
        recomposed = w_trace.coefficients + v_trace.coefficients
        worst_dec = max(worst_dec,
                        float(np.max(np.abs(recomposed - trace.coefficients))))
    return [
        CheckResult.from_worst("nonlocal", "increment-condition", 1e-6,
                               worst_gap, "u(T) - u(0) = data"),
        CheckResult.from_worst("nonlocal", "decomposition", 1e-10, worst_dec,
                               "solution equals W + V node-wise"),
    ]


def suite_backward():
    """Round-trip recovery of terminal data built by an independent route."""
    op = dirichlet_laplacian_1d(math.pi, 10)  # eigenvalues k^2 <= 100
    phi = CoefficientField(op.eigenvalues ** -2.0, op)
    grid = uniform_grid(1.0, 512)
    # Terminal data phi_k A(lam_k, T) from the density engine, so the
    # recovery through the contour is not a cancellation of shared kernel
    # values; the solve runs on a tighter contour than the default.
    a_T = _density_kernels(
        [KernelParams(0.5, 1.0, lam) for lam in op.eigenvalues], [1.0],
        kinds="A")[0, :, 0]
    psi = CoefficientField(phi.coefficients * a_T, op)
    back_q = QuadratureConfig(rel_tol=1e-9)
    back = ProblemSpec("backward", op, 0.5, 1.0, 1.0, psi, None, grid)
    back_trace = solve_backward(back, back_q)
    worst = float(np.max(np.abs(back_trace.coefficients[0] - phi.coefficients)))
    norm_ok = (back_trace.diagnostics["recovered_initial_norm"]
               <= back_trace.diagnostics["stability_bound"] + 1e-12)
    return [
        CheckResult.from_worst("backward", "roundtrip-recovery", 1e-4, worst,
                               "modes with lam <= 100"),
        CheckResult("backward", "stability-bound", norm_ok,
                    back_trace.diagnostics["stability_bound"]
                    - back_trace.diagnostics["recovered_initial_norm"],
                    0.0, "||phi|| <= ||psi - V(T)|| / C_A"),
    ]


def suite_coercivity():
    """Damped derivative norm stable under grid doubling; all norms finite."""
    sups = []
    all_finite = True
    for n_nodes in (512, 1024):
        op = dirichlet_laplacian_1d(math.pi, 6)
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                           None, uniform_grid(1.0, n_nodes))
        trace = solve_forward(spec)
        rep = coercivity_report(trace, spec)
        sups.append(float(np.max(rep["weighted_norm_dt_u"])))
        for key in ("norm_dt_u", "norm_A_u", "norm_A_caputo_u"):
            if not np.all(np.isfinite(rep[key])):
                all_finite = False
    change = abs(sups[1] - sups[0]) / sups[0]
    return [
        CheckResult.from_worst("coercivity", "weighted-derivative-stability",
                               0.10, change,
                               f"sup t^(1-rho)||du||: {sups[0]:.6f} -> {sups[1]:.6f}"),
        CheckResult("coercivity", "norms-finite", all_finite,
                    0.0 if all_finite else -1.0, 0.0, ""),
    ]


def suite_residual():
    """Interior residual of every reference trace under 1e-3 for t >= T/32."""
    worst = 0.0
    detail = ""

    def track(name, trace):
        nonlocal worst, detail
        value = trace.diagnostics["residual_max_interior"]
        if value is not None and value > worst:
            worst = value
            detail = name
    _, tr = _manufactured_trace()
    track("manufactured", tr)
    op = explicit_spectrum(np.arange(1.0, 9.0))
    phihat = _nonlocal_data(op)
    for label, source in (("zero", None), ("constant", constant_source(0.5))):
        spec = ProblemSpec("nonlocal", op, 0.5, 1.0, 1.0, phihat, source,
                           uniform_grid(1.0, 512))
        track(f"nonlocal-{label}", solve_nonlocal(spec))
    op2 = dirichlet_laplacian_1d(math.pi, 10)
    phi = CoefficientField(op2.eigenvalues ** -2.0, op2)
    fwd = ProblemSpec("forward", op2, 0.5, 1.0, 1.0, phi, None,
                      uniform_grid(1.0, 512))
    fwd_trace = solve_forward(fwd)
    track("forward-smooth", fwd_trace)
    psi = CoefficientField(fwd_trace.coefficients[-1].copy(), op2)
    back = ProblemSpec("backward", op2, 0.5, 1.0, 1.0, psi, None,
                       uniform_grid(1.0, 512))
    track("backward", solve_backward(back))
    op3 = dirichlet_laplacian_1d(math.pi, 6)
    basis_spec = ProblemSpec("forward", op3, 0.5, 1.0, 1.0, basis_field(op3, 1),
                             None, uniform_grid(1.0, 512))
    track("forward-basis", solve_forward(basis_spec))
    return [CheckResult.from_worst("residual", "interior-gate", 1e-3, worst,
                                   f"worst trace: {detail}")]


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
    """Run the selected suites and assemble the machine-readable report."""
    if names is None:
        selected = list(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise KeyError(f"unknown suites: {unknown}; known: {sorted(SUITES)}")
        selected = list(names)
    checks: list[CheckResult] = []
    for name in selected:
        checks.extend(SUITES[name]())
    failed = [f"{c.suite}:{c.name}" for c in checks if not c.passed]
    return {
        "suites": selected,
        "checks": [asdict(c) for c in checks],
        "passed": not failed,
        "failed": failed,
    }
