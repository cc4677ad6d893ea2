"""End-to-end property suites for the kernel and solver guarantees.

Each suite turns one family of proved statements into numerical checks with
explicit tolerances and reports the worst-case margin (tolerance minus
worst observed deviation; positive means pass).  The CLI ``verify`` command
and the acceptance test module both run these functions, so the command
line and the test suite cannot drift apart.

Kernel-level suites sweep the standard parameter grid
rho in {0.3, 0.5, 0.7, 0.9} x gamma in {0.5, 1, 2}; solver-level suites run
the pinned reference configurations described in each docstring.  Kernel
values come from the Bromwich contour, as on the solve path; the checks
that need an independent route (the values at t = 0, the contour itself,
the backward round trip) integrate the spectral densities on the real line.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import constants as constants_mod
from .kernel import (
    KernelParams,
    QuadratureConfig,
    density_A,
    density_B,
    eval_A,
    eval_A_grid,
    eval_B,
    eval_B_grid,
    eval_dA_dt,
    eval_dB_dt_grid,
    laplace_A_closed_form,
    laplace_B_closed_form,
    laplace_transform_numeric,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import L1Grid, solve_scalar
from .quadrature import adaptive_finite, exp_weighted_semiinfinite, graded_mesh
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

__all__ = ["CheckResult", "SUITES", "run_suites", "integral_B_time"]

RHO_GRID = (0.3, 0.5, 0.7, 0.9)
GAMMA_GRID = (0.5, 1.0, 2.0)
LAMBDA_TRIPLE = (1.0, 10.0, 100.0)
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


def _tol(default, override):
    return default if override is None else override


def integral_B_time(p: KernelParams, t: float,
                    q: QuadratureConfig | None = None) -> float:
    """int_0^t B(lam, s) ds by composite Gauss on a mesh graded toward 0.

    The grading exponent compensates the s^(-rho) growth of B', which is
    the kernel's only nonsmoothness on [0, t].
    """
    breaks = graded_mesh(t, 64, max(2.0, 2.0 / (1.0 - p.rho)))

    def fvec(ts):
        vals, _ = eval_B_grid(p, ts, q)
        return vals

    value, _ = adaptive_finite(fvec, breaks, tol_abs=1e-11, tol_rel=1e-9)
    return value


def _density_kernel(kernel: str, p: KernelParams, ts,
                   q: QuadratureConfig | None = None) -> np.ndarray:
    """A or B (kernel) at the times ts from the real-line density engine.

    The route independent of the Bromwich contour that eval_A_grid and
    eval_B_grid take.
    """
    dens, sigma = (density_A, p.rho - 1.0) if kernel == "A" else (density_B, 0.0)
    values, _ = exp_weighted_semiinfinite(lambda r: dens(r, p), ts,
                                          singular_exponent=sigma, q=q)
    return values


# ---------------------------------------------------------------------------
# Kernel suites


def suite_kernel_initial(q=None, override=None):
    """Both kernels equal 1 at t = 0 across the grid and lam in {1, 10, 100}.

    The contour pins t = 0, so the densities are integrated instead.
    """
    tol = _tol(1e-6, override)
    worst_a = worst_b = 0.0
    where = ""
    for rho, gamma in _grid():
        for lam in LAMBDA_TRIPLE:
            p = KernelParams(rho, gamma, lam)
            da = abs(_density_kernel("A", p, [0.0], q)[0] - 1.0)
            db = abs(_density_kernel("B", p, [0.0], q)[0] - 1.0)
            if max(da, db) > max(worst_a, worst_b):
                where = f"rho={rho} gamma={gamma} lam={lam}"
            worst_a = max(worst_a, da)
            worst_b = max(worst_b, db)
    return [
        CheckResult.from_worst("kernel-initial", "relaxation-at-zero", tol,
                               worst_a, where),
        CheckResult.from_worst("kernel-initial", "impulse-at-zero", tol,
                               worst_b, where),
    ]


def suite_a_properties(q=None, override=None):
    """Monotone decay, range (0, 1), and the uniform lower bound for A."""
    tol = _tol(0.0, override)
    ts = np.geomspace(1e-3, 1.0, 50)
    worst_mono = -np.inf   # most positive consecutive increment
    worst_range = -np.inf  # range violation amount
    worst_bound = -np.inf  # bound violation amount
    detail = ""
    for rho, gamma in _grid():
        c_a = lower_bound_A(rho, gamma, 1.0, 1.0, q)
        for lam in LAMBDA_TRIPLE:
            p = KernelParams(rho, gamma, lam)
            vals, _ = eval_A_grid(p, ts, q)
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


def suite_identities(q=None, override=None):
    """A = 1 - lam * int B, dA/dt = -lam B (with FD cross-check), int B < 1/lam."""
    tol_int = _tol(1e-6, override)
    tol_deriv = _tol(1e-6, override)
    tol_fd = _tol(1e-5, override)
    tight = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
    worst_int = worst_deriv = worst_fd = 0.0
    min_b_margin = np.inf
    for rho, gamma in _grid():
        for lam in (1.0, 10.0):
            p = KernelParams(rho, gamma, lam)
            for t in (0.25, 1.0):
                a_t = eval_A(p, t, q)
                ib = integral_B_time(p, t, q)
                worst_int = max(worst_int, abs(a_t - (1.0 - lam * ib)))
            worst_deriv = max(
                worst_deriv, abs(eval_dA_dt(p, 1.0, q) + lam * eval_B(p, 1.0, q))
            )
            h = 1e-4
            fd = (eval_A(p, 1.0 + h, tight) - eval_A(p, 1.0 - h, tight)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - eval_dA_dt(p, 1.0, tight)))
            min_b_margin = min(min_b_margin,
                               1.0 / lam - integral_B_time(p, 1.0, q))
    return [
        CheckResult.from_worst("identities", "integral-identity", tol_int,
                               worst_int),
        CheckResult.from_worst("identities", "derivative-identity", tol_deriv,
                               worst_deriv),
        CheckResult.from_worst("identities", "derivative-fd-cross-check",
                               tol_fd, worst_fd),
        CheckResult("identities", "b-mass-under-1/lam", min_b_margin > _tol(0.0, override),
                    min_b_margin, _tol(0.0, override),
                    "smallest margin of 1/lam - int_0^T B"),
    ]


def suite_b_properties(q=None, override=None):
    """Range, sign of dB/dt, and the measured envelope constants for B.

    The constant checks run on a strict subset of the manifest's reference
    grid (every second node), so the measured suprema cannot grow except
    for quadrature noise, absorbed by a 1e-6 relative slack.
    """
    tol = _tol(0.0, override)
    tol_const = _tol(1e-6, override)
    ts = constants_mod.reference_time_grid(1.0)[::2]
    worst_range = -np.inf
    worst_sign = -np.inf
    worst_env = -np.inf
    worst_der = -np.inf
    eps = constants_mod.DEFAULT_EPSILON
    for rho, gamma in _grid():
        cell = constants_mod.get_constants(rho, gamma)
        for lam in (1.0, 10.0, 100.0):
            p = KernelParams(rho, gamma, lam)
            b_vals, _ = eval_B_grid(p, ts, q)
            worst_range = max(worst_range, float(np.max(b_vals - 1.0)),
                              float(np.max(-b_vals)))
            db_vals, _ = eval_dB_dt_grid(p, ts, q)
            worst_sign = max(worst_sign, float(np.max(db_vals)))
            env = lam * b_vals / np.minimum(1.0 / ts, ts ** (rho - 1.0))
            worst_env = max(worst_env,
                            float(np.max(env)) / cell["c_envelope_B"] - 1.0)
            wgt = ts ** (1.0 - eps * (1.0 - rho)) * lam ** (-eps)
            worst_der = max(worst_der,
                            float(np.max(wgt * np.abs(db_vals)))
                            / cell["c_derivative_B"] - 1.0)
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


def suite_bounds(q=None, override=None):
    """Scaled lower bound for B, the deviation corollary, and the Gamma cap."""
    tol = _tol(0.0, override)
    ts = np.geomspace(1e-3, 1.0, 25)
    worst_b = -np.inf
    worst_cor = -np.inf
    worst_cap = -np.inf
    for rho, gamma in _grid():
        c_b = lower_bound_B(rho, gamma, 1.0, 1.0, q)
        cap = (math.gamma(rho) * gamma * math.sin(math.pi * rho)
               / (3.0 * math.pi))
        c_a = lower_bound_A(rho, gamma, 1.0, 1.0, q)
        worst_cap = max(worst_cap, c_a - cap)
        for lam in LAMBDA_TRIPLE:
            p = KernelParams(rho, gamma, lam)
            b_vals, _ = eval_B_grid(p, ts, q)
            worst_b = max(worst_b, float(np.max(c_b - lam * b_vals)))
            a_vals, _ = eval_A_grid(p, ts, q)
            worst_cor = max(worst_cor, float(np.max(c_b * ts - np.abs(a_vals - 1.0))))
    return [
        CheckResult.from_worst("bounds", "scaled-lower-bound-B", tol, worst_b),
        CheckResult.from_worst("bounds", "deviation-corollary", tol, worst_cor,
                               "|A - 1| >= C t"),
        CheckResult.from_worst("bounds", "gamma-function-cap", tol, worst_cap,
                               "C_A <= Gamma(rho)/T^rho * gamma sin(pi rho)/(3 pi)"),
    ]


def suite_laplace(q=None, override=None):
    """Numerically transformed kernels match the closed forms at z in {.5,1,2,5};
    the contour inverting those closed forms matches the density engine."""
    tol = _tol(1e-4, override)
    worst = 0.0
    detail = ""
    for rho, gamma in _grid():
        for lam in (1.0, 10.0):
            p = KernelParams(rho, gamma, lam)
            for z in (0.5, 1.0, 2.0, 5.0):
                num_a, _ = laplace_transform_numeric(p, z, q, kernel="A")
                num_b, _ = laplace_transform_numeric(p, z, q, kernel="B")
                da = abs(num_a - laplace_A_closed_form(p, z))
                db = abs(num_b - laplace_B_closed_form(p, z))
                if max(da, db) > worst:
                    detail = f"rho={rho} gamma={gamma} lam={lam} z={z}"
                worst = max(worst, da, db)
    # t = 0 is pinned on the contour and checked by kernel-initial; there the
    # density engine cannot integrate B's r^(rho - 2) tail for rho near 1
    tol_contour = _tol(1e-9, override)
    ts = np.linspace(0.0, 1.0, 257)[1:]
    reference_q = QuadratureConfig(rel_tol=1e-12)
    worst_contour = 0.0
    detail_contour = ""
    for rho in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        for gamma in GAMMA_GRID:
            for lam in (1.0, 1e2, 1e4, 1e6):
                p = KernelParams(rho, gamma, lam)
                d = max(np.max(np.abs(grid(p, ts, q)[0]
                                      - _density_kernel(kernel, p, ts, reference_q)))
                        for kernel, grid in (("A", eval_A_grid), ("B", eval_B_grid)))
                if d > worst_contour:
                    detail_contour = f"rho={rho} gamma={gamma} lam={lam:g}"
                worst_contour = max(worst_contour, float(d))
    return [CheckResult.from_worst("laplace", "transform-consistency", tol,
                                   worst, detail),
            CheckResult.from_worst("laplace", "contour-vs-density", tol_contour,
                                   worst_contour, detail_contour)]


def suite_oracle(q=None, override=None):
    """Quadrature kernel vs L1 stepping at t = 1, monotone under halving."""
    tol = _tol(1e-4, override)
    worst = 0.0
    mono_ok = True
    detail = ""
    for rho in RHO_GRID:
        for gamma in GAMMA_GRID:
            for lam in (1.0, 10.0):
                p = KernelParams(rho, gamma, lam)
                ref = eval_A(p, 1.0, q)
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
        CheckResult.from_worst("oracle", "kernel-vs-l1", tol, worst, detail),
        CheckResult("oracle", "error-monotone-under-halving", mono_ok,
                    0.0 if mono_ok else -1.0, 0.0, "dt in {4e-5, 2e-5, 1e-5}"),
    ]
    return results


def suite_limit(q=None, override=None):
    """Near rho = 1 the kernel approaches exp(-lam t / (1 + lam gamma))."""
    tol = _tol(1e-2, override)
    p = KernelParams(0.999, 1.0, 2.0)
    worst = 0.0
    for t in (0.5, 1.0):
        target = math.exp(-p.lam * t / (1.0 + p.lam * p.gamma))
        worst = max(worst, abs(eval_A(p, t, q) - target))
    return [CheckResult.from_worst("limit", "classical-relaxation", tol, worst,
                                   "rho=0.999 lam=2 gamma=1")]


# ---------------------------------------------------------------------------
# Solver suites (pinned reference configurations)


def _manufactured_trace(q=None, rho=0.5, gamma=1.0, n_nodes=512):
    op = explicit_spectrum(np.arange(1.0, 9.0))
    spec = ProblemSpec(
        "forward", op, rho, gamma, 1.0,
        CoefficientField(np.zeros(op.n_modes), op),
        manufactured_quadratic_source(op, rho, gamma),
        uniform_grid(1.0, n_nodes),
    )
    return spec, solve_forward(spec, q)


def suite_manufactured(q=None, override=None):
    """Quadratic manufactured solution: every mode reproduces t^2 to 1e-4."""
    tol = _tol(1e-4, override)
    spec, trace = _manufactured_trace(q)
    target = trace.nodes[:, None] ** 2
    worst = float(np.max(np.abs(trace.coefficients - target)))
    return [CheckResult.from_worst("manufactured", "quadratic-response", tol,
                                   worst, "8 modes, rho=0.5, gamma=1, T=1")]


def _nonlocal_data(op):
    rng = np.random.default_rng(REFERENCE_SEED)
    xi = rng.uniform(-1.0, 1.0, op.n_modes)
    return CoefficientField(op.eigenvalues ** -2.0 * xi, op)


def suite_nonlocal(q=None, override=None):
    """Increment condition and the forced/homogeneous decomposition."""
    tol_gap = _tol(1e-6, override)
    tol_dec = _tol(1e-10, override)
    op = explicit_spectrum(np.arange(1.0, 9.0))
    phihat = _nonlocal_data(op)
    worst_gap = 0.0
    worst_dec = 0.0
    for source in (None, constant_source(0.5)):
        spec = ProblemSpec("nonlocal", op, 0.5, 1.0, 1.0, phihat, source,
                           uniform_grid(1.0, 512))
        trace = solve_nonlocal(spec, q)
        worst_gap = max(worst_gap, trace.diagnostics["nonlocal_gap"])
        forced = ProblemSpec("forward", op, 0.5, 1.0, 1.0,
                             CoefficientField(np.zeros(op.n_modes), op),
                             source, spec.time_grid)
        v_trace = solve_forward(forced, q)
        psi = CoefficientField(phihat.coefficients - v_trace.coefficients[-1], op)
        w_trace = solve_auxiliary_W(psi, 0.5, 1.0, 1.0, spec.time_grid, q)
        recomposed = w_trace.coefficients + v_trace.coefficients
        worst_dec = max(worst_dec,
                        float(np.max(np.abs(recomposed - trace.coefficients))))
    return [
        CheckResult.from_worst("nonlocal", "increment-condition", tol_gap,
                               worst_gap, "u(T) - u(0) = data"),
        CheckResult.from_worst("nonlocal", "decomposition", tol_dec, worst_dec,
                               "solution equals W + V node-wise"),
    ]


def suite_backward(q=None, override=None):
    """Round-trip recovery of terminal data built by an independent route."""
    tol = _tol(1e-4, override)
    op = dirichlet_laplacian_1d(math.pi, 10)  # eigenvalues k^2 <= 100
    phi = CoefficientField(op.eigenvalues ** -2.0, op)
    grid = uniform_grid(1.0, 512)
    # Terminal data phi_k A(lam_k, T) from the density engine, so the
    # recovery through the contour is not a cancellation of shared kernel
    # values; the solve runs on tighter settings than the suite's own.
    a_T = [_density_kernel("A", KernelParams(0.5, 1.0, lam), [1.0], q)[0]
           for lam in op.eigenvalues]
    psi = CoefficientField(phi.coefficients * np.array(a_T), op)
    back_q = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13, split_point=0.7)
    back = ProblemSpec("backward", op, 0.5, 1.0, 1.0, psi, None, grid)
    back_trace = solve_backward(back, back_q)
    worst = float(np.max(np.abs(back_trace.coefficients[0] - phi.coefficients)))
    norm_ok = (back_trace.diagnostics["recovered_initial_norm"]
               <= back_trace.diagnostics["stability_bound"] + 1e-12)
    return [
        CheckResult.from_worst("backward", "roundtrip-recovery", tol, worst,
                               "modes with lam <= 100"),
        CheckResult("backward", "stability-bound", norm_ok,
                    back_trace.diagnostics["stability_bound"]
                    - back_trace.diagnostics["recovered_initial_norm"],
                    0.0, "||phi|| <= ||psi - V(T)|| / C_A"),
    ]


def suite_coercivity(q=None, override=None):
    """Damped derivative norm stable under grid doubling; all norms finite."""
    tol_change = _tol(0.10, override)
    sups = []
    all_finite = True
    for n_nodes in (512, 1024):
        op = dirichlet_laplacian_1d(math.pi, 6)
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                           None, uniform_grid(1.0, n_nodes))
        trace = solve_forward(spec, q)
        rep = coercivity_report(trace, spec)
        sups.append(float(np.max(rep["weighted_norm_dt_u"])))
        for key in ("norm_dt_u", "norm_A_u", "norm_A_caputo_u"):
            if not np.all(np.isfinite(rep[key])):
                all_finite = False
    change = abs(sups[1] - sups[0]) / sups[0]
    return [
        CheckResult.from_worst("coercivity", "weighted-derivative-stability",
                               tol_change, change,
                               f"sup t^(1-rho)||du||: {sups[0]:.6f} -> {sups[1]:.6f}"),
        CheckResult("coercivity", "norms-finite", all_finite,
                    0.0 if all_finite else -1.0, 0.0, ""),
    ]


def suite_residual(q=None, override=None):
    """Interior residual of every reference trace under 1e-3 for t >= T/32."""
    tol = _tol(1e-3, override)
    worst = 0.0
    detail = ""

    def track(name, trace):
        nonlocal worst, detail
        value = trace.diagnostics["residual_max_interior"]
        if value is not None and value > worst:
            worst = value
            detail = name
    _, tr = _manufactured_trace(q)
    track("manufactured", tr)
    op = explicit_spectrum(np.arange(1.0, 9.0))
    phihat = _nonlocal_data(op)
    for label, source in (("zero", None), ("constant", constant_source(0.5))):
        spec = ProblemSpec("nonlocal", op, 0.5, 1.0, 1.0, phihat, source,
                           uniform_grid(1.0, 512))
        track(f"nonlocal-{label}", solve_nonlocal(spec, q))
    op2 = dirichlet_laplacian_1d(math.pi, 10)
    phi = CoefficientField(op2.eigenvalues ** -2.0, op2)
    fwd = ProblemSpec("forward", op2, 0.5, 1.0, 1.0, phi, None,
                      uniform_grid(1.0, 512))
    fwd_trace = solve_forward(fwd, q)
    track("forward-smooth", fwd_trace)
    psi = CoefficientField(fwd_trace.coefficients[-1].copy(), op2)
    back = ProblemSpec("backward", op2, 0.5, 1.0, 1.0, psi, None,
                       uniform_grid(1.0, 512))
    track("backward", solve_backward(back, q))
    op3 = dirichlet_laplacian_1d(math.pi, 6)
    basis_spec = ProblemSpec("forward", op3, 0.5, 1.0, 1.0, basis_field(op3, 1),
                             None, uniform_grid(1.0, 512))
    track("forward-basis", solve_forward(basis_spec, q))
    return [CheckResult.from_worst("residual", "interior-gate", tol, worst,
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


def run_suites(names=None, q: QuadratureConfig | None = None,
               tolerance_override: float | None = None) -> dict:
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
        checks.extend(SUITES[name](q=q, override=tolerance_override))
    failed = [f"{c.suite}:{c.name}" for c in checks if not c.passed]
    return {
        "suites": selected,
        "checks": [asdict(c) for c in checks],
        "passed": not failed,
        "failed": failed,
    }
