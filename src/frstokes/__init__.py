"""Spectral solvers for the Rayleigh-Stokes equation with Caputo time memory."""

from .kernel import (
    KernelParams,
    QuadratureConfig,
    density_A,
    density_B,
    eval_A,
    eval_A_grid,
    eval_B_grid,
    laplace_A_closed_form,
    laplace_B_closed_form,
    laplace_transform_numeric,
    lower_bound_A,
    lower_bound_B,
)
from .oracle import (
    L1Grid,
    caputo_l1_trace,
    l1_weights,
    richardson_extrapolate,
    solve_scalar,
)
from .solvers import (
    GridTooCoarseError,
    KernelAccuracyError,
    ProblemSpec,
    SolutionTrace,
    SolverError,
    coercivity_report,
    constant_source,
    manufactured_quadratic_source,
    residual,
    sampled_source,
    solve_auxiliary_W,
    solve_backward,
    solve_forward,
    solve_nonlocal,
    uniform_grid,
)
from .spectral import (
    AliasingWarning,
    CoefficientField,
    SpectralOperator,
    basis_field,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    load_field_csv,
    norm_tau,
    project,
    synthesize,
    tail_indicator,
)

__version__ = "0.1.0"
