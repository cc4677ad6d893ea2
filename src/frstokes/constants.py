"""Measured envelope constants for bounds the theory states only exist.

Three families of estimates assert a finite constant without giving its
value: the kernel envelope lam * B <= C * min(1/t, t^(rho-1)), the kernel
derivative bound |dB/dt| <= C * lam^eps / t^(1 - eps(1-rho)), and the
forced-response bound ||A u(t)|| <= C * max_t ||f(t)||_eps.  Each constant
is measured once per (rho, gamma) cell on a fine reference grid, stored in
a JSON manifest versioned in-repo, and asserted non-increasing under grid
refinement afterwards (coarser check grids are exact subsets of the
reference grid, so measured suprema can only shrink).

The manifest location can be overridden with the FRS_CONSTANTS_MANIFEST
environment variable.
"""

from __future__ import annotations

import json
import os
from importlib import resources

import numpy as np

from . import kernel

__all__ = [
    "DEFAULT_EPSILON",
    "REFERENCE_TIME_NODES",
    "manifest_path",
    "load_manifest",
    "constants_key",
    "get_constants",
    "measure_constants",
    "reference_time_grid",
]

DEFAULT_EPSILON = 0.5
REFERENCE_TIME_NODES = 241          # check grids use 241 -> 121 -> 61 ...
_REFERENCE_T_FLOOR = 1e-4
_LAMBDA_FACTORS = (1.0, 10.0, 100.0)   # eigenvalues lambda_1 * factor

ENV_VAR = "FRS_CONSTANTS_MANIFEST"


def manifest_path() -> str | None:
    """Path of the active manifest: env override, else the packaged file."""
    override = os.environ.get(ENV_VAR)
    if override:
        return override
    ref = resources.files("frstokes").joinpath("data/constants.json")
    return str(ref) if ref.is_file() else None


def load_manifest() -> dict:
    target = manifest_path()
    if target is None or not os.path.exists(target):
        raise FileNotFoundError(
            "no constants manifest found; generate one with "
            "scripts/build_constants_manifest.py or set FRS_CONSTANTS_MANIFEST"
        )
    with open(target) as fh:
        return json.load(fh)


def constants_key(rho: float, gamma: float) -> str:
    """The manifest key of a (rho, gamma) cell at lambda_1 = T = 1."""
    return f"rho={rho:g}|gamma={gamma:g}|lambda1=1|T=1|eps={DEFAULT_EPSILON:g}"


def get_constants(rho: float, gamma: float) -> dict:
    key = constants_key(rho, gamma)
    try:
        return load_manifest()["cells"][key]
    except KeyError:
        raise KeyError(f"constants manifest has no cell {key!r}") from None


def reference_time_grid(T: float, n_nodes: int = REFERENCE_TIME_NODES) -> np.ndarray:
    """Logarithmic grid on [1e-4 T, T]; decimating by 2 yields exact subsets."""
    return np.geomspace(_REFERENCE_T_FLOOR * T, T, n_nodes)


def measure_constants(rho: float, gamma: float,
                      n_nodes: int = REFERENCE_TIME_NODES) -> dict:
    """Suprema of the normalized bound quantities on the reference grid.

    The cell of the manifest key: lambda_1 = T = 1, eps = DEFAULT_EPSILON.
    """
    ts = reference_time_grid(1.0, n_nodes)
    ((_, _, env, der),) = _envelope_terms([(rho, gamma)], _LAMBDA_FACTORS, ts,
                                          DEFAULT_EPSILON)
    forcing = _measure_forcing_response(rho, gamma)
    return {
        "c_envelope_B": float(np.max(env)),
        "c_derivative_B": float(np.max(der)),
        "c_forcing_response": forcing,
        "n_nodes": int(n_nodes),
        "lambda_factors": list(_LAMBDA_FACTORS),
    }


def _envelope_terms(cells, lams, ts: np.ndarray, epsilon: float) -> list:
    """B, dB/dt and the two normalized envelope quantities at the times ts,
    for each (rho, gamma) of cells.

    The quantities are lam B / min(1/t, t^(rho-1)) and
    t^(1-eps(1-rho)) lam^-eps |dB/dt|: the manifest stores their suprema
    and the b-properties suite checks against them.  Every cell and every
    eigenvalue in lams share one contour call for B and dB/dt, and each
    cell's quantities are then formed on its own columns alone.  Returns,
    per cell, four arrays of shape (ts.size, len(lams)).
    """
    lam = np.asarray(lams, dtype=float)
    t = ts[:, None]
    terms = []
    for (rho, _), (b, db) in zip(
            cells, kernel._cell_contour(("B", "dB"), cells, lam, ts)):
        env = lam * b / np.minimum(1.0 / t, t ** (rho - 1.0))
        weight = t ** (1.0 - epsilon * (1.0 - rho)) * lam ** (-epsilon)
        terms.append((b, db, env, weight * np.abs(db)))
    return terms


def _measure_forcing_response(rho, gamma):
    """sup_t ||A u(t)|| / max_t ||f(t)||_eps on the reference forced problem."""
    from .solvers import ProblemSpec, constant_source, solve_forward, uniform_grid
    from .spectral import CoefficientField, explicit_spectrum, norm_tau

    op = explicit_spectrum(np.arange(1.0, 9.0))
    f_coeffs = op.eigenvalues ** -2.0
    spec = ProblemSpec(
        "forward", op, rho, gamma, 1.0,
        CoefficientField(np.zeros(op.n_modes), op),
        constant_source(f_coeffs), uniform_grid(1.0, 257),
    )
    trace = solve_forward(spec)
    f_norm = norm_tau(CoefficientField(f_coeffs, op), DEFAULT_EPSILON)
    return float(np.max(trace.diagnostics["norm_A"])) / f_norm
