"""The package's public names: declared, resolvable, and no more than used."""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types

import pytest

import frstokes
from frstokes.verification import SUITES

MODULES = ("constants", "kernel", "oracle", "quadrature", "solvers",
           "spectral", "verification")
# names retired for a survivor that does the same job
REMOVED = {
    "kernel": ("eval_dA_dt", "eval_dB_dt",      # -lam * B, eval_dB_dt_grid
               "MIN_DERIVATIVE_TIME",           # eval_dB_dt_grid takes any t > 0
               "eval_B"),                       # eval_B_grid(p, [t])
    "oracle": ("caputo_l1",),                   # caputo_l1_trace(...)[-1]
    "quadrature": ("integrate_semiinfinite",    # exp_weighted_semiinfinite
                                                # at ts = [0.0]
                   "graded_mesh"),              # inline in _integral_B_time
    "spectral": ("field_from_coefficients",     # CoefficientField(c, op)
                 "apply_A"),
}
# parameters that no caller outside the tests set to anything but one value
REMOVED_PARAMETERS = {
    "verification.run_suites": ("tolerance_override",),
    **{f"verification.{suite.__name__}": ("override",)
       for suite in SUITES.values()},
    "quadrature.QuadratureConfig": ("max_refinements",),  # MAX_SPLITS
    "quadrature.adaptive_finite": ("max_rounds",),          # MAX_SPLITS
    "kernel.lower_bound_A": ("q",),             # a fixed rule, no tolerance
    "kernel.lower_bound_B": ("q",),
    "constants.load_manifest": ("path",),       # FRS_CONSTANTS_MANIFEST
    "constants.get_constants": ("lambda_1", "T", "epsilon", "path"),
    "constants.measure_constants": ("lambda_1", "T", "epsilon", "q"),
    "constants.constants_key": ("lambda_1", "T", "epsilon"),
    "oracle.richardson_extrapolate": ("assumed_order",),  # first order
    "oracle.solve_scalar": ("rho",),            # grid.rho
    "spectral.basis_field": ("amplitude",),     # scale the field's coefficients
    "solvers.solve_auxiliary_W": ("q",),
}


@pytest.mark.parametrize("module", MODULES)
def test_every_declared_name_resolves(module):
    mod = importlib.import_module(f"frstokes.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_top_level_names_are_declared_by_a_module():
    declared = set()
    for module in MODULES:
        declared.update(importlib.import_module(f"frstokes.{module}").__all__)
    public = {name for name, value in vars(frstokes).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - declared == set()


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"frstokes.{module}")
        for name in names:
            assert not hasattr(mod, name), f"frstokes.{module}.{name}"
            assert not hasattr(frstokes, name), f"frstokes.{name}"
    # nothing the package runs raises it; the engine keeps it for its tests
    assert not hasattr(frstokes, "QuadratureNonconvergence")


# Imports the package and its CLI, then runs a forced solve, the numeric
# transform and every suite that reads a spectral density.
RUNTIME = """
import math
import sys

import frstokes
import frstokes.cli
from frstokes.verification import run_suites

op = frstokes.dirichlet_laplacian_1d(math.pi, 4)
frstokes.solve_forward(frstokes.ProblemSpec(
    "forward", op, 0.5, 1.0, 1.0, frstokes.basis_field(op, 1),
    frstokes.constant_source(1.0), frstokes.uniform_grid(1.0, 96)))
frstokes.laplace_transform_numeric(frstokes.KernelParams(0.5, 1.0, 2.0), 1.0)
assert run_suites(["kernel-initial", "identities", "laplace",
                   "backward"])["passed"]
print("frstokes.quadrature" in sys.modules)
"""


def test_runtime_never_loads_the_adaptive_engine():
    # the adaptive engine of quadrature serves the tests alone
    src = pathlib.Path(frstokes.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", RUNTIME], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_removed_parameters_are_gone():
    for path, names in REMOVED_PARAMETERS.items():
        module, name = path.split(".")
        fn = getattr(importlib.import_module(f"frstokes.{module}"), name)
        kept = set(inspect.signature(fn).parameters)
        assert kept.isdisjoint(names), f"frstokes.{path}: {kept & set(names)}"
