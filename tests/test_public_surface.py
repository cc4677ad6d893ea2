"""The package's public names: declared, resolvable, and no more than used."""

import importlib
import types

import pytest

import frstokes

MODULES = ("constants", "kernel", "oracle", "quadrature", "solvers",
           "spectral", "verification")
# names retired for a survivor that does the same job
REMOVED = {
    "kernel": ("eval_dA_dt", "eval_dB_dt"),     # -lam * eval_B, eval_dB_dt_grid
    "oracle": ("caputo_l1",),                   # caputo_l1_trace(...)[-1]
    "spectral": ("field_from_coefficients",     # CoefficientField(c, op)
                 "apply_A"),
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
