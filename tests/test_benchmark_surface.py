"""Every package name the committed benchmark traces or runs still exists.

The benchmark under perfbench/ drives the package in-process and wraps
named functions for its per-layer spans; a removed or renamed name would
break it only when it runs.  These checks load its modules as they are.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from frstokes import verification

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    loaded = {}
    for name in ("tracing", "workloads"):
        key = f"_perfbench_{name}"
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses resolve their module by name
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[key]
            raise
        loaded[name] = module
    yield loaded
    for name in loaded:
        del sys.modules[f"_perfbench_{name}"]


def test_traced_names_resolve(perfbench):
    missing = [f"frstokes.{module}.{name}"
               for module, name in perfbench["tracing"].TARGETS
               if not hasattr(importlib.import_module(f"frstokes.{module}"), name)]
    assert missing == []


def test_verify_workload_runs_registered_suites(perfbench):
    suites = {op.suite for op in perfbench["workloads"].WORKLOADS["verify"]
              if op.kind == "verify"}
    assert suites
    assert suites <= set(verification.SUITES)


def test_backend_name_recorded():
    from frstokes import _accel

    assert isinstance(_accel.BACKEND, str) and _accel.BACKEND
