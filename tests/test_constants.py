import json

import numpy as np
import pytest

from frstokes.constants import (
    DEFAULT_EPSILON,
    constants_key,
    get_constants,
    load_manifest,
    manifest_path,
    measure_constants,
    reference_time_grid,
)
from frstokes.kernel import KernelParams, eval_B_grid


def test_manifest_is_packaged_and_complete():
    manifest = load_manifest()
    for rho in (0.3, 0.5, 0.7, 0.9):
        for gamma in (0.5, 1.0, 2.0):
            cell = manifest["cells"][constants_key(rho, gamma)]
            assert cell["c_envelope_B"] > 0.0
            assert cell["c_derivative_B"] > 0.0
            assert cell["c_forcing_response"] > 0.0


def test_env_override(tmp_path, monkeypatch):
    fake = {"cells": {constants_key(0.5, 1.0): {"c_envelope_B": 123.0}}}
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(fake))
    monkeypatch.setenv("FRS_CONSTANTS_MANIFEST", str(path))
    assert manifest_path() == str(path)
    assert get_constants(0.5, 1.0)["c_envelope_B"] == 123.0


def test_missing_cell_raises():
    with pytest.raises(KeyError):
        get_constants(0.123, 7.0)


def test_reference_grid_decimates_to_subsets():
    fine = reference_time_grid(1.0, 241)
    coarse = reference_time_grid(1.0, 121)
    assert coarse == pytest.approx(fine[::2], rel=1e-14)


def test_stored_suprema_dominate_coarser_grids():
    # the refinement protocol: a supremum measured on the reference grid
    # bounds the same supremum on any decimated subset
    cell = get_constants(0.5, 1.0)
    ts = reference_time_grid(1.0, 61)
    worst = 0.0
    for lam in (1.0, 10.0, 100.0):
        p = KernelParams(0.5, 1.0, lam)
        b_vals, _ = eval_B_grid(p, ts)
        env = lam * b_vals / np.minimum(1.0 / ts, ts ** (0.5 - 1.0))
        worst = max(worst, float(np.max(env)))
    assert worst <= cell["c_envelope_B"] * (1.0 + 1e-6)


def test_measurement_is_reproducible_on_small_grid():
    a = measure_constants(0.5, 1.0, n_nodes=31)
    b = measure_constants(0.5, 1.0, n_nodes=31)
    assert a["c_envelope_B"] == b["c_envelope_B"]
    assert a["c_derivative_B"] == b["c_derivative_B"]
    # and the packaged (finer) measurement dominates it
    cell = get_constants(0.5, 1.0)
    assert a["c_envelope_B"] <= cell["c_envelope_B"] * (1.0 + 1e-6)
    assert a["c_derivative_B"] <= cell["c_derivative_B"] * (1.0 + 1e-6)


def test_measurement_runs_no_density_engine(monkeypatch):
    # B and dB/dt come from one contour call; the adaptive engine serves
    # the verification references alone
    from frstokes import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("the density engine ran")

    monkeypatch.setattr(quadrature, "_refine", refuse)
    assert measure_constants(0.5, 1.0, n_nodes=31)["c_derivative_B"] > 0.0


def test_default_epsilon_matches_manifest_reference():
    manifest = load_manifest()
    assert manifest["reference"]["epsilon"] == DEFAULT_EPSILON


def test_manifest_matches_fresh_measurement():
    # the stored constants are what the reference measurement gives with
    # the current kernels: after a kernel change, regenerate them with
    # scripts/build_constants_manifest.py
    cells = load_manifest()["cells"]
    for rho in (0.3, 0.5, 0.7, 0.9):
        for gamma in (0.5, 1.0, 2.0):
            stored = cells[constants_key(rho, gamma)]
            fresh = measure_constants(rho, gamma)
            for key in ("c_envelope_B", "c_derivative_B",
                        "c_forcing_response"):
                assert fresh[key] == pytest.approx(stored[key], rel=1e-9), (
                    f"rho={rho} gamma={gamma} {key}")
