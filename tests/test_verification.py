import pytest

from frstokes.verification import SUITES, run_suites


def test_registry_covers_all_guarantee_families():
    expected = {
        "kernel-initial", "a-properties", "identities", "b-properties",
        "bounds", "laplace", "oracle", "limit", "manufactured", "nonlocal",
        "backward", "coercivity", "residual",
    }
    assert set(SUITES) == expected


def test_fast_suites_pass():
    report = run_suites(["kernel-initial", "limit", "bounds"])
    assert report["passed"]
    assert report["failed"] == []
    assert {c["suite"] for c in report["checks"]} == {
        "kernel-initial", "limit", "bounds"
    }


def test_margins_are_reported():
    report = run_suites(["kernel-initial"])
    for check in report["checks"]:
        assert check["margin"] >= 0.0
        assert check["tolerance"] > 0.0


def test_fault_injection_zero_tolerance_fails():
    report = run_suites(["kernel-initial"], tolerance_override=0.0)
    assert not report["passed"]
    assert report["failed"]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_derivative_identity_sees_a_shifted_contour_B(monkeypatch):
    # dA/dt comes from the density engine, so moving every contour value
    # of B by 1e-5 must break -lam B = dA/dt
    from frstokes import kernel

    contour = kernel._bromwich

    def shifted(kind, *args, **kwargs):
        values, errors = contour(kind, *args, **kwargs)
        return (values + 1e-5 if kind == "B" else values), errors

    monkeypatch.setattr(kernel, "_bromwich", shifted)
    (check,) = [c for c in SUITES["identities"]()
                if c.name == "derivative-identity"]
    assert not check.passed
    assert check.margin < 0.0
