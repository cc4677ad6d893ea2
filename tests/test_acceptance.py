"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a PASS line with the observed worst-case margin so the
suite run doubles as a verification report; the same checks back the CLI
``verify`` command (see frstokes.verification).
"""

import time

from frstokes.verification import SUITES

_TIME_BUDGETS = {
    "kernel-initial": 10.0,
    "a-properties": 30.0,
    "oracle": 60.0,
    "backward": 120.0,
}


def _run(suite_name):
    t0 = time.time()
    results = SUITES[suite_name]()
    elapsed = time.time() - t0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"ACCEPTANCE {status} {check.suite}:{check.name} "
              f"margin={check.margin:.3e} tol={check.tolerance:g} "
              f"[{elapsed:.1f}s] {check.detail}")
    failed = [c for c in results if not c.passed]
    assert not failed, f"failed checks: {[c.name for c in failed]}"
    budget = _TIME_BUDGETS.get(suite_name)
    if budget is not None:
        assert elapsed < budget, f"{suite_name} took {elapsed:.1f}s > {budget}s"
    return results


def test_criterion_01_kernel_initial_values():
    # A(., 0) = B(., 0) = 1 within 1e-6 over the parameter grid, < 10 s
    _run("kernel-initial")


def test_criterion_02_relaxation_property_suite():
    # strict decrease, range (0,1), uniform lower bound; < 30 s
    _run("a-properties")


def test_criterion_03_identity_suite():
    # A = 1 - lam int B (1e-6), dA = -lam B (1e-6, FD cross-check 1e-5),
    # int_0^T B < 1/lam with positive margin
    _run("identities")


def test_criterion_04_laplace_self_consistency():
    # numeric transform matches closed forms within 1e-4 at z in {.5,1,2,5}
    _run("laplace")


def test_criterion_05_mutual_oracle():
    # |A - L1 solution| <= 1e-4 at dt = 1e-5, monotone under halving; < 5 min
    _run("oracle")


def test_criterion_06_classical_limit():
    # rho = 0.999: kernel within 1e-2 of exp(-lam t / (1 + lam gamma))
    _run("limit")


def test_criterion_07_manufactured_forward_solution():
    # 8-mode quadratic manufactured solution reproduced within 1e-4
    _run("manufactured")


def test_criterion_08_nonlocal_increment_condition():
    # increment condition within 1e-6; W + V decomposition within 1e-10
    _run("nonlocal")


def test_criterion_09_backward_recovery():
    # round trip within 1e-4 on modes lam <= 100; stability bound; < 2 min
    _run("backward")


def test_criterion_10_coercivity_boundedness():
    # damped derivative norm finite and < 10% change under grid doubling
    _run("coercivity")


def test_criterion_11_residual_gate():
    # every emitted trace: interior residual <= 1e-3 for t >= T/32, 512 nodes
    _run("residual")


def test_acceptance_suite_is_complete():
    # every registered guarantee family is exercised by a criterion above
    covered = {
        "kernel-initial", "a-properties", "identities", "laplace", "oracle",
        "limit", "manufactured", "nonlocal", "backward", "coercivity",
        "residual",
    }
    leftovers = set(SUITES) - covered
    # b-properties and bounds are module-invariant suites run by the CLI
    # verify command and unit tests; assert they stay registered
    assert leftovers == {"b-properties", "bounds"}
