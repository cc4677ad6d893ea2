import itertools
import math

import numpy as np
import pytest

from frstokes.verification import (GAMMA_GRID, RHO_GRID, SUITES, CheckResult,
                                   run_suites)


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


def test_fault_injection_zero_tolerance_fails(monkeypatch):
    # a check held to a zero tolerance fails, and the report says which
    limit = SUITES["limit"]

    def strict():
        worst = max(c.tolerance - c.margin for c in limit())
        return [CheckResult.from_worst("limit", "zero-tolerance", 0.0, worst)]

    monkeypatch.setitem(SUITES, "limit", strict)
    report = run_suites(["kernel-initial", "limit"])
    assert not report["passed"]
    assert report["failed"] == ["limit:zero-tolerance"]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def _shift_contour(monkeypatch, kind, shift):
    """Add shift(ts) to every contour value of kind, whatever it is asked with."""
    from frstokes import kernel

    contour = kernel._bromwich

    def shifted(kinds, rho, gamma, lam, ts, *args, **kwargs):
        values, errors = contour(kinds, rho, gamma, lam, ts, *args, **kwargs)
        named = (kinds,) if isinstance(kinds, str) else tuple(kinds)
        mask = np.array([k == kind for k in named])[:, None, None]
        return values + mask * shift(np.asarray(ts))[:, None], errors

    monkeypatch.setattr(kernel, "_bromwich", shifted)


def test_derivative_identity_sees_a_shifted_contour_B(monkeypatch):
    # dA/dt comes from the density engine, so moving every contour value
    # of B by 1e-5 must break -lam B = dA/dt
    _shift_contour(monkeypatch, "B", lambda ts: np.full(ts.shape, 1e-5))
    (check,) = [c for c in SUITES["identities"]()
                if c.name == "derivative-identity"]
    assert not check.passed
    assert check.margin < 0.0


def test_derivative_B_check_sees_a_shifted_contour_dB(monkeypatch):
    # the densities' dB/dt is the reference: moving every contour value of
    # dB/dt by 1e-5 / t, 1e-5 in t dB/dt, must break the 1e-6 agreement
    _shift_contour(monkeypatch, "dB", lambda ts: 1e-5 / ts)
    checks = {c.name: c for c in SUITES["identities"]()}
    assert not checks["derivative-B-vs-density"].passed
    assert checks["derivative-B-vs-density"].margin < 0.0
    assert checks["derivative-identity"].passed


def test_contour_vs_density_sees_a_shifted_contour_A(monkeypatch):
    # the joint density pass is the reference: moving every contour value
    # of A by 1e-8 must break the 1e-9 agreement
    _shift_contour(monkeypatch, "A", lambda ts: np.full(ts.shape, 1e-8))
    (check,) = [c for c in SUITES["laplace"]()
                if c.name == "contour-vs-density"]
    assert not check.passed
    assert check.margin < 0.0


def test_fixed_rule_integral_B_matches_adaptive():
    # the fixed 64-cell Kronrod rule against adaptive Gauss-Kronrod on the
    # same graded mesh, over the identities suite's grid
    from frstokes.kernel import KernelParams, eval_B_grid
    from frstokes.quadrature import adaptive_finite
    from frstokes.verification import GAMMA_GRID, RHO_GRID, _integral_B_time

    worst = 0.0
    lams, times = (1.0, 10.0), (0.25, 1.0)
    for rho in RHO_GRID:
        integrals = _integral_B_time(rho, GAMMA_GRID, lams, times)
        for gamma, fixed in zip(GAMMA_GRID, integrals):
            for j, lam in enumerate(lams):
                p = KernelParams(rho, gamma, lam)
                for i, t in enumerate(times):
                    breaks = t * (np.arange(65) / 64) ** max(
                        2.0, 2.0 / (1.0 - rho))
                    adaptive, _ = adaptive_finite(
                        lambda ts: eval_B_grid(p, ts)[0], breaks,
                        tol_abs=1e-11, tol_rel=1e-9)
                    worst = max(worst, abs(fixed[i, j] - adaptive))
    assert worst <= 1e-12


def test_kernel_initial_details_name_each_checks_own_worst_case(
        monkeypatch):
    # each check reports where its own kernel deviates most from 1 at t = 0
    from frstokes import verification
    from frstokes.verification import LAMBDA_TRIPLE, _density_rule, _grid

    grid = [(rho, gamma, lam) for rho, gamma in _grid()
            for lam in LAMBDA_TRIPLE]
    # the suite's reference: one density-rule call per (rho, gamma) cell
    deviations = np.concatenate([np.abs(_density_rule(
        rho, gamma, LAMBDA_TRIPLE, [0.0])[0] - 1.0) for rho, gamma in _grid()])
    details = {c.name: c.detail for c in SUITES["kernel-initial"]()}
    for column, name in enumerate(("relaxation-at-zero", "impulse-at-zero")):
        rho, gamma, lam = grid[int(np.argmax(deviations[:, column]))]
        assert details[name] == f"rho={rho} gamma={gamma} lam={lam}"
    # the rule's deviations are rounding, ~5e-15, so where A's and B's
    # worst cases fall is not fixed by them: a stub reference whose A
    # deviation grows along the grid and whose B deviation (of either
    # sign) shrinks puts them at its last and first case by construction
    def stub(rho, gamma, lams, ts, kinds=("A", "B")):
        j = grid.index((rho, gamma, lams[0])) + np.arange(len(lams))
        deviation = np.stack([j + 1.0, (-1.0) ** j * (len(grid) - j)], axis=1)
        return (1.0 + 1e-9 * deviation)[None]

    monkeypatch.setattr(verification, "_density_rule", stub)
    details = {c.name: c.detail for c in SUITES["kernel-initial"]()}
    assert details["relaxation-at-zero"] == "rho=0.9 gamma=2.0 lam=100.0"
    assert details["impulse-at-zero"] == "rho=0.3 gamma=0.5 lam=1.0"


def test_fixed_rule_transforms_match_the_adaptive_route():
    # transform-consistency's fixed rule against adaptive Gauss-Kronrod on
    # the same contour kernels and the rule's breaks, over the suite's grid
    from frstokes.kernel import _bromwich, _laplace_rule
    from frstokes.quadrature import adaptive_finite
    from frstokes.verification import LAPLACE_LAMBDAS, LAPLACE_Z, _grid

    inner, t_max = 1e-6 * 50.0 / max(LAPLACE_Z), 50.0 / min(LAPLACE_Z)
    breaks = np.concatenate(([0.0], inner * 2.0 ** np.arange(
        math.ceil(math.log2(t_max / inner))), [t_max]))
    worst = 0.0
    for rho, gamma in _grid():
        ((transforms, _),) = _laplace_rule(("A", "B"), [(rho, gamma)],
                                           LAPLACE_LAMBDAS, LAPLACE_Z)
        for (k, kind), (i, z), (j, lam) in itertools.product(
                enumerate("AB"), enumerate(LAPLACE_Z),
                enumerate(LAPLACE_LAMBDAS)):
            def integrand(ts):
                (values,), _ = _bromwich(kind, rho, gamma, lam, ts,
                                         error_at=slice(0))
                return np.exp(-z * ts) * values[:, 0]

            value, _ = adaptive_finite(integrand, breaks, tol_abs=1e-11,
                                       tol_rel=1e-7)
            worst = max(worst, abs(transforms[k, i, j] - value))
    assert worst <= 1e-8


def test_grouped_references_match_per_case_calls():
    # the rule's cells follow every eigenvalue of a call, so a column of a
    # grouped call agrees with its single-lam call to the rule's accuracy
    from frstokes.verification import LAMBDA_TRIPLE, _density_rule, _grid

    ts = np.array([0.0, 0.25, 1.0])
    for rho, gamma in _grid():
        grouped = _density_rule(rho, gamma, LAMBDA_TRIPLE, ts)
        assert grouped.shape == (ts.size, len(LAMBDA_TRIPLE), 2)
        for j, lam in enumerate(LAMBDA_TRIPLE):
            np.testing.assert_allclose(
                grouped[:, j], _density_rule(rho, gamma, [lam], ts)[:, 0],
                rtol=0.0, atol=1e-13)
        # identities' -dA/dt and -dB/dt, at its times and lam
        grouped = _density_rule(rho, gamma, (1.0, 10.0), ts[1:], ("-dA", "-dB"))
        for j, lam in enumerate((1.0, 10.0)):
            single = _density_rule(rho, gamma, [lam], ts[1:], ("-dA", "-dB"))
            np.testing.assert_allclose(grouped[:, j], single[:, 0],
                                       rtol=1e-13, atol=0.0)


CONTOUR_VS_DENSITY_GRID = list(itertools.product(
    (0.05, 0.3, 0.5, 0.7, 0.9, 0.99), (0.5, 1.0, 2.0)))
CONTOUR_VS_DENSITY_LAMS = (1.0, 1e2, 1e4, 1e6)
CONTOUR_VS_DENSITY_TS = np.linspace(0.0, 1.0, 257)[1:]


def test_density_rule_matches_the_engine():
    # the adaptive engine at rel_tol 1e-12 is the rule's independent oracle:
    # contour-vs-density's A and B, and identities' -dA/dt and -dB/dt
    from frstokes.kernel import KernelParams, QuadratureConfig, density_A
    from frstokes.quadrature import exp_weighted_semiinfinite
    from frstokes.verification import _density_rule, _grid

    def engine(rho, gamma, lams, ts, weights, singular_exponent, q):
        def dens(r):
            return np.stack([w(r, lam) * density_A(
                r, KernelParams(rho, gamma, lam)) for lam in lams
                for w in weights], axis=1)
        values, _ = exp_weighted_semiinfinite(
            dens, ts, singular_exponent=singular_exponent, q=q)
        return values.reshape(len(ts), len(lams), len(weights))

    worst = 0.0
    for rho, gamma in CONTOUR_VS_DENSITY_GRID:
        rule = _density_rule(rho, gamma, CONTOUR_VS_DENSITY_LAMS,
                             CONTOUR_VS_DENSITY_TS)
        reference = engine(rho, gamma, CONTOUR_VS_DENSITY_LAMS,
                           CONTOUR_VS_DENSITY_TS,
                           (lambda r, lam: 1.0, lambda r, lam: r / lam),
                           rho - 1.0, QuadratureConfig(rel_tol=1e-12))
        worst = max(worst, float(np.max(np.abs(rule - reference))))
    assert worst <= 1e-13
    # -dA/dt reaches 10 at lam = 10: held relative, against the engine with
    # its absolute floor lowered
    ts, lams = [0.25, 1.0], (1.0, 10.0)
    for rho, gamma in _grid():
        rule = _density_rule(rho, gamma, lams, ts, ("-dA", "-dB"))
        reference = engine(rho, gamma, lams, ts,
                           (lambda r, lam: r, lambda r, lam: r * r / lam), 0.0,
                           QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16))
        np.testing.assert_allclose(rule, reference, rtol=1e-13, atol=0.0)


def test_density_rule_is_stable_under_halving(monkeypatch):
    # every cell split in two moves no value by more than 1e-13: on
    # contour-vs-density's grid, and at t = 0, where A = B = 1 and
    # -dA/dt = lam B = lam
    from frstokes import verification
    from frstokes.verification import LAMBDA_TRIPLE, _density_rule

    def values():
        for rho, gamma in CONTOUR_VS_DENSITY_GRID:
            yield _density_rule(rho, gamma, CONTOUR_VS_DENSITY_LAMS,
                                CONTOUR_VS_DENSITY_TS)
            for lams in (CONTOUR_VS_DENSITY_LAMS, LAMBDA_TRIPLE):
                (initial,) = _density_rule(rho, gamma, lams, [0.0],
                                           ("A", "B", "-dA"))
                initial[:, 2] /= lams
                np.testing.assert_allclose(initial, 1.0, rtol=0.0, atol=1e-13)
                yield initial

    plain = list(values())
    breaks = verification._density_breaks

    def halved(*args):
        cells, top = breaks(*args)
        middles = 0.5 * (cells[1:] + cells[:-1])
        return np.sort(np.concatenate((cells, middles))), top

    monkeypatch.setattr(verification, "_density_breaks", halved)
    for value, split in zip(plain, values(), strict=True):
        assert np.max(np.abs(value - split)) <= 1e-13


KERNEL_SUITES = ("kernel-initial", "a-properties", "identities",
                 "b-properties", "bounds", "laplace", "limit")
# One contour call per suite and set of times serves every (rho, gamma)
# cell: a-properties, b-properties, bounds and laplace's transforms and
# contour-vs-density one each, identities one per rho for int B's nodes
# (they depend on rho) and one each for ts and the FD times, limit one
KERNEL_SUITE_CONTOUR_CALLS = 5 + (len(RHO_GRID) + 2) + 1


def test_kernel_suites_skip_the_contour_error_sum(monkeypatch):
    # the suites read kernel values only: each contour call makes one sum,
    # on the N its rel_tol picks, and never the N - 4 sum of the error
    # estimate
    import inspect

    from frstokes import kernel

    contour, contour_sum = kernel._bromwich, kernel._contour_sum
    signature = inspect.signature(contour)
    calls = []   # per contour call: its N, then the node counts of its sums

    def bromwich(*args, **kwargs):
        q = signature.bind(*args, **kwargs).arguments.get("q")
        calls.append([kernel._contour_size(q)])
        return contour(*args, **kwargs)

    def counted_sum(transform, t, n):
        calls[-1].append(n)
        return contour_sum(transform, t, n)

    monkeypatch.setattr(kernel, "_bromwich", bromwich)
    monkeypatch.setattr(kernel, "_contour_sum", counted_sum)
    report = run_suites(KERNEL_SUITES)
    assert report["passed"]
    assert len(calls) == KERNEL_SUITE_CONTOUR_CALLS
    assert [c for c in calls if c[1:] != c[:1]] == []


def _problem_key(spec):
    """Everything a solve reads from its problem, as comparable bytes."""
    source = (None if spec.source is None
              else np.asarray(spec.source(spec.time_grid)).tobytes())
    return (spec.kind, spec.rho, spec.gamma, spec.horizon,
            spec.operator.eigenvalues.tobytes(),
            spec.data.coefficients.tobytes(), source,
            spec.time_grid.tobytes())


def test_residual_solves_each_reference_problem_once(monkeypatch):
    # every reference problem once, plus forward-smooth recovered backward
    # from its own terminal state: "every reference trace" by construction
    from frstokes import verification

    solved = []   # (spec, trace) per solver call
    for name in ("solve_forward", "solve_nonlocal", "solve_backward"):
        def counted(spec, *args, solver=getattr(verification, name)):
            solved.append((spec, solver(spec, *args)))
            return solved[-1][1]
        monkeypatch.setattr(verification, name, counted)
    (check,) = verification.suite_residual()
    assert check.passed

    problems = verification._reference_problems()
    assert len(solved) == len(problems) + 1
    keys = [_problem_key(spec) for spec, _ in solved]
    for spec in problems.values():
        assert keys.count(_problem_key(spec)) == 1
    smooth = problems["forward-smooth"]
    (smooth_trace,) = [trace for spec, trace in solved
                       if _problem_key(spec) == _problem_key(smooth)]
    (back,) = [spec for spec, _ in solved if spec.kind == "backward"]
    assert _problem_key(back)[1:5] == _problem_key(smooth)[1:5]
    np.testing.assert_array_equal(back.data.coefficients,
                                  smooth_trace.coefficients[-1])


def _record_contour_calls(monkeypatch):
    """Wrap kernel._bromwich; returns the list of its calls' arguments."""
    import inspect

    from frstokes import kernel

    contour = kernel._bromwich
    signature = inspect.signature(contour)
    calls = []

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return contour(*args, **kwargs)

    monkeypatch.setattr(kernel, "_bromwich", recorded)
    return calls


def test_kernel_suites_batch_the_contour_by_cell(monkeypatch):
    # one contour call per set of times serves every (rho, gamma) cell,
    # kind and eigenvalue of a suite, and each column is bit for bit the
    # single-cell, single-kind, single-mode value: a sum does not depend on
    # the others
    from frstokes import kernel

    calls = _record_contour_calls(monkeypatch)
    report = run_suites(KERNEL_SUITES)
    monkeypatch.undo()
    assert report["passed"]
    assert len(calls) == KERNEL_SUITE_CONTOUR_CALLS
    # all but limit's one carry several cells, as per-column arrays
    assert sum(np.size(np.unique(c["gamma"])) > 1 for c in calls) == len(
        calls) - 1
    for c in calls:
        values, _ = kernel._bromwich(**c)
        kinds = (c["kinds"],) if isinstance(c["kinds"], str) else c["kinds"]
        lams = np.atleast_1d(c["lam"])
        rhos, gammas = (np.broadcast_to(c[x], lams.shape)
                        for x in ("rho", "gamma"))
        for k, kind in enumerate(kinds):
            for j, (rho, gamma, lam) in enumerate(zip(rhos, gammas, lams)):
                (single,), _ = kernel._bromwich(
                    kind, float(rho), float(gamma), [lam], c["ts"], c["q"],
                    error_at=slice(0))
                assert np.array_equal(values[k, :, j], single[:, 0]), (
                    kind, rho, gamma, lam)


def test_oracle_suite_takes_one_contour_call(monkeypatch):
    # A(lam, 1) of every (rho, gamma, lam) case from one call; the L1 march,
    # which reads no contour, is stubbed out
    from frstokes import verification

    calls = _record_contour_calls(monkeypatch)
    monkeypatch.setattr(verification, "L1Grid", lambda *args: None)
    monkeypatch.setattr(verification, "solve_scalar",
                        lambda *args: np.zeros(1))
    verification.suite_oracle()
    (call,) = calls
    assert np.size(call["lam"]) == 2 * len(RHO_GRID) * len(GAMMA_GRID)
    assert np.array_equal(call["ts"], [1.0])


def _count_engine_passes(monkeypatch):
    """Count the adaptive engine's refinement passes, whoever starts them.

    ``quadrature._refine`` is the loop behind exp_weighted_semiinfinite and
    adaptive_finite alike; returns each pass's initial breaks.
    """
    from frstokes import quadrature

    passes = []

    def counted(integrand, breaks, *args, refine=quadrature._refine, **kwargs):
        passes.append(breaks)
        return refine(integrand, breaks, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_refine", counted)
    return passes


def test_b_properties_makes_no_engine_pass(monkeypatch):
    # B and dB/dt both come from the contour
    from frstokes import verification

    passes = _count_engine_passes(monkeypatch)
    assert all(c.passed for c in verification.suite_b_properties())
    assert passes == []


def test_contour_vs_density_makes_one_engine_pass_per_cell(monkeypatch):
    # 6 rho x 3 gamma cells, four eigenvalues each: one density-rule pass
    # per cell over all 256 times, and no adaptive-engine pass at all;
    # transform-consistency is a fixed rule too
    from frstokes import verification

    rule_passes = []

    def counted(rho, gamma, lams, ts, *args, rule=verification._density_rule,
                **kwargs):
        rule_passes.append((rho, gamma, tuple(lams), np.size(ts)))
        return rule(rho, gamma, lams, ts, *args, **kwargs)

    monkeypatch.setattr(verification, "_density_rule", counted)
    passes = _count_engine_passes(monkeypatch)
    assert all(c.passed for c in verification.suite_laplace())
    assert passes == []
    assert len(rule_passes) == 18
    assert len({cell[:2] for cell in rule_passes}) == 18
    assert all(cell[2:] == (CONTOUR_VS_DENSITY_LAMS, 256)
               for cell in rule_passes)


def test_non_oracle_suites_make_no_engine_pass(monkeypatch):
    # every density reference is the fixed rule; the engine serves tests
    from frstokes import quadrature

    passes = _count_engine_passes(monkeypatch)
    report = run_suites([name for name in SUITES if name != "oracle"])
    assert report["passed"]
    assert len(report["suites"]) == 12
    assert passes == []
    # the counter sees an engine pass when one runs
    quadrature.exp_weighted_semiinfinite(lambda r: np.exp(-r), [1.0])
    assert len(passes) == 1


def _traced_peak(suite):
    import tracemalloc

    # the first np.unique of a process imports numpy.ma, whose modules
    # would count toward the suite's peak when the test runs alone
    import numpy.ma  # noqa: F401

    tracemalloc.start()
    try:
        suite()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_laplace_reference_memory_stays_small():
    # the rule's e^(-rt) is formed in blocks of kernel.BLOCK_ELEMENTS
    from frstokes import verification

    assert _traced_peak(verification.suite_laplace) < 2.5e6


def test_kernel_initial_memory_stays_small():
    # t = 0's tail cells are the rule's largest node set
    from frstokes import verification

    assert _traced_peak(verification.suite_kernel_initial) < 1e6


def _count_solves(monkeypatch):
    """Count the solver calls the suites make; returns their specs."""
    from frstokes import verification

    solved = []
    for name in ("solve_forward", "solve_nonlocal", "solve_backward"):
        def counted(spec, *args, solver=getattr(verification, name)):
            solved.append(spec)
            return solver(spec, *args)
        monkeypatch.setattr(verification, name, counted)
    return solved


def test_run_suites_solves_each_reference_problem_once(monkeypatch):
    # manufactured, nonlocal and coercivity share their problems with the
    # residual suite: one run solves each of them once
    from frstokes import verification

    solved = _count_solves(monkeypatch)
    report = run_suites(["manufactured", "nonlocal", "coercivity",
                         "residual"])
    assert report["passed"]
    keys = [_problem_key(spec) for spec in solved]
    for spec in verification._reference_problems().values():
        assert keys.count(_problem_key(spec)) == 1


def test_reference_traces_live_for_one_run_suites_call(monkeypatch):
    # a second call solves afresh, and a failing suite still clears them
    from frstokes import verification

    solved = _count_solves(monkeypatch)
    first = run_suites(["residual"])
    per_call = len(solved)
    assert per_call == len(verification._reference_problems()) + 1
    assert run_suites(["residual"]) == first
    assert len(solved) == 2 * per_call
    assert verification._traces is None

    def broken():
        verification._reference_trace("manufactured")
        raise RuntimeError("suite failed")

    monkeypatch.setitem(SUITES, "limit", broken)
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suites(["limit"])
    assert verification._traces is None


def _nan_contour(monkeypatch):
    """Make every contour value at t > 0 NaN, whatever it is asked with."""
    from frstokes import kernel

    contour = kernel._bromwich

    def poisoned(kinds, rho, gamma, lam, ts, *args, **kwargs):
        values, errors = contour(kinds, rho, gamma, lam, ts, *args, **kwargs)
        return np.where(np.asarray(ts)[:, None] > 0.0, np.nan, values), errors

    monkeypatch.setattr(kernel, "_bromwich", poisoned)


def test_a_nan_kernel_value_fails_every_check_that_reads_one(monkeypatch):
    # kernel-initial reads the densities at t = 0 and the Gamma cap reads
    # the lower bounds: every other kernel-suite check reads the contour
    from frstokes import verification

    _nan_contour(monkeypatch)
    report = run_suites(KERNEL_SUITES)
    names = [f"{c['suite']}:{c['name']}" for c in report["checks"]]
    independent = ["kernel-initial:relaxation-at-zero",
                   "kernel-initial:impulse-at-zero",
                   "bounds:gamma-function-cap"]
    assert len(names) == 20
    assert report["failed"] == [n for n in names if n not in independent]
    assert len(report["failed"]) == 17
    for name, check in zip(names, report["checks"]):
        assert math.isnan(check["margin"]) == (name not in independent)
    # a NaN stepped value fails the oracle's comparison and its monotony
    monkeypatch.undo()
    solve = verification.solve_scalar

    def last_nan(*args):
        values = solve(*args).copy()
        values[-1] = np.nan
        return values

    monkeypatch.setattr(verification, "solve_scalar", last_nan)
    checks = {c.name: c for c in SUITES["oracle"]()}
    assert set(checks) == {"kernel-vs-l1", "error-monotone-under-halving"}
    assert not any(c.passed for c in checks.values())
    assert math.isnan(checks["kernel-vs-l1"].margin)


CASES = ["a", "b", "c", "d"]


@pytest.mark.parametrize("dev, kwargs, margin, detail", [
    # a NaN ranks above inf and every other number, the first NaN named
    ([1.0, np.inf, np.nan, np.nan], {"cases": CASES}, math.nan, "c"),
    ([[-np.inf, np.nan], [np.nan, 0.0]], {"cases": CASES[:2],
                                          "signed": True}, math.nan, "a"),
    ([1.0, np.inf, 2.0, 3.0], {"cases": CASES}, -np.inf, "b"),
    # a tie keeps the first case in C order, a case a block of the last axis
    ([[0.5, 2.0], [2.0, 1.0]], {"cases": CASES[:2]}, 1.0, "a"),
    ([0.5, 2.0, 2.0, 1.0], {"cases": CASES}, 1.0, "b"),
    # unsigned deviations <= 0 are no deviation: margin tol, no case named
    ([-1.0, 0.0, -0.0, -np.inf], {"cases": CASES}, 3.0, ""),
    # signed deviations keep their sign
    ([-3.0, -1.0, -2.0, -np.inf], {"cases": CASES, "signed": True}, 4.0,
     "b"),
    # a given detail replaces the case name
    ([1.0, 2.0, 0.0, 0.0], {"cases": CASES, "detail": "given"}, 1.0,
     "given"),
    ([-1.0], {"detail": "given"}, 3.0, "given"),
])
def test_check_reduces_deviations(dev, kwargs, margin, detail):
    from frstokes.verification import _check

    check = _check("suite", "name", 3.0, np.array(dev), **kwargs)
    assert (check.suite, check.name, check.tolerance) == ("suite", "name", 3.0)
    assert check.detail == detail
    if math.isnan(margin):
        assert math.isnan(check.margin)
    else:
        assert check.margin == margin
    assert check.passed == (check.margin >= 0.0)
    assert isinstance(check.margin, float) and isinstance(check.passed, bool)
