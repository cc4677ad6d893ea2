import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frstokes import kernel
from frstokes.kernel import (
    KernelParams,
    QuadratureConfig,
    density_A,
    density_B,
    eval_A,
    eval_A_grid,
    eval_B_grid,
    eval_dB_dt_grid,
    laplace_A_closed_form,
    laplace_B_closed_form,
    laplace_transform_numeric,
    lower_bound_A,
    lower_bound_B,
    _bromwich,
)
from frstokes.quadrature import exp_weighted_semiinfinite

TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)


def density_via_complex_plane(r, p):
    """Independent route: -Im of the transform on the negative real axis."""
    z = r * np.exp(1j * math.pi)
    transform = (1.0 + p.lam * p.gamma * z ** (p.rho - 1.0)) / (
        z + p.lam + p.lam * p.gamma * z ** p.rho
    )
    return -np.imag(transform) / math.pi


params_strategy = st.builds(
    KernelParams,
    rho=st.floats(0.05, 0.95),
    gamma=st.floats(0.1, 5.0),
    lam=st.floats(0.1, 50.0),
)


class TestParams:
    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.3])
    def test_rho_endpoints_rejected(self, rho):
        with pytest.raises(ValueError):
            KernelParams(rho, 1.0, 1.0)

    def test_positive_coefficients_required(self):
        with pytest.raises(ValueError):
            KernelParams(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(0.5, 1.0, -2.0)


class TestDensities:
    def test_hand_value_collapsed_denominator(self):
        # cos(pi/2) = 0 collapses the denominator to 1
        p = KernelParams(0.5, 1.0, 1.0)
        assert density_A(1.0, p) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert density_B(1.0, p) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_extended_precision_value(self):
        # frozen from a 30-digit evaluation of the closed form
        p = KernelParams(0.7, 0.5, 4.0)
        assert density_A(2.0, p) == pytest.approx(0.24191313877199846, rel=1e-13)

    def test_vanishes_as_rho_approaches_one(self):
        # pointwise only away from r = lam/(1 + lam*gamma), where the
        # denominator degenerates too and the density spikes into the
        # Lorentzian that carries the classical limit
        for r in (0.2, 1.0, 7.0):
            assert density_A(r, KernelParams(1.0 - 1e-9, 1.0, 1.0)) < 1e-7

    def test_matches_complex_plane_route(self):
        for p in (KernelParams(0.3, 2.0, 10.0), KernelParams(0.7, 0.5, 4.0),
                  KernelParams(0.9, 1.0, 100.0)):
            rs = np.geomspace(1e-3, 1e3, 25)
            direct = density_A(rs, p)
            via_complex = density_via_complex_plane(rs, p)
            assert direct == pytest.approx(via_complex, rel=1e-10)

    @given(params_strategy, st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_ratio_identity(self, p, r):
        assert density_B(r, p) == pytest.approx(
            (r / p.lam) * density_A(r, p), rel=1e-12
        )

    def test_no_singularity_of_B_density_at_origin(self):
        p = KernelParams(0.3, 1.0, 1.0)
        assert density_B(0.01, p) < density_B(0.5, p)
        assert np.isfinite(density_B(1e-12, p))

    def test_B_density_representable_far_out(self):
        # the density's modulus squared overflows past r ~ 1e154; the
        # density itself, ~r^(rho - 2), must not collapse to 0 there
        p = KernelParams(0.97, 1.0, 1.0)
        rs = np.geomspace(1e160, 1e280, 7)
        z = -rs + 0j                 # exactly on the negative real axis
        via_complex = -np.imag(
            1.0 / (z + p.lam + p.lam * p.gamma * z ** p.rho)) / math.pi
        assert density_B(rs, p) == pytest.approx(via_complex, rel=1e-10, abs=0.0)

    def test_B_at_zero_within_its_error_bound_near_classical_order(self):
        # at rho = 0.97 the B density decays like r^-1.03, so B(0) = 1 takes
        # the tail out to r ~ 1e300
        p = KernelParams(0.97, 1.0, 1.0)
        values, errors = exp_weighted_semiinfinite(
            lambda r: density_B(r, p), [0.0])
        assert abs(values[0] - 1.0) <= errors[0] < 1e-7

    def test_rejects_nonpositive_r(self):
        p = KernelParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            density_A(0.0, p)
        with pytest.raises(ValueError):
            density_B(-1.0, p)


class TestKernelValues:
    def test_initial_values(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert eval_A(p, 0.0) == pytest.approx(1.0, abs=1e-7)
        assert eval_B_grid(p, [0.0])[0][0] == pytest.approx(1.0, abs=1e-7)

    def test_frozen_extended_precision_values(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert eval_A(p, 1.0, TIGHT) == pytest.approx(0.59323879913782398, abs=1e-11)
        assert eval_B_grid(p, [1.0], TIGHT)[0][0] == pytest.approx(0.21624290440113945, abs=1e-11)
        assert eval_A(p, 0.5, TIGHT) == pytest.approx(0.73178647552380408, abs=1e-11)
        p2 = KernelParams(0.7, 2.0, 10.0)
        assert eval_B_grid(p2, [0.3], TIGHT)[0][0] == pytest.approx(0.039966134980055888, abs=1e-11)

    def test_error_estimate_is_honest(self):
        p = KernelParams(0.5, 1.0, 1.0)
        values, errors = eval_A_grid(p, [1.0])
        assert abs(values[0] - 0.59323879913782398) <= max(errors[0], 1e-12)

    def test_error_at_selected_times_matches_whole_grid(self):
        # the solve path estimates A's error at T alone: a value and its
        # estimate do not depend on the other times of the call
        lam = np.array([1.0, 1e2, 1e4])
        ts = np.linspace(0.0, 1.0, 97)
        values, errors = _bromwich("A", 0.5, 1.0, lam, ts)
        at_T, err_T = _bromwich("A", 0.5, 1.0, lam, ts, error_at=slice(-1, None))
        assert np.array_equal(at_T, values)
        assert np.array_equal(err_T, errors[:, -1:])
        assert _bromwich("Phi", 0.5, 1.0, lam, ts, error_at=slice(0))[1].shape == (1, 0, 3)

    @pytest.mark.parametrize("kind", ["A", "B", "Phi", "dB"])
    def test_no_kind_warns_at_huge_times(self, kind):
        # the transform overflows on the far window's contour: it must do so
        # silently, and only the requested kind is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = _bromwich(kind, 0.5, 1.0, [1.0, 4.0],
                                       np.array([1e160, 1e300, 1.7e308]))
        assert values.shape == errors.shape == (1, 3, 2)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
    def test_A_near_the_float_maximum(self, rho):
        # past t = 4^511 the window t_hi = 4^512 lies beyond the float range;
        # kept as its exponent, it leaves A on its large-time asymptote
        # gamma t^(-rho) / Gamma(1 - rho)
        ts = np.array([1e307, 1e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (values,), _ = _bromwich("A", rho, 1.0, [1.0], ts)
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values[:, 0],
                                   ts ** -rho / math.gamma(1.0 - rho),
                                   rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
    def test_Phi_near_the_float_maximum(self, rho):
        # Phi's 1 / z rides in its weights, so Phi is finite wherever its
        # value is: on its asymptote gamma t^(1 - rho) / Gamma(2 - rho)
        ts = np.array([1e206, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (values,), _ = _bromwich("Phi", rho, 1.0, [1.0], ts)
        np.testing.assert_allclose(values[:, 0],
                                   ts ** (1.0 - rho) / math.gamma(2.0 - rho),
                                   rtol=1e-6, atol=0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["A", "B", "Phi", "dB"]),
                          min_size=1, max_size=4, unique=True),
           rho=st.floats(0.01, 0.99), gamma=st.floats(0.1, 10.0),
           n_lam=st.integers(1, 40), n_t=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_value_independent_of_other_times_and_modes(self, kinds, rho,
                                                        gamma, n_lam, n_t,
                                                        seed):
        # lam from 1e-2 to 1e6 and t from 1e-6 to 1e3, about 15 windows:
        # every kind is its single-kind call, every column its single-mode
        # call and every row its single-time call, bit for bit, errors
        # included
        rng = np.random.default_rng(seed)
        lam = 10.0 ** rng.uniform(-2.0, 6.0, n_lam)
        ts = 10.0 ** rng.uniform(-6.0, 3.0, n_t)
        values, errors = _bromwich(kinds, rho, gamma, lam, ts)
        assert values.shape == errors.shape == (len(kinds), n_t, n_lam)
        for k, kind in enumerate(kinds):
            alone = _bromwich(kind, rho, gamma, lam, ts)
            assert np.array_equal(alone[0][0], values[k])
            assert np.array_equal(alone[1][0], errors[k])
        for j in range(lam.size):
            column = _bromwich(kinds, rho, gamma, lam[j:j + 1], ts)
            assert np.array_equal(column[0][..., 0], values[..., j])
            assert np.array_equal(column[1][..., 0], errors[..., j])
        for i in range(ts.size):
            row = _bromwich(kinds, rho, gamma, lam, ts[i:i + 1])
            assert np.array_equal(row[0][:, 0], values[:, i])
            assert np.array_equal(row[1][:, 0], errors[:, i])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["A", "B", "Phi", "dB"]),
                          min_size=1, max_size=4, unique=True),
           columns=st.lists(st.tuples(
               st.one_of(st.sampled_from([0.3, 0.5, 0.7, 0.9]),
                         st.floats(0.01, 0.99)),
               st.floats(0.1, 10.0), st.floats(1e-2, 1e6)),
               min_size=1, max_size=24),
           n_t=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
           error_at=st.sampled_from([slice(None), slice(0),
                                     slice(-1, None)]))
    def test_per_column_parameters_match_single_cell_calls(
            self, kinds, columns, n_t, seed, error_at):
        # each column carries its own (rho, gamma, lam), rho partly from
        # the suites' grid, whose 0.5 numpy raises by its square-root fast
        # path: every column is its single-cell, single-kind, single-mode
        # call bit for bit, errors included
        rho, gamma, lam = (np.array(x) for x in zip(*columns))
        ts = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 3.0, n_t)
        ts[0] = 0.0
        values, errors = _bromwich(kinds, rho, gamma, lam, ts,
                                   error_at=error_at)
        assert values.shape == (len(kinds), n_t, lam.size)
        for (k, kind), (j, (r, g, m)) in itertools.product(
                enumerate(kinds), enumerate(columns)):
            (alone,), (alone_err,) = _bromwich(kind, r, g, [m], ts,
                                               error_at=error_at)
            assert np.array_equal(alone[:, 0], values[k, :, j],
                                  equal_nan=True)
            assert np.array_equal(alone_err[:, 0], errors[k, :, j],
                                  equal_nan=True)

    @pytest.mark.parametrize("rho", [0.5, [0.3, 0.5, 0.3]],
                             ids=["shared", "per-column"])
    def test_kinds_share_one_power_per_contour_sum(self, monkeypatch, rho):
        # z ** rho is raised once per sum for all four kinds: the values-only
        # call sums once, and the error estimate sums once more on N - 4
        powers = []
        power = kernel._power

        def counted(z, r):
            powers.append(1)
            return power(z, r)

        monkeypatch.setattr(kernel, "_power", counted)
        ts = np.array([0.0, 1e-3, 0.5, 2.0])
        kinds = ("A", "B", "dB", "Phi")
        _bromwich(kinds, rho, 1.0, [1.0, 10.0, 100.0], ts, error_at=slice(0))
        assert len(powers) == 1
        _bromwich(kinds, rho, 1.0, [1.0, 10.0, 100.0], ts)
        assert len(powers) == 3

    @pytest.mark.parametrize("rho, gamma", [
        ([0.3, 0.5], 1.0), (0.5, [1.0, 2.0, 0.5, 1.0]),
        ([[0.3], [0.5], [0.7]], 1.0), (0.5, np.ones((1, 3)))])
    def test_per_column_parameters_must_match_lam(self, rho, gamma):
        with pytest.raises(ValueError, match="shape"):
            _bromwich("A", rho, gamma, [1.0, 10.0, 100.0], np.array([0.5]))

    def test_classical_limit(self):
        p = KernelParams(0.999, 1.0, 2.0)
        assert eval_A(p, 1.0) == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-2)
        assert eval_B_grid(p, [1.0])[0][0] == pytest.approx(math.exp(-2.0 / 3.0) / 3.0, abs=1e-2)

    def test_monotone_decreasing_grid(self):
        p = KernelParams(0.7, 2.0, 10.0)
        ts = np.geomspace(1e-4, 3.0, 60)
        values, _ = eval_A_grid(p, ts)
        assert np.all(np.diff(values) < 0.0)
        assert np.all((values > 0.0) & (values < 1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_A(KernelParams(0.5, 1.0, 1.0), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("evaluate", [
        lambda p, t: eval_A(p, t),
        lambda p, t: eval_B_grid(p, [t]),
        lambda p, t: eval_A_grid(p, [0.5, t]),
        lambda p, t: eval_B_grid(p, [0.5, t]),
        lambda p, t: eval_dB_dt_grid(p, [0.5, t]),
    ], ids=["eval_A", "eval_B", "eval_A_grid", "eval_B_grid",
            "eval_dB_dt_grid"])
    def test_non_finite_time_rejected(self, evaluate, t):
        # the contour pins every time that is not > 0, so a NaN would read
        # as A(0) = 1 and an infinite time as NaN with no error
        with pytest.raises(ValueError, match="finite"):
            evaluate(KernelParams(0.5, 1.0, 1.0), t)


class TestDerivatives:
    def test_finite_difference_cross_checks(self):
        p = KernelParams(0.5, 1.0, 1.0)
        h = 1e-4
        fd_a = (eval_A(p, 1 + h, TIGHT) - eval_A(p, 1 - h, TIGHT)) / (2 * h)
        assert fd_a == pytest.approx(
            -p.lam * eval_B_grid(p, [1.0], TIGHT)[0][0], abs=1e-5)
        fd_b = (eval_B_grid(p, [1 + h], TIGHT)[0][0]
                - eval_B_grid(p, [1 - h], TIGHT)[0][0]) / (2 * h)
        assert fd_b == pytest.approx(eval_dB_dt_grid(p, [1.0], TIGHT)[0][0],
                                     abs=1e-5)

    def test_classical_limit_of_derivative(self):
        p = KernelParams(0.999, 1.0, 2.0)
        assert -p.lam * eval_B_grid(p, [1.0])[0][0] == pytest.approx(
            -2.0 * math.exp(-2 / 3) / 3, abs=2e-2)

    def test_db_dt_strictly_negative(self):
        for p in (KernelParams(0.3, 0.5, 1.0), KernelParams(0.9, 2.0, 100.0)):
            values, _ = eval_dB_dt_grid(p, [0.01, 1.0])
            assert np.all(values < 0.0)

    def test_small_time_refused(self):
        # dB/dt is singular at t = 0 alone: the contour serves every t > 0
        p = KernelParams(0.5, 1.0, 1.0)
        for t in (0.0, -1e-9):
            with pytest.raises(ValueError):
                eval_dB_dt_grid(p, [t, 1.0])
        values, errors = eval_dB_dt_grid(p, [1e-9])
        assert values[0] < 0.0 and np.isfinite(errors[0])

    def test_grouped_columns_match_single_mode_calls(self):
        # one contour call for several eigenvalues sums each column on its
        # own: every column is its single-mode value, bit for bit
        lams = (1.0, 10.0, 100.0)
        ts = np.geomspace(1e-4, 1.0, 31)
        for rho, gamma in ((0.3, 0.5), (0.9, 2.0)):
            (grouped,), (errors,) = _bromwich("dB", rho, gamma, lams, ts)
            assert grouped.shape == errors.shape == (ts.size, len(lams))
            for j, lam in enumerate(lams):
                single, single_errors = eval_dB_dt_grid(
                    KernelParams(rho, gamma, lam), ts)
                assert np.array_equal(grouped[:, j], single)
                assert np.array_equal(errors[:, j], single_errors)


class TestLowerBounds:
    def test_frozen_values(self):
        assert lower_bound_A(0.5, 1.0, 1.0, 1.0) == pytest.approx(
            0.13047190964693343, rel=1e-9
        )
        assert lower_bound_B(0.5, 1.0, 1.0, 1.0) == pytest.approx(
            0.032153482321003934, rel=1e-9
        )

    def test_bounds_kernels_from_below(self):
        c_a = lower_bound_A(0.5, 1.0, 1.0, 1.0)
        c_b = lower_bound_B(0.5, 1.0, 1.0, 1.0)
        for lam in (1.0, 100.0):
            p = KernelParams(0.5, 1.0, lam)
            for t in (0.2, 1.0):
                assert eval_A(p, t) >= c_a
                assert lam * eval_B_grid(p, [t])[0][0] >= c_b
                assert abs(eval_A(p, t) - 1.0) >= c_b * t

    def test_gamma_function_cap(self):
        for rho in (0.3, 0.7):
            cap = (math.gamma(rho) * math.sin(math.pi * rho) / (3 * math.pi))
            assert lower_bound_A(rho, 1.0, 1.0, 1.0) <= cap

    def test_decreasing_in_horizon(self):
        # decay in T is algebraic (~T^(-rho)), so only expect ~1/8 at T=64
        values = [lower_bound_A(0.5, 1.0, 1.0, T) for T in (1.0, 4.0, 16.0, 64.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.25 * values[0]

    def test_bounds_are_positive(self):
        assert lower_bound_A(0.5, 1.0, 1.0, 1.0) > 0.0
        assert lower_bound_B(0.5, 1.0, 1.0, 1.0) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lower_bound_A(0.5, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lower_bound_B(1.0, 1.0, 1.0, 1.0)
        # gamma = inf overflowed, T = inf failed converting NaN to an
        # integer and lambda_1 = inf returned a number
        for bound in (lower_bound_A, lower_bound_B):
            for bad in (math.inf, math.nan):
                for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
                    with pytest.raises(ValueError, match="finite"):
                        bound(0.5, *args)

    @pytest.mark.parametrize("rho", [1e-6, 1e-4, 1e-3, 3e-3, 0.01, 0.05, 0.3,
                                     0.5, 0.9, 0.999])
    def test_matches_gauss_legendre_reference(self, rho):
        for gamma in (0.5, 2.0):
            for lambda_1, T in ((1.0, 1.0), (1e4, 0.01), (1.0, 64.0),
                                (100.0, 1e-3)):
                for bound, power in ((lower_bound_A, rho - 1.0),
                                     (lower_bound_B, rho)):
                    ref = reference_bound(rho, gamma, lambda_1, T, power)
                    assert bound(rho, gamma, lambda_1, T) == pytest.approx(
                        ref, rel=1e-8), (bound.__name__, gamma, lambda_1, T)


def reference_bound(rho, gamma, lambda_1, T, power):
    """The bound by composite 20-point Gauss-Legendre in x = r^rho.

    Another variable, rule and partition than the kernel's: cells halving
    toward x = 0, and cells of rho / 4 in log x clustered at both features,
    x = T^(-rho) (the e^(-rT) cliff) and x = lambda_1^rho, up to r = 60 / T.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    offsets = np.concatenate((-2.0 ** np.arange(7, 2, -1),
                              np.arange(-6.0, 6.01, 0.25)))
    top = math.exp(rho * (math.log(60.0) - math.log(T)))
    features = np.exp(rho * np.add.outer(
        [-math.log(T), math.log(lambda_1)], offsets)).ravel()
    breaks = np.unique(np.concatenate((
        [0.0, top], top * 2.0 ** -np.arange(1, 200), features[features < top])))
    half = 0.5 * np.diff(breaks)
    x = (breaks[:-1] + half)[:, None] + half[:, None] * nodes
    log_r = np.log(x) / rho
    log_denom = np.logaddexp(np.logaddexp(2.0 * (log_r - math.log(lambda_1)),
                                          2.0 * (math.log(gamma) + np.log(x))),
                             0.0)
    f = np.exp((power + 1.0 - rho) * log_r - np.exp(log_r + math.log(T))
               - log_denom)
    return (gamma * math.sin(math.pi * rho) / (3.0 * math.pi)
            * float(half @ (f @ weights)) / rho)


class TestLaplace:
    def test_hand_values(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert laplace_A_closed_form(p, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert laplace_B_closed_form(p, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_initial_value_limit(self):
        # z * transform -> value at zero for both kernels
        p = KernelParams(0.3, 2.0, 5.0)
        z = 1e9
        assert z * laplace_A_closed_form(p, z) == pytest.approx(1.0, rel=1e-4)
        assert z * laplace_B_closed_form(p, z) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_numeric_transform_matches_closed_form(self, z):
        p = KernelParams(0.5, 1.0, 1.0)
        num_a, _ = laplace_transform_numeric(p, z, kernel="A")
        assert num_a == pytest.approx(laplace_A_closed_form(p, z), abs=1e-4)
        num_b, _ = laplace_transform_numeric(p, z, kernel="B")
        assert num_b == pytest.approx(laplace_B_closed_form(p, z), abs=1e-4)

    def test_rejects_bad_arguments(self):
        p = KernelParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            laplace_A_closed_form(p, 0.0)
        with pytest.raises(ValueError):
            laplace_transform_numeric(p, 1.0, kernel="C")


class TestIntegralIdentity:
    def test_kernel_mass_identity_via_time_quadrature(self):
        # 1 - lam * int_0^t B equals A(t); the time integral is independent
        # graded-mesh quadrature of kernel values
        from frstokes.verification import _integral_B_time

        p = KernelParams(0.5, 1.0, 1.0)
        for t in (0.5, 1.0):
            (mass,) = _integral_B_time(p.rho, [p.gamma], [p.lam], [t])
            assert eval_A(p, t) == pytest.approx(1.0 - p.lam * mass[0, 0],
                                                 abs=1e-7)

    def test_b_mass_below_reciprocal_eigenvalue(self):
        from frstokes.verification import _integral_B_time

        for lam in (1.0, 10.0):
            (mass,) = _integral_B_time(0.7, [0.5], [lam], [1.0])
            assert mass[0, 0] < 1.0 / lam
