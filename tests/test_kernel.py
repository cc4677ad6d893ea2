import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frstokes.kernel import (
    KernelParams,
    QuadratureConfig,
    density_A,
    density_B,
    eval_A,
    eval_A_grid,
    eval_B,
    eval_dA_dt,
    eval_dB_dt,
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
        assert eval_B(p, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_frozen_extended_precision_values(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert eval_A(p, 1.0, TIGHT) == pytest.approx(0.59323879913782398, abs=1e-11)
        assert eval_B(p, 1.0, TIGHT) == pytest.approx(0.21624290440113945, abs=1e-11)
        assert eval_A(p, 0.5, TIGHT) == pytest.approx(0.73178647552380408, abs=1e-11)
        p2 = KernelParams(0.7, 2.0, 10.0)
        assert eval_B(p2, 0.3, TIGHT) == pytest.approx(0.039966134980055888, abs=1e-11)

    def test_error_estimate_is_honest(self):
        p = KernelParams(0.5, 1.0, 1.0)
        value, err = eval_A(p, 1.0, with_error=True)
        assert abs(value - 0.59323879913782398) <= max(err, 1e-12)

    def test_error_at_selected_times_matches_whole_grid(self):
        # the solve path estimates A's error at T alone: a value and its
        # estimate do not depend on the other times of the call
        lam = np.array([1.0, 1e2, 1e4])
        ts = np.linspace(0.0, 1.0, 97)
        values, errors = _bromwich("A", 0.5, 1.0, lam, ts)
        at_T, err_T = _bromwich("A", 0.5, 1.0, lam, ts, error_at=slice(-1, None))
        assert np.array_equal(at_T, values)
        assert np.array_equal(err_T, errors[-1:])
        assert _bromwich("Phi", 0.5, 1.0, lam, ts, error_at=slice(0))[1].shape == (0, 3)

    def test_classical_limit(self):
        p = KernelParams(0.999, 1.0, 2.0)
        assert eval_A(p, 1.0) == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-2)
        assert eval_B(p, 1.0) == pytest.approx(math.exp(-2.0 / 3.0) / 3.0, abs=1e-2)

    def test_monotone_decreasing_grid(self):
        p = KernelParams(0.7, 2.0, 10.0)
        ts = np.geomspace(1e-4, 3.0, 60)
        values, _ = eval_A_grid(p, ts)
        assert np.all(np.diff(values) < 0.0)
        assert np.all((values > 0.0) & (values < 1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_A(KernelParams(0.5, 1.0, 1.0), -0.1)


class TestDerivatives:
    def test_delegation_identity(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert eval_dA_dt(p, 1.0) == -p.lam * eval_B(p, 1.0)

    def test_finite_difference_cross_checks(self):
        p = KernelParams(0.5, 1.0, 1.0)
        h = 1e-4
        fd_a = (eval_A(p, 1 + h, TIGHT) - eval_A(p, 1 - h, TIGHT)) / (2 * h)
        assert fd_a == pytest.approx(eval_dA_dt(p, 1.0, TIGHT), abs=1e-5)
        fd_b = (eval_B(p, 1 + h, TIGHT) - eval_B(p, 1 - h, TIGHT)) / (2 * h)
        assert fd_b == pytest.approx(eval_dB_dt(p, 1.0, TIGHT), abs=1e-5)

    def test_classical_limit_of_derivative(self):
        p = KernelParams(0.999, 1.0, 2.0)
        assert eval_dA_dt(p, 1.0) == pytest.approx(-2.0 * math.exp(-2 / 3) / 3,
                                                   abs=2e-2)

    def test_db_dt_strictly_negative(self):
        for p in (KernelParams(0.3, 0.5, 1.0), KernelParams(0.9, 2.0, 100.0)):
            assert eval_dB_dt(p, 0.01) < 0.0
            assert eval_dB_dt(p, 1.0) < 0.0

    def test_small_time_refused(self):
        p = KernelParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            eval_dB_dt(p, 1e-9)
        with pytest.raises(ValueError):
            eval_dA_dt(p, 0.0)


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
                assert lam * eval_B(p, t) >= c_b
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
        from frstokes.verification import integral_B_time

        p = KernelParams(0.5, 1.0, 1.0)
        for t in (0.5, 1.0):
            mass = integral_B_time(p, t)
            assert eval_A(p, t) == pytest.approx(1.0 - p.lam * mass, abs=1e-7)

    def test_b_mass_below_reciprocal_eigenvalue(self):
        from frstokes.verification import integral_B_time

        for lam in (1.0, 10.0):
            p = KernelParams(0.7, 0.5, lam)
            assert integral_B_time(p, 1.0) < 1.0 / lam
