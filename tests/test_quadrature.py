import math
import warnings

import numpy as np
import pytest

from frstokes import quadrature
from frstokes.quadrature import (
    QuadratureConfig,
    QuadratureNonconvergence,
    adaptive_finite,
    exp_weighted_semiinfinite,
)


def test_gamma_half_oracle():
    # int_0^inf r^(-1/2) e^(-r) dr = Gamma(1/2) = sqrt(pi)
    (value,), (err,) = exp_weighted_semiinfinite(
        lambda r: r ** -0.5 * np.exp(-r), [0.0], singular_exponent=-0.5
    )
    assert value == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert err < 1e-7


def test_plain_exponential():
    (value,), _ = exp_weighted_semiinfinite(lambda r: np.exp(-r), [0.0],
                                           singular_exponent=0.0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_gamma_scaling_identity():
    # int_0^inf r^(rho-1) e^(-r T) dr = Gamma(rho) / T^rho at rho=1/2, T=2
    (value,), _ = exp_weighted_semiinfinite(
        lambda r: r ** -0.5 * np.exp(-2.0 * r), [0.0], singular_exponent=-0.5
    )
    assert value == pytest.approx(1.2533141373155003, abs=1e-10)


def test_slow_algebraic_tail():
    # int_0^inf dr/(1+r)^1.05 = 20: the mapped tail is y**-0.2 near y = 0
    (value,), _ = exp_weighted_semiinfinite(lambda r: (1.0 + r) ** -1.05,
                                           [0.0])
    assert value == pytest.approx(20.0, rel=1e-8)


def test_algebraic_tail_without_decay():
    # int_0^inf dr/(1+r)^3 = 1/2: algebraic order -3, no exponential factor
    (value,), _ = exp_weighted_semiinfinite(lambda r: (1.0 + r) ** -3.0,
                                           [0.0], singular_exponent=0.0)
    assert value == pytest.approx(0.5, abs=1e-9)


def test_batch_matches_scalar_calls():
    def dens(r):
        return r ** -0.25 * np.exp(-0.5 * r)

    ts = np.array([0.0, 0.3, 1.7])
    values, errors = exp_weighted_semiinfinite(dens, ts, singular_exponent=-0.25)
    for t, batch_value in zip(ts, values):
        (single,), _ = exp_weighted_semiinfinite(
            lambda r: dens(r) * np.exp(-t * r), [0.0], singular_exponent=-0.25
        )
        assert batch_value == pytest.approx(single, rel=1e-8, abs=1e-10)
    assert np.all(errors < 1e-7)


def test_density_columns_match_separate_calls():
    # k densities on one adapted panel set: each column holds the tolerance
    # on its own, so it agrees with its own call within rel_tol
    from frstokes.kernel import KernelParams, density_A, density_B

    q = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-20)
    p = KernelParams(0.7, 2.0, 1e4)
    ts = np.array([0.0, 1e-3, 0.25, 1.0])
    singles = [lambda r: r ** -0.3 * np.exp(-r),
               lambda r: density_A(r, p), lambda r: density_B(r, p)]
    values, errors = exp_weighted_semiinfinite(
        lambda r: np.stack([f(r) for f in singles], axis=1), ts,
        singular_exponent=-0.3, q=q)
    assert values.shape == errors.shape == (ts.size, len(singles))
    for j, f in enumerate(singles):
        single, _ = exp_weighted_semiinfinite(f, ts, singular_exponent=-0.3, q=q)
        np.testing.assert_allclose(values[:, j], single, rtol=q.rel_tol, atol=0.0)
        # one column takes the single density's route, bit for bit
        column, _ = exp_weighted_semiinfinite(
            lambda r: f(r)[:, None], ts, singular_exponent=-0.3, q=q)
        assert column.shape == (ts.size, 1)
        assert np.array_equal(column[:, 0], single)


def test_density_major_columns_land_in_place():
    # three densities r^-0.3 e^(-c r), each with its own closed form
    # Gamma(0.7) / (t + c)^0.7, over 64 times: a value put in the wrong
    # column or row of the density-major layout misses its closed form
    q = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-20)
    cs = np.array([0.5, 1.0, 2.0])
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 10.0, 63)))
    values, errors = exp_weighted_semiinfinite(
        lambda r: r[:, None] ** -0.3 * np.exp(-np.outer(r, cs)), ts,
        singular_exponent=-0.3, q=q)
    assert values.shape == errors.shape == (ts.size, cs.size)
    exact = math.gamma(0.7) / (ts[:, None] + cs) ** 0.7
    np.testing.assert_allclose(values, exact, rtol=1e-10, atol=0.0)


def test_tolerances_are_honored():
    q = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14)
    (value,), (err,) = exp_weighted_semiinfinite(
        lambda r: r ** -0.5 * np.exp(-r), [0.0], singular_exponent=-0.5, q=q
    )
    assert abs(value - math.sqrt(math.pi)) < 1e-11
    assert err < 1e-10


def test_nonconvergence_reports_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SPLITS", 64)
    q = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-16)
    with pytest.raises(QuadratureNonconvergence) as excinfo:
        # interior cusp: bisection gains < one digit per split, so the
        # 64-split budget cannot reach thirteen digits
        exp_weighted_semiinfinite(
            lambda r: np.abs(r - 1.0 / math.pi) ** -0.4 * np.exp(-r), [0.0],
            singular_exponent=0.0, q=q
        )
    assert excinfo.value.value is not None
    assert excinfo.value.error_bound > 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"abs_tol": -1.0},
        {"rel_tol": math.nan},
        {"split_point": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureConfig(**kwargs)


def test_invalid_singular_exponent():
    with pytest.raises(ValueError):
        exp_weighted_semiinfinite(lambda r: np.exp(-r), [0.0],
                                  singular_exponent=-1.0)
    with pytest.raises(ValueError):
        exp_weighted_semiinfinite(lambda r: np.exp(-r), [0.0],
                                  singular_exponent=0.5)


def test_adaptive_finite_polynomial():
    value, err = adaptive_finite(
        lambda x: x ** 3, [0.0, 0.5, 1.0], tol_abs=1e-13, tol_rel=1e-12
    )
    assert value == pytest.approx(0.25, abs=1e-12)


def test_adaptive_finite_refines_kink(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SPLITS", 60)
    value, _ = adaptive_finite(
        lambda x: np.abs(x - 0.3137) ** 0.5, [0.0, 1.0],
        tol_abs=1e-10, tol_rel=1e-9,
    )
    a = 0.3137
    exact = (a ** 1.5 + (1 - a) ** 1.5) / 1.5
    assert value == pytest.approx(exact, abs=1e-8)


def test_adaptive_finite_reports_best_estimate(monkeypatch):
    # an inverse square-root singularity at an interior point: three
    # bisections cannot reach 1e-14, and the best estimate comes back with
    # its bound
    monkeypatch.setattr(quadrature, "MAX_SPLITS", 3)
    a = 0.3137
    exact = 2.0 * (math.sqrt(a) + math.sqrt(1.0 - a))
    with pytest.raises(QuadratureNonconvergence) as excinfo:
        adaptive_finite(lambda x: np.abs(x - a) ** -0.5, [0.0, 1.0],
                        tol_abs=1e-14, tol_rel=1e-14)
    value, bound = excinfo.value.value, excinfo.value.error_bound
    assert isinstance(value, float) and isinstance(bound, float)
    assert 1e-14 < abs(value - exact) <= bound


def test_non_finite_integrand_raises_without_numpy_warnings():
    # at singular exponent 1e-6 - 1 the substitution r = x**1e6 underflows
    # to r = 0, where the density is infinite: a ValueError, and no numpy
    # warning on the way
    sigma = 1e-6 - 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            exp_weighted_semiinfinite(lambda r: r ** sigma * np.exp(-r),
                                      [0.0], singular_exponent=sigma)


def test_slow_tail_at_zero_decay_reports_best_estimate():
    # int_0^inf dr/(1+r)^1.01 = 100: bisecting the tail's end panel reaches
    # y where r = y**-16 overflows; refinement stops there, and the engine
    # reports its best estimate instead of a non-finite integrand, with a
    # bound that covers the part of the tail no panel reaches
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNonconvergence) as excinfo:
            exp_weighted_semiinfinite(lambda r: (1.0 + r) ** -1.01, [0.0])
    value, bound = excinfo.value.value, excinfo.value.error_bound
    assert math.isfinite(value) and bound >= abs(value - 100.0)
    assert value == pytest.approx(100.0, rel=1e-2)
