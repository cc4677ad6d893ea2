import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frstokes.kernel import KernelParams, eval_A
from frstokes.oracle import (
    L1Grid,
    _is_uniform,
    caputo_l1,
    caputo_l1_trace,
    l1_weights,
    richardson_extrapolate,
    solve_scalar,
)
from frstokes.verification import GAMMA_GRID, RHO_GRID


def dense_l1_trace(times, values, rho, block=256):
    """Reference: the nonuniform L1 trace as a blocked dense weight sum.

    w[i, j] = (t_i - t_j)^(1-rho) - (t_i - t_{j+1})^(1-rho) for j < i, built
    ``block`` rows at a time, O(n^2).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    h = np.diff(t)
    slopes = (v[1:] - v[:-1]) / (h[:, None] if v.ndim == 2 else h)
    out = np.empty(v.shape)
    for i0 in range(0, t.size, block):
        ti = t[i0:i0 + block, None]
        dt_lo = ti - t[None, :-1]
        dt_hi = ti - t[None, 1:]
        w = np.where(dt_hi >= 0.0, np.abs(dt_lo) ** (1.0 - rho)
                     - np.abs(dt_hi) ** (1.0 - rho), 0.0)
        out[i0:i0 + block] = w @ slopes
    return out / math.gamma(2.0 - rho)


def dense_l1_march(lam, gamma, rho, y0, fvals, grid):
    """Reference: the implicit Euler + L1 march by forward substitution.

    Step i solves for y_i with the history sum_{k<i} b_{i-k} (y_k - y_{k-1})
    taken as a dense dot product, O(n^2) in total.
    """
    n = grid.count
    b = grid.weights
    lgc = lam * gamma * grid.step ** (-rho) / math.gamma(2.0 - rho)
    denom = 1.0 / grid.step + lam + lgc
    y = np.empty(n + 1)
    y[0] = y0
    d = np.zeros(n + 1)
    for i in range(1, n + 1):
        hist = np.dot(b[i - 1:0:-1], d[1:i])
        y[i] = (fvals[i] + y[i - 1] / grid.step + lgc * (y[i - 1] - hist)) / denom
        d[i] = y[i] - y[i - 1]
    return y


class TestWeights:
    @given(st.floats(0.05, 0.95), st.integers(1, 400))
    @settings(max_examples=50, deadline=None)
    def test_positive_decreasing_telescoping(self, rho, n):
        b = l1_weights(rho, n)
        assert b[0] == 1.0
        assert np.all(b > 0.0)
        assert np.all(np.diff(b) < 0.0)
        # telescoping sum collapses exactly
        assert np.sum(b) == pytest.approx(n ** (1.0 - rho), rel=1e-12)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.99])
    def test_full_precision_against_decimal(self, rho):
        # (j+1)^a - j^a in 40 digits, with a the same double 1 - rho
        a = decimal.Decimal(1.0 - rho)
        b = l1_weights(rho, 100_000)
        assert b[0] == 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            for j in (1, 2, 3, 10, 99, 1000, 31623, 65536, 99999):
                exact = float(decimal.Decimal(j + 1) ** a
                              - decimal.Decimal(j) ** a)
                assert abs(b[j] - exact) <= 2e-15 * exact

    def test_grid_carries_weights(self):
        grid = L1Grid(0.1, 10, 0.5)
        assert grid.weights.shape == (10,)
        assert grid.times[-1] == pytest.approx(1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            L1Grid(0.0, 10, 0.5)
        with pytest.raises(ValueError):
            L1Grid(0.1, 0, 0.5)
        with pytest.raises(ValueError):
            l1_weights(1.0, 5)


class TestCaputo:
    def test_constant_history_gives_zero(self):
        grid = L1Grid(0.01, 100, 0.5)
        assert caputo_l1(np.ones(101), 0.5, grid) == 0.0

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_exact_on_affine(self, rho):
        # the rule integrates piecewise-linear histories exactly:
        # for y = t the value is t^(1-rho)/Gamma(2-rho) at any step
        for n in (4, 57):
            grid = L1Grid(1.0 / n, n, rho)
            t = grid.times
            approx = caputo_l1(t, rho, grid)
            exact = t[-1] ** (1.0 - rho) / math.gamma(2.0 - rho)
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_quadratic_value(self):
        # Caputo derivative of t^2 at t=1, rho=1/2: 2 / Gamma(2.5)
        rho, n = 0.5, 4000
        grid = L1Grid(1.0 / n, n, rho)
        approx = caputo_l1(grid.times ** 2, rho, grid)
        assert approx == pytest.approx(1.5045055561273501, abs=5e-6)

    def test_empty_history_rejected(self):
        grid = L1Grid(0.1, 10, 0.5)
        with pytest.raises(ValueError):
            caputo_l1([1.0], 0.5, grid)

    def test_trace_variant_matches_uniform_rule(self):
        rho = 0.7
        for n in (50, 600):  # 600 nodes span several row blocks
            grid = L1Grid(1.0 / n, n, rho)
            y = np.sin(grid.times)
            from_trace = caputo_l1_trace(grid.times, y, rho)
            for k in (1, n // 2, n):
                assert from_trace[k] == pytest.approx(
                    caputo_l1(y[:k + 1], rho, grid), rel=1e-12)
            assert from_trace[0] == 0.0

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("n", [50, 600, 4096])
    def test_trace_fft_matches_dense_sum(self, rho, n):
        t = np.linspace(0.0, 2.0, n)
        cols = np.column_stack([
            np.sin(3.0 * t),
            1.0 + t ** 2,
            np.exp(-1e4 * t),  # stiff: decays within the first cell
            np.exp(-t) * np.cos(40.0 * t),
        ])
        assert _is_uniform(t)  # the FFT path
        ref = dense_l1_trace(t, cols, rho)
        scale = np.max(np.abs(ref), axis=0)
        out = caputo_l1_trace(t, cols, rho)
        assert np.all(out[0] == 0.0)
        assert np.all(np.max(np.abs(out - ref), axis=0) <= 1e-12 * scale)
        single = caputo_l1_trace(t, cols[:, 2], rho)
        assert single.shape == (n,) and single[0] == 0.0
        assert np.max(np.abs(single - ref[:, 2])) <= 1e-12 * scale[2]

    def test_uniformity_tolerance(self):
        t = np.linspace(1.0, 3.0, 101)
        assert _is_uniform(t)
        nudged = t.copy()
        nudged[40] += 1e-13
        assert _is_uniform(nudged)
        nudged[40] += 1e-10
        assert not _is_uniform(nudged)
        assert not _is_uniform(np.linspace(0.0, 1.0, 101) ** 1.5)

    def test_trace_variant_multicolumn(self):
        t = np.array([0.0, 0.1, 0.35, 0.6, 1.0])  # nonuniform
        cols = np.column_stack([t, t ** 2])
        out = caputo_l1_trace(t, cols, 0.5)
        single0 = caputo_l1_trace(t, t, 0.5)
        assert out[:, 0] == pytest.approx(single0, rel=1e-13)
        # exact for the affine column even on a nonuniform grid
        exact = t ** 0.5 / math.gamma(1.5)
        assert out[:, 0] == pytest.approx(exact, rel=1e-12)


class TestSolveScalar:
    def test_zero_data_zero_source(self):
        grid = L1Grid(1e-2, 100, 0.5)
        y = solve_scalar(1.0, 1.0, 0.5, 0.0, None, grid)
        assert np.all(y == 0.0)

    def test_positive_nonincreasing_relaxation(self):
        for rho, gamma, lam in ((0.3, 0.5, 1.0), (0.9, 2.0, 10.0)):
            grid = L1Grid(1e-3, 1000, rho)
            y = solve_scalar(lam, gamma, rho, 1.0, None, grid)
            assert np.all(y > 0.0)
            assert np.all(np.diff(y) <= 0.0)

    def test_manufactured_quadratic_source(self):
        # f chosen so that y(t) = t^2 solves the mode problem with y(0) = 0
        rho, gamma, lam = 0.5, 1.0, 2.0
        coef = 2.0 * gamma / math.gamma(3.0 - rho)

        def forcing(t):
            return 2.0 * t + lam * t ** 2 + lam * coef * t ** (2.0 - rho)

        grid = L1Grid(1e-3, 1000, rho)
        y = solve_scalar(lam, gamma, rho, 0.0, forcing, grid)
        assert y[-1] == pytest.approx(1.0, abs=2e-3)
        finer = L1Grid(1e-4, 10000, rho)
        y2 = solve_scalar(lam, gamma, rho, 0.0, forcing, finer)
        assert abs(y2[-1] - 1.0) < 0.3 * abs(y[-1] - 1.0)

    def test_cross_validates_quadrature_kernel(self):
        p = KernelParams(0.5, 1.0, 1.0)
        grid = L1Grid(1e-4, 10000, p.rho)
        y = solve_scalar(p.lam, p.gamma, p.rho, 1.0, None, grid)
        assert y[-1] == pytest.approx(eval_A(p, 1.0), abs=2e-5)

    def test_classical_limit(self):
        grid = L1Grid(1e-3, 1000, 0.999)
        y = solve_scalar(2.0, 1.0, 0.999, 1.0, None, grid)
        assert y[-1] == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-2)

    def test_history_term_matches_caputo_rule(self):
        # the marching scheme must discretize the memory exactly as the
        # standalone rule does: residual of the update equation is zero
        rho, gamma, lam = 0.4, 1.5, 3.0
        grid = L1Grid(0.05, 20, rho)
        y = solve_scalar(lam, gamma, rho, 1.0, None, grid)
        for n in (1, 7, 20):
            ydot = (y[n] - y[n - 1]) / grid.step
            frac = caputo_l1(y[: n + 1], rho, grid)
            assert ydot + lam * (y[n] + gamma * frac) == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_reference_on_oracle_grid(self):
        # the Toeplitz solve against forward substitution at the oracle
        # suite's (rho, gamma, lam) sets, unforced and forced
        n = 10_000
        for rho in RHO_GRID:
            grid = L1Grid(1.0 / n, n, rho)
            forced = 5.0 * np.sin(grid.times)
            for gamma in GAMMA_GRID:
                for lam in (1.0, 10.0):
                    for y0, fvals in ((1.0, np.zeros(n + 1)), (0.0, forced)):
                        y = solve_scalar(lam, gamma, rho, y0, fvals, grid)
                        ref = dense_l1_march(lam, gamma, rho, y0, fvals, grid)
                        assert np.max(np.abs(y - ref)) <= 1e-12

    def test_invalid_arguments(self):
        grid = L1Grid(0.1, 10, 0.5)
        with pytest.raises(ValueError):
            solve_scalar(-1.0, 1.0, 0.5, 1.0, None, grid)
        with pytest.raises(ValueError):
            solve_scalar(1.0, 1.0, 0.5, 1.0, np.zeros(5), grid)


class TestRichardson:
    def test_identical_inputs_pass_through(self):
        result = richardson_extrapolate([0.7, 0.7])
        assert result.value == 0.7
        assert not result.order_reliable

    def test_first_order_sequence(self):
        # v(h) = 1 + h: halving gives order 1 exactly
        values = [1.0 + h for h in (0.2, 0.1, 0.05)]
        result = richardson_extrapolate(values)
        assert result.observed_order == pytest.approx(1.0, abs=1e-12)
        assert result.order_reliable
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_is_flagged(self):
        result = richardson_extrapolate([1.1, 0.9, 1.01])
        assert not result.order_reliable

    def test_oracle_sequence_improves_on_kernel_target(self):
        p = KernelParams(0.5, 1.0, 1.0)
        values = []
        for dt in (4e-4, 2e-4, 1e-4):
            grid = L1Grid(dt, round(1.0 / dt), p.rho)
            values.append(float(solve_scalar(p.lam, p.gamma, p.rho, 1.0, None,
                                             grid)[-1]))
        result = richardson_extrapolate(values)
        target = eval_A(p, 1.0)
        assert result.observed_order is not None and result.observed_order > 0.9
        assert abs(result.value - target) < 0.2 * abs(values[-1] - target)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0])
