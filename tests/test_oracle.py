import decimal
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frstokes.kernel import (
    BLOCK_ELEMENTS,
    KernelParams,
    density_A,
    density_B,
    eval_A,
    laplace_A_closed_form,
    laplace_B_closed_form,
    laplace_transform_numeric,
)
from frstokes.oracle import (
    L1Grid,
    _convolve,
    _fft_size,
    _inverse_series,
    _is_uniform,
    caputo_l1_trace,
    l1_weights,
    richardson_extrapolate,
    solve_scalar,
)
from frstokes.solvers import uniform_grid
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


def dense_l1_march(lam, gamma, y0, fvals, grid):
    """Reference: the implicit Euler + L1 march by forward substitution.

    Step i solves for y_i with the history sum_{k<i} b_{i-k} (y_k - y_{k-1})
    taken as a dense dot product, O(n^2) in total.
    """
    rho, n, b = grid.rho, grid.count, grid.weights
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

    @pytest.mark.parametrize("n", [BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS,
                                   BLOCK_ELEMENTS + 1, 2 * BLOCK_ELEMENTS + 1])
    def test_blocks_match_one_shot_weights(self, n):
        # filled a block of BLOCK_ELEMENTS at a time, bit for bit the weights
        # of one expression over all of j
        a = 1.0 - 0.35
        j = np.arange(1, n, dtype=np.float64)
        one_shot = np.concatenate(([1.0], j ** a
                                   * np.expm1(a * np.log1p(1 / j))))
        assert l1_weights(0.35, n).tobytes() == one_shot.tobytes()

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

    @pytest.mark.parametrize("count", [10.5, 11.0, math.nan, "11"])
    def test_count_must_be_an_integer(self, count):
        # a float count once built 11 weights and 12 times for 10.5, and
        # solve_scalar then failed inside numpy with a TypeError
        with pytest.raises(ValueError, match="count must be an integer"):
            L1Grid(0.1, count, 0.5)

    def test_count_takes_numpy_integers(self):
        grid = L1Grid(0.1, np.int64(10), 0.5)
        assert grid.weights.shape == (10,) and grid.times.shape == (11,)


class TestCaputo:
    def test_constant_history_gives_zero(self):
        grid = L1Grid(0.01, 100, 0.5)
        assert caputo_l1_trace(grid.times, np.ones(101), 0.5)[-1] == 0.0

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_exact_on_affine(self, rho):
        # the rule integrates piecewise-linear histories exactly:
        # for y = t the value is t^(1-rho)/Gamma(2-rho) at any step
        for n in (4, 57):
            grid = L1Grid(1.0 / n, n, rho)
            t = grid.times
            approx = caputo_l1_trace(t, t, rho)[-1]
            exact = t[-1] ** (1.0 - rho) / math.gamma(2.0 - rho)
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_quadratic_value(self):
        # Caputo derivative of t^2 at t=1, rho=1/2: 2 / Gamma(2.5)
        rho, n = 0.5, 4000
        grid = L1Grid(1.0 / n, n, rho)
        approx = caputo_l1_trace(grid.times, grid.times ** 2, rho)[-1]
        assert approx == pytest.approx(1.5045055561273501, abs=5e-6)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            caputo_l1_trace([0.0], [1.0], 0.5)

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

    @pytest.mark.parametrize("grid", ["geometric", "power", "random"])
    @pytest.mark.parametrize("n", [255, 256, 257, 600])  # about TRACE_BLOCK
    def test_dense_trace_matches_reference_bit_for_bit(self, grid, n):
        rng = np.random.default_rng(n)
        t = {"geometric": np.geomspace(1e-4, 1.0, n - 1),
             "power": np.linspace(0.0, 1.0, n)[1:] ** 1.5,
             "random": np.append(np.sort(rng.uniform(0.0, 1.0, n - 2)),
                                 1.0)}[grid]
        t = np.concatenate(([0.0], t))
        cols = np.column_stack([
            np.sin(3.0 * t),
            np.exp(-1e4 * t),  # stiff: decays within the first cells
            rng.standard_normal(n).cumsum(),
        ])
        assert not _is_uniform(t)  # the dense path
        for rho in (0.01, 0.5, 0.999):
            for values in (cols, cols[:, 2]):
                out = caputo_l1_trace(t, values, rho)
                ref = dense_l1_trace(t, values, rho)
                assert out.tobytes() == ref.tobytes()

    def test_uniformity_tolerance(self):
        t = np.linspace(1.0, 3.0, 101)
        assert _is_uniform(t)
        nudged = t.copy()
        nudged[40] += 1e-13
        assert _is_uniform(nudged)
        nudged[40] += 1e-10
        assert not _is_uniform(nudged)
        assert not _is_uniform(np.linspace(0.0, 1.0, 101) ** 1.5)

    @pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 64),
                                   np.linspace(0.0, 1.0, 64) ** 1.5],
                             ids=["uniform", "dense"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_trace_is_causal_past_non_finite_values(self, t, bad):
        # node 40 of column 0 is non-finite: nodes before it keep the clean
        # trace, it and every later node are NaN, column 1 is untouched
        clean = np.column_stack([np.sin(3.0 * t), 1.0 + t ** 2])
        cols = clean.copy()
        cols[40, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = caputo_l1_trace(t, cols, 0.4)
            single = caputo_l1_trace(t, cols[:, 0], 0.4)
        ref = caputo_l1_trace(t, clean, 0.4)
        for col in (out[:, 0], single):
            assert np.all(np.isnan(col[40:]))
            assert np.allclose(col[:40], ref[:40, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(out[:, 1], ref[:, 1], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_modes", [32, 256])
    def test_uniform_trace_holds_one_array_and_a_block(self, n_modes):
        # the slopes, their spectra and the scalings live in the output: the
        # peak is the output, the non-finite mask and one block of spectra
        t = np.linspace(0.0, 1.0, 4096)
        values = np.random.default_rng(n_modes).standard_normal(
            (t.size, n_modes)).cumsum(axis=0)
        caputo_l1_trace(t, values, 0.5)  # caches the transform length
        tracemalloc.start()
        try:
            caputo_l1_trace(t, values, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * values.nbytes + 32 * BLOCK_ELEMENTS

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
        y = solve_scalar(1.0, 1.0, 0.0, None, grid)
        assert np.all(y == 0.0)

    def test_positive_nonincreasing_relaxation(self):
        for rho, gamma, lam in ((0.3, 0.5, 1.0), (0.9, 2.0, 10.0)):
            grid = L1Grid(1e-3, 1000, rho)
            y = solve_scalar(lam, gamma, 1.0, None, grid)
            assert np.all(y > 0.0)
            assert np.all(np.diff(y) <= 0.0)

    def test_manufactured_quadratic_source(self):
        # f chosen so that y(t) = t^2 solves the mode problem with y(0) = 0
        rho, gamma, lam = 0.5, 1.0, 2.0
        coef = 2.0 * gamma / math.gamma(3.0 - rho)

        def forcing(t):
            return 2.0 * t + lam * t ** 2 + lam * coef * t ** (2.0 - rho)

        grid = L1Grid(1e-3, 1000, rho)
        y = solve_scalar(lam, gamma, 0.0, forcing(grid.times), grid)
        assert y[-1] == pytest.approx(1.0, abs=2e-3)
        finer = L1Grid(1e-4, 10000, rho)
        y2 = solve_scalar(lam, gamma, 0.0, forcing(finer.times), finer)
        assert abs(y2[-1] - 1.0) < 0.3 * abs(y[-1] - 1.0)

    def test_cross_validates_quadrature_kernel(self):
        p = KernelParams(0.5, 1.0, 1.0)
        grid = L1Grid(1e-4, 10000, p.rho)
        y = solve_scalar(p.lam, p.gamma, 1.0, None, grid)
        assert y[-1] == pytest.approx(eval_A(p, 1.0), abs=2e-5)

    def test_classical_limit(self):
        grid = L1Grid(1e-3, 1000, 0.999)
        y = solve_scalar(2.0, 1.0, 1.0, None, grid)
        assert y[-1] == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-2)

    def test_history_term_matches_caputo_rule(self):
        # the marching scheme must discretize the memory exactly as the
        # standalone rule does: residual of the update equation is zero
        rho, gamma, lam = 0.4, 1.5, 3.0
        grid = L1Grid(0.05, 20, rho)
        y = solve_scalar(lam, gamma, 1.0, None, grid)
        for n in (1, 7, 20):
            ydot = (y[n] - y[n - 1]) / grid.step
            frac = caputo_l1_trace(grid.times[: n + 1], y[: n + 1], rho)[-1]
            assert ydot + lam * (y[n] + gamma * frac) == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_reference_on_oracle_grid(self):
        # the Toeplitz solve against forward substitution at the oracle
        # suite's (rho, gamma, lam) sets: unforced, under a constant source
        # (both take the running sums) and forced by a varying one
        n = 10_000
        for rho in RHO_GRID:
            grid = L1Grid(1.0 / n, n, rho)
            forced = 5.0 * np.sin(grid.times)
            constant = np.full(n + 1, 0.5)
            for gamma in GAMMA_GRID:
                for lam in (1.0, 10.0):
                    for y0, fvals in ((1.0, np.zeros(n + 1)), (0.0, forced),
                                      (0.25, constant)):
                        y = solve_scalar(lam, gamma, y0, fvals, grid)
                        ref = dense_l1_march(lam, gamma, y0, fvals, grid)
                        assert np.max(np.abs(y - ref)) <= 1e-12

    def test_zero_source_march_holds_five_arrays(self):
        # the inverse series, its two half-spectra and its real buffer, then
        # the one output: under five n-double arrays at its peak
        n = 100_000
        grid = L1Grid(1.0 / n, n, 0.5)
        solve_scalar(1.0, 1.0, 1.0, None, grid)  # caches the transform lengths
        tracemalloc.start()
        try:
            y = solve_scalar(1.0, 1.0, 1.0, None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == (n + 1,)
        assert peak < 5 * 8 * n

    def test_invalid_arguments(self):
        grid = L1Grid(0.1, 10, 0.5)
        with pytest.raises(ValueError):
            solve_scalar(-1.0, 1.0, 1.0, None, grid)
        with pytest.raises(ValueError):
            solve_scalar(1.0, 1.0, 1.0, np.zeros(5), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_sample_rejected(self, bad):
        # one bad sample at node 3 once made the trace NaN from node 1 on
        grid = L1Grid(0.1, 10, 0.5)
        fvals = np.ones(11)
        fvals[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="source samples must be finite"):
                solve_scalar(1.0, 1.0, 1.0, fvals, grid)

    def test_source_is_samples_or_none(self):
        grid = L1Grid(0.1, 10, 0.5)
        with pytest.raises(TypeError):
            solve_scalar(1.0, 1.0, 0.0, lambda t: np.ones_like(t), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["lam", "gamma", "y0", "step"])
    def test_non_finite_inputs_rejected(self, arg, bad):
        args = {"lam": 1.0, "gamma": 1.0, "y0": 1.0, "step": 0.1} | {arg: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                grid = L1Grid(args["step"], 10, 0.5)
                solve_scalar(args["lam"], args["gamma"], args["y0"], None, grid)


def smooth_5(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestFFT:
    def test_fft_size_is_next_5_smooth(self):
        brute = [next(k for k in itertools.count(n) if smooth_5(k))
                 for n in range(1, 5001)]
        assert [_fft_size(n) for n in range(1, 5001)] == brute
        assert _fft_size(100_000) == 100_000
        assert _fft_size(199_999) == 200_000

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 1025, 10007])
    def test_inverse_series_matches_naive(self, n):
        # the oracle's symbol at rho = 0.5, and a symbol of random sign given
        # as its own weights: 1 * w + 0 is w exactly
        grid = L1Grid(1.0 / n, n, 0.5)
        rng = np.random.default_rng(n)
        signed = np.concatenate(([4.0], rng.uniform(-1.0, 1.0, n - 1)
                                 / np.arange(2, n + 1) ** 2))
        for c, args in ((2.0 + 30.0 * grid.weights, (grid.weights, 2.0, 30.0)),
                        (signed, (signed, 0.0, 1.0))):
            naive = np.empty(n)
            naive[0] = 1.0 / c[0]
            for i in range(1, n):
                naive[i] = -np.dot(c[1:i + 1], naive[i - 1::-1]) / c[0]
            g = _inverse_series(*args, 0.0)
            assert g.shape == (n,)
            assert np.max(np.abs(g - naive)) <= 1e-14 * np.max(np.abs(naive))

    @pytest.mark.parametrize("la, lb", [(1, 1), (7, 5), (100, 1), (613, 389),
                                        (1000, 1001)])
    def test_convolve_matches_numpy(self, la, lb):
        rng = np.random.default_rng(la * lb)
        a, b = rng.standard_normal((la, 3)), rng.standard_normal((lb, 3))
        for cut in (la + lb - 1, la, 1):
            ref = [np.convolve(a[:, j], b[:, j])[:cut] for j in range(3)]
            tol = 1e-13 * np.sqrt(la * lb)
            assert np.max(np.abs(_convolve(a[:, 0], b[:, 0], cut) - ref[0])) <= tol
            out = _convolve(a, b, cut)
            assert out.shape == (cut, 3)
            assert np.max(np.abs(out - np.column_stack(ref))) <= tol

    @pytest.mark.parametrize("shared", [True, False],
                             ids=["one-b", "two-2d-operands"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1],
                             ids=["one", "block-1", "block", "block+1"])
    def test_blocked_convolve_is_one_whole_transform(self, shared, offset):
        # columns 1, block - 1, block and block + 1 against one axis-0
        # transform of the whole arrays, bit for bit, also written in place
        la, lb = 300, 250
        m = _fft_size(la + lb - 1)
        block = BLOCK_ELEMENTS // m
        k = 1 if offset is None else block + offset
        rng = np.random.default_rng(k)
        a = rng.standard_normal((la, k))
        b = rng.standard_normal(lb if shared else (lb, k))
        fa = np.fft.rfft(a, m, axis=0)
        fa *= np.fft.rfft(b.reshape(lb, -1), m, axis=0)
        whole = np.fft.irfft(fa, m, axis=0)
        for size in (la, 7):
            assert np.array_equal(_convolve(a, b, size), whole[:size])
        in_place = a.copy()
        assert _convolve(in_place, b, la, in_place) is in_place
        assert np.array_equal(in_place, whole[:la])
        if k == 1 and shared:
            assert np.array_equal(_convolve(a[:, 0], b, la), whole[:la, 0])

    def test_solve_transforms_at_5_smooth_lengths(self, monkeypatch):
        # every transform of one solve is 5-smooth and no longer than the
        # final convolution's; each Newton doubling takes five of them, and
        # only a varying source takes the final convolution's three
        n = 100_000
        grid = L1Grid(1.0 / n, n, 0.5)
        lengths = []
        for name in ("rfft", "irfft"):
            def counted(x, size, *args, _fft=getattr(np.fft, name), **kw):
                lengths.append(size)
                return _fft(x, size, *args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        doublings = 5 * math.ceil(math.log2(n))
        for source, count in ((None, doublings),
                              (np.full(n + 1, 0.5), doublings),
                              (np.sin(grid.times), doublings + 3)):
            lengths.clear()
            y = solve_scalar(1.0, 1.0, 1.0, source, grid)
            assert np.isfinite(y[-1])
            assert len(lengths) == count
            assert all(smooth_5(m) and m <= _fft_size(2 * n - 1)
                       for m in lengths)


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
            values.append(float(solve_scalar(p.lam, p.gamma, 1.0, None,
                                             grid)[-1]))
        result = richardson_extrapolate(values)
        target = eval_A(p, 1.0)
        assert result.observed_order is not None and result.observed_order > 0.9
        assert abs(result.value - target) < 0.2 * abs(values[-1] - target)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0])


P_REFUSED = KernelParams(0.5, 1.0, 1.0)
VALUES_REFUSED = [0.0, 1.0, 2.0]


@pytest.mark.parametrize("call", [
    lambda: caputo_l1_trace([0.0, math.nan, 1.0], VALUES_REFUSED, 0.5),
    lambda: caputo_l1_trace([0.0, 1.0, math.inf], VALUES_REFUSED, 0.5),
    lambda: uniform_grid(math.nan, 8),
    lambda: uniform_grid(math.inf, 8),
    lambda: uniform_grid(-1.0, 8),
    lambda: uniform_grid(0.0, 8),
    lambda: l1_weights(0.5, 2.5),
    lambda: l1_weights(0.5, math.nan),
    lambda: laplace_A_closed_form(P_REFUSED, math.inf),
    lambda: laplace_B_closed_form(P_REFUSED, math.nan),
    lambda: laplace_transform_numeric(P_REFUSED, math.inf),
    lambda: density_A(math.nan, P_REFUSED),
    lambda: density_B(math.inf, P_REFUSED),
    lambda: density_A(np.array([1.0, math.nan]), P_REFUSED),
    lambda: richardson_extrapolate([math.nan, 1.0, 2.0]),
    lambda: richardson_extrapolate([1.0, 2.0, math.inf]),
], ids=["trace-nan-time", "trace-inf-time", "grid-nan-horizon",
        "grid-inf-horizon", "grid-negative-horizon", "grid-zero-horizon",
        "weights-fractional-count", "weights-nan-count", "laplace-A-inf-z",
        "laplace-B-nan-z", "laplace-numeric-inf-z", "density-A-nan-r",
        "density-B-inf-r", "density-A-nan-in-array", "richardson-nan",
        "richardson-inf"])
def test_non_finite_times_grids_and_arguments_refused(call):
    # each returned NaN, a wrong grid or count, or a numpy warning (an error
    # under the suite's RuntimeWarning filter) before it was refused
    with pytest.raises(ValueError):
        call()
