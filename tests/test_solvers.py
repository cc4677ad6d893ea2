import gc
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frstokes import _format, solvers
from frstokes.kernel import (
    BLOCK_ELEMENTS,
    KernelParams,
    QuadratureConfig,
    eval_A,
    eval_A_grid,
)
from frstokes.solvers import (
    GridTooCoarseError,
    KernelAccuracyError,
    ProblemSpec,
    SolutionTrace,
    coercivity_report,
    constant_source,
    dumps_json,
    export_trace_csv,
    export_trace_grid_csv,
    export_trace_json,
    manufactured_quadratic_source,
    residual,
    sampled_source,
    solve_auxiliary_W,
    solve_backward,
    solve_forward,
    solve_nonlocal,
    uniform_grid,
)
from frstokes.spectral import (
    CoefficientField,
    basis_field,
    dirichlet_laplacian_1d,
    explicit_spectrum,
)


def zeros_field(op):
    return CoefficientField(np.zeros(op.n_modes), op)


@pytest.fixture(scope="module")
def small_op():
    return explicit_spectrum([1.0, 4.0, 9.0])


def convolve_one_mode(p, forcing, t, n_nodes=2):
    """(B * f)(t_i) on uniform_grid(t, n_nodes): a one-mode forward solve
    from zero data with the scalar forcing f."""
    op = explicit_spectrum([p.lam])
    spec = ProblemSpec("forward", op, p.rho, p.gamma, t, zeros_field(op),
                       lambda tau: np.asarray(forcing(tau))[..., None],
                       uniform_grid(t, n_nodes))
    return solve_forward(spec).coefficients[:, 0]


class TestConvolution:
    def test_zero_source(self):
        p = KernelParams(0.5, 1.0, 1.0)
        assert np.all(convolve_one_mode(p, np.zeros_like, 1.0, 96) == 0.0)
        assert convolve_one_mode(p, np.ones_like, 1.0, 96)[0] == 0.0

    @pytest.mark.parametrize("solve", [solve_forward, solve_nonlocal,
                                       solve_backward])
    def test_zero_source_holds_no_convolution_array(self, solve):
        # a 512 x 1000 node-mode array is 3.9 MiB; each solve peaked at
        # 13.3 MiB with the zero convolution a broadcast, and at 17.2 MiB
        # with it allocated
        op = dirichlet_laplacian_1d(math.pi, 1000)
        spec = ProblemSpec(solve.__name__.removeprefix("solve_"), op, 0.5,
                           1.0, 1.0, basis_field(op, 1), None,
                           uniform_grid(1.0, 512))
        tracemalloc.start()
        try:
            solve(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 2 ** 20

    def test_constant_source_matches_kernel_mass(self):
        # int_0^T B dtau = (1 - A(T)) / lam, and stays under 1/lam
        p = KernelParams(0.5, 1.0, 4.0)
        value = convolve_one_mode(p, np.ones_like, 1.0)[-1]
        expected = (1.0 - eval_A(p, 1.0)) / p.lam
        assert value == pytest.approx(expected, abs=1e-8)
        assert value < 1.0 / p.lam

    def test_bounded_by_source_supremum(self):
        p = KernelParams(0.7, 2.0, 3.0)
        values = convolve_one_mode(p, lambda tau: np.cos(3 * tau), 1.0, 96)
        assert np.max(np.abs(values)) <= 1.0 / p.lam

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_manufactured_mode(self, rho):
        # forcing built from the exact fractional derivative of t^2
        lam, gamma = 5.0, 1.0
        p = KernelParams(rho, gamma, lam)
        coef = 2.0 * gamma / math.gamma(3.0 - rho)

        def forcing(tau):
            return 2.0 * tau + lam * tau ** 2 + lam * coef * tau ** (2.0 - rho)

        for t in (0.25, 1.0):
            assert convolve_one_mode(p, forcing, t)[-1] == pytest.approx(
                t ** 2, abs=1e-6)

    def test_negative_time_rejected(self):
        p = KernelParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            convolve_one_mode(p, lambda tau: tau, -1.0)


GRADED_NODES = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 200)))
# graded near 0, and 63 interior nodes on points of the convolution lattice
LATTICE_POINT_NODES = np.unique(np.concatenate((np.linspace(0.0, 1.0, 65),
                                                np.geomspace(1e-4, 1e-2, 20))))


def closed_form_constant(op, c, nodes):
    """u_k = c (1 - A(lam_k, t)) / lam_k: zero data, rho = 0.5, gamma = 1."""
    out = np.empty((nodes.size, op.n_modes))
    for k, lam in enumerate(op.eigenvalues):
        a, _ = eval_A_grid(KernelParams(0.5, 1.0, float(lam)), nodes)
        a = a.copy()
        a[nodes == 0.0] = 1.0
        out[:, k] = c * (1.0 - a) / lam
    return out


def manufactured_error(lam, rho, nodes):
    """Worst |u - t^2| of a one-mode forced solve with the t^2 forcing."""
    op = explicit_spectrum([lam])
    spec = ProblemSpec("forward", op, rho, 1.0, 1.0, zeros_field(op),
                       manufactured_quadratic_source(op, rho, 1.0), nodes)
    trace = solve_forward(spec)
    return np.max(np.abs(trace.coefficients[:, 0] - nodes ** 2))


class TestLatticeConvolution:
    """Forced solves from A's own lattice: exact A cell integrals, source slopes."""

    @pytest.mark.parametrize("n", [96, 512, 1024])
    def test_constant_source_is_exact(self, small_op, n):
        # the cell masses telescope to (1 - A(t)) / lam on every node
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), constant_source(0.7),
                           uniform_grid(1.0, n))
        trace = solve_forward(spec)
        ref = closed_form_constant(small_op, 0.7, trace.nodes)
        assert np.max(np.abs(trace.coefficients - ref)) < 1e-12

    def test_graded_nodes_constant_source(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), constant_source(0.7),
                           GRADED_NODES)
        trace = solve_forward(spec)
        ref = closed_form_constant(small_op, 0.7, GRADED_NODES)
        assert np.max(np.abs(trace.coefficients - ref)) < 1e-10

    def test_graded_nodes_manufactured(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op),
                           manufactured_quadratic_source(small_op, 0.5, 1.0),
                           GRADED_NODES)
        trace = solve_forward(spec)
        assert np.max(np.abs(trace.coefficients
                             - GRADED_NODES[:, None] ** 2)) < 1e-6

    @pytest.mark.parametrize("rho,lam,bound", [
        (0.5, 100.0, 5e-10), (0.5, 1e4, 1e-9), (0.3, 1e4, 1e-9),
        (0.8, 1e6, 1e-9)])
    def test_large_eigenvalue_t2_response(self, rho, lam, bound):
        # A' ~ t^(rho - 1) over many cells for large lam; cell integrals
        # from the contour antiderivative keep the error flat in lam
        assert manufactured_error(lam, rho, uniform_grid(1.0, 201)) < bound

    @pytest.mark.parametrize("lam,nodes", [
        pytest.param(lam, nodes, id=name + str(lam))
        for name, nodes in (("", GRADED_NODES),
                            ("lattice-points-", LATTICE_POINT_NODES))
        for lam in (100.0, 1e4)])
    def test_graded_nodes_large_eigenvalue(self, lam, nodes):
        assert manufactured_error(lam, 0.5, nodes) < 2e-8

    def test_graded_nodes_source_work_is_bounded(self):
        # off-lattice nodes: the source once per lattice point below each
        # node for all modes at once, on a lattice of LATTICE_MIN_CELLS
        # cells whatever the node count, plus whole-grid samples
        nodes = np.linspace(0.0, 1.0, 1025) ** 1.5
        op = explicit_spectrum([4.0, 9.0])
        base = manufactured_quadratic_source(op, 0.5, 1.0)
        seen = []

        def source(t):
            seen.append((np.size(t), np.array_equal(t, nodes)))
            return base(t)

        solve_forward(ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                                  source, nodes))
        lattice_times = sum(size for size, on_nodes in seen if not on_nodes)
        assert lattice_times <= nodes.size * (solvers.LATTICE_MIN_CELLS + 2)
        # construction, the convolution, and the interior terms that the
        # residual and the coercivity report share
        assert sum(on_nodes for _, on_nodes in seen) == 3

    def test_uniform_source_calls_independent_of_mode_count(self):
        calls = []
        for n_modes in (1, 8):
            op = explicit_spectrum(np.arange(1.0, n_modes + 1.0))
            base = manufactured_quadratic_source(op, 0.5, 1.0)
            seen = []

            def source(t):
                seen.append(np.shape(t))
                return base(t)

            solve_forward(ProblemSpec("forward", op, 0.5, 1.0, 1.0,
                                      zeros_field(op), source,
                                      uniform_grid(1.0, 96)))
            calls.append(len(seen))
        # construction, the nodes, the lattice, and the interior terms
        # that the residual and the coercivity report share
        assert calls == [4, 4]

    def test_only_moving_modes_take_the_antiderivative(self, monkeypatch):
        # modes 1 and 3 are constant, 2 and 4 move: Phi and the FFT run for
        # 2 and 4 alone, which leaves their columns as in a solve where
        # every mode moves, and 1 and 3 exact with no Richardson correction
        op = explicit_spectrum([1.0, 4.0, 9.0, 16.0])
        c = np.array([0.7, -0.3])

        def mixed(t):
            t = np.asarray(t, dtype=float)
            return np.stack(np.broadcast_arrays(
                c[0], np.cos(3.0 * t), c[1], t ** 2), axis=-1)

        def all_moving(t):
            out = mixed(t)
            out[..., [0, 2]] = np.sin(np.asarray(t))[..., None]
            return out

        phi_lams = []
        contour = solvers._bromwich

        def recorded(kind, rho, gamma, lam, ts, *args):
            if kind == "Phi":
                phi_lams.append(np.array(lam))
            return contour(kind, rho, gamma, lam, ts, *args)

        monkeypatch.setattr(solvers, "_bromwich", recorded)
        traces = [solve_forward(ProblemSpec("forward", op, 0.5, 1.0, 1.0,
                                            zeros_field(op), source,
                                            uniform_grid(1.0, 96)))
                  for source in (mixed, all_moving)]
        assert [lams.tolist() for lams in phi_lams] == [[4.0, 16.0],
                                                         [1.0, 4.0, 9.0, 16.0]]
        (u, mixed_diag), (u_all, all_diag) = (
            (t.coefficients, t.diagnostics["convolution_error_estimate"])
            for t in traces)
        assert np.array_equal(u[:, [1, 3]], u_all[:, [1, 3]])
        assert [mixed_diag[k] for k in (1, 3)] == [all_diag[k] for k in (1, 3)]
        ref = closed_form_constant(op, 1.0, traces[0].nodes)[:, [0, 2]] * c
        assert np.max(np.abs(u[:, [0, 2]] - ref)) < 1e-12
        assert [mixed_diag[k] for k in (0, 2)] == [0.0, 0.0]

    @pytest.mark.parametrize("grid", [uniform_grid(1.0, 96), GRADED_NODES],
                             ids=["uniform", "graded"])
    def test_mode_blocks_leave_every_column_unchanged(self, monkeypatch,
                                                      grid):
        # five moving modes in blocks of two: one Phi call per block, and
        # every coefficient and diagnostic bit for bit that of one block
        op = explicit_spectrum([1.0, 4.0, 9.0, 16.0, 25.0])
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           manufactured_quadratic_source(op, 0.5, 1.0), grid)
        whole = solve_forward(spec)
        phi_lams = []
        contour = solvers._bromwich

        def recorded(kind, rho, gamma, lam, ts, *args):
            if kind == "Phi":
                phi_lams.append(np.array(lam).tolist())
            return contour(kind, rho, gamma, lam, ts, *args)

        monkeypatch.setattr(solvers, "_bromwich", recorded)
        monkeypatch.setattr(solvers, "LATTICE_BLOCK", 2)
        blocked = solve_forward(spec)
        assert phi_lams == [[1.0, 4.0], [9.0, 16.0], [25.0]]
        assert np.array_equal(blocked.coefficients, whole.coefficients)
        assert dumps_json(blocked.diagnostics) == dumps_json(whole.diagnostics)

    @pytest.mark.parametrize("grid", [
        GRADED_NODES, np.linspace(0.0, 1.0, 257) ** 1.5,
        uniform_grid(1.0, 257), LATTICE_POINT_NODES],
        ids=["geometric", "power", "uniform", "lattice-points"])
    @pytest.mark.parametrize("moving", [False, True],
                             ids=["manufactured", "per-mode"])
    def test_mode_subsets_leave_every_column_unchanged(self, grid, moving):
        # a mode's coefficients and error estimate depend only on its own
        # (lam, f_k): solves of a few of the modes give the full solve's
        # columns bit for bit, on and off the lattice
        lams = np.arange(1.0, 10.0) ** 2

        def solve(modes):
            op = explicit_spectrum(lams[modes])
            lam = op.eigenvalues
            source = ((lambda t: np.cos(3.0 * np.asarray(t))[..., None] * lam
                       + np.asarray(t)[..., None]) if moving
                      else manufactured_quadratic_source(op, 0.5, 1.0))
            trace = solve_forward(ProblemSpec("forward", op, 0.5, 1.0, 1.0,
                                              zeros_field(op), source, grid))
            return (trace.coefficients,
                    trace.diagnostics["convolution_error_estimate"])

        whole, whole_err = solve(np.arange(lams.size))
        for modes in ([0], [8], [0, 8], [3, 4, 5]):
            u, err = solve(np.array(modes))
            assert np.array_equal(u, whole[:, modes])
            assert np.array_equal(err, whole_err[modes])

    def test_manufactured_suite_configuration_under_1e_8(self):
        # the manufactured suite's problem: 8 modes, 512 nodes
        op = explicit_spectrum(np.arange(1.0, 9.0))
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           manufactured_quadratic_source(op, 0.5, 1.0),
                           uniform_grid(1.0, 512))
        trace = solve_forward(spec)
        assert np.max(np.abs(trace.coefficients
                             - trace.nodes[:, None] ** 2)) <= 1e-8

    def test_convolution_error_estimate_reported(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op),
                           manufactured_quadratic_source(small_op, 0.5, 1.0),
                           uniform_grid(1.0, 96))
        trace = solve_forward(spec)
        estimate = np.array(trace.diagnostics["convolution_error_estimate"])
        assert estimate.shape == (small_op.n_modes,)
        assert np.all(estimate > 0.0)
        err = np.max(np.abs(trace.coefficients - trace.nodes[:, None] ** 2),
                     axis=0)
        assert np.all(err <= estimate)
        unforced = solve_forward(ProblemSpec(
            "forward", small_op, 0.5, 1.0, 1.0, basis_field(small_op, 1),
            None, uniform_grid(1.0, 96)))
        assert "convolution_error_estimate" not in unforced.diagnostics


class TestProblemSpec:
    def test_grid_validation(self, small_op):
        data = zeros_field(small_op)
        with pytest.raises(ValueError):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, data,
                        time_grid=np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, data,
                        time_grid=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            ProblemSpec("sideways", small_op, 0.5, 1.0, 1.0, data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, small_op, bad):
        # comparisons with NaN are false, so a NaN node passes a plain
        # strictly-increasing check; an infinite node or horizon must not
        # reach a solve either
        data = zeros_field(small_op)
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, data,
                        time_grid=np.array([0.0, bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, data,
                        time_grid=np.array([0.0, 0.5, 1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec("forward", small_op, 0.5, 1.0, bad, data)
        with pytest.raises(ValueError, match="finite"):
            sampled_source([0.0, bad, 1.0], np.ones((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            sampled_source([bad, 0.0, 1.0], np.ones((3, 3)))

    @pytest.mark.parametrize("count", [10.5, 10.0, math.nan, "10", 1])
    def test_node_count_must_be_an_integer_of_two_or_more(self, count):
        with pytest.raises(ValueError, match="integer"):
            uniform_grid(1.0, count)

    def test_node_count_takes_numpy_integers(self):
        assert np.array_equal(uniform_grid(1.0, np.int64(11)),
                              uniform_grid(1.0, 11))

    def test_empty_sample_set_rejected(self):
        # np.interp would refuse it only when the source is first sampled
        with pytest.raises(ValueError, match="non-empty"):
            sampled_source(np.empty(0), np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, small_op, bad):
        # a NaN gamma passes a plain "gamma <= 0" check, and either value
        # would only surface as a non-finite solution
        with pytest.raises(ValueError, match="gamma"):
            ProblemSpec("forward", small_op, 0.5, bad, 1.0,
                        zeros_field(small_op))

    @pytest.mark.parametrize("source", [
        constant_source([1.0, 2.0]),
        sampled_source([0.0, 1.0], np.ones((2, 2))),
    ], ids=["constant", "sampled"])
    def test_wrong_width_source_rejected(self, small_op, source):
        # two mode columns on a three-mode operator
        with pytest.raises(ValueError, match="broadcast"):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                        zeros_field(small_op), source, uniform_grid(1.0, 16))

    def test_source_without_mode_axis_rejected(self, small_op):
        # on three nodes and three modes, shape (3,) broadcasts to (3, 3)
        with pytest.raises(ValueError, match="mode axis"):
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                        zeros_field(small_op), lambda t: np.exp(-t),
                        uniform_grid(1.0, 3))

    def test_default_grid(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 2.0, zeros_field(small_op))
        assert spec.time_grid[0] == 0.0
        assert spec.time_grid[-1] == 2.0
        assert spec.time_grid.size == 512

    def test_kind_mismatch_raises(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, zeros_field(small_op))
        with pytest.raises(ValueError):
            solve_nonlocal(spec)
        with pytest.raises(ValueError):
            solve_backward(spec)


class TestForward:
    def test_zero_problem_is_identically_zero(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), None,
                           uniform_grid(1.0, 96))
        trace = solve_forward(spec)
        assert np.all(trace.coefficients == 0.0)

    def test_single_mode_matches_kernel(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           basis_field(small_op, 1), None,
                           uniform_grid(1.0, 128))
        trace = solve_forward(spec)
        expected, _ = eval_A_grid(KernelParams(0.5, 1.0, 1.0), trace.nodes)
        expected = expected.copy()
        expected[0] = 1.0
        assert trace.coefficients[:, 0] == pytest.approx(expected, abs=1e-9)
        assert np.all(trace.coefficients[:, 1:] == 0.0)
        assert trace.coefficients[0, 0] == 1.0  # initial state is exact

    def test_mode_decoupling(self, small_op):
        rng = np.random.default_rng(1)
        phi = CoefficientField(rng.normal(size=3), small_op)
        grid = uniform_grid(1.0, 96)
        joint = solve_forward(
            ProblemSpec("forward", small_op, 0.5, 1.0, 1.0, phi,
                        constant_source(0.3), grid)
        )
        for k in range(1, 4):
            single_op = explicit_spectrum([small_op.eigenvalues[k - 1]])
            single = solve_forward(
                ProblemSpec("forward", single_op, 0.5, 1.0, 1.0,
                            CoefficientField([phi.coefficients[k - 1]],
                                             single_op),
                            constant_source(0.3), grid)
            )
            assert np.max(np.abs(single.coefficients[:, 0]
                                 - joint.coefficients[:, k - 1])) < 1e-12

    def test_linearity(self, small_op):
        grid = uniform_grid(1.0, 96)
        rng = np.random.default_rng(2)
        phi1 = rng.normal(size=3)
        phi2 = rng.normal(size=3)
        a, b = 1.7, -0.4

        def run(coeffs, c):
            return solve_forward(
                ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                            CoefficientField(coeffs, small_op),
                            constant_source(c), grid)
            ).coefficients

        combined = run(a * phi1 + b * phi2, a * 0.2 + b * 0.5)
        split = a * run(phi1, 0.2) + b * run(phi2, 0.5)
        assert np.max(np.abs(combined - split)) < 1e-10

    def test_manufactured_solution_all_modes(self):
        op = explicit_spectrum(np.arange(1.0, 9.0))
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           manufactured_quadratic_source(op, 0.5, 1.0),
                           uniform_grid(1.0, 128))
        trace = solve_forward(spec)
        assert np.max(np.abs(trace.coefficients - trace.nodes[:, None] ** 2)) < 1e-4

    def test_callable_and_sampled_sources_agree(self, small_op):
        grid = uniform_grid(1.0, 96)
        coefficients = np.array([1.0, 0.5, -0.2])
        dense_t = np.linspace(0.0, 1.0, 4001)
        sampled = sampled_source(
            dense_t, np.exp(-dense_t)[:, None] * coefficients[None, :]
        )
        tr1 = solve_forward(ProblemSpec(
            "forward", small_op, 0.5, 1.0, 1.0, zeros_field(small_op),
            lambda t: np.exp(-t)[..., None] * coefficients, grid))
        tr2 = solve_forward(ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                                        zeros_field(small_op), sampled, grid))
        assert np.max(np.abs(tr1.coefficients - tr2.coefficients)) < 1e-7


class TestAuxiliaryW:
    def test_zero_increment(self, small_op):
        trace = solve_auxiliary_W(zeros_field(small_op), 0.5, 1.0, 1.0,
                                  uniform_grid(1.0, 96))
        assert np.all(trace.coefficients == 0.0)

    def test_increment_telescopes_exactly(self, small_op):
        psi = basis_field(small_op, 1)
        trace = solve_auxiliary_W(psi, 0.5, 1.0, 1.0, uniform_grid(1.0, 96))
        gap = trace.coefficients[-1] - trace.coefficients[0] - psi.coefficients
        assert np.max(np.abs(gap)) < 1e-12

    def test_initial_magnitude_obeys_deviation_bound(self, small_op):
        from frstokes.kernel import lower_bound_B

        psi = basis_field(small_op, 1)
        trace = solve_auxiliary_W(psi, 0.5, 1.0, 1.0, uniform_grid(1.0, 96))
        c_b = lower_bound_B(0.5, 1.0, 1.0, 1.0)
        assert abs(trace.coefficients[0, 0]) <= 1.0 / (c_b * 1.0) + 1e-9


class TestNonlocal:
    def test_zero_data_zero_source(self, small_op):
        spec = ProblemSpec("nonlocal", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), None,
                           uniform_grid(1.0, 96))
        trace = solve_nonlocal(spec)
        assert np.all(trace.coefficients == 0.0)

    def test_single_mode_closed_form(self, small_op):
        spec = ProblemSpec("nonlocal", small_op, 0.5, 1.0, 1.0,
                           basis_field(small_op, 1), None,
                           uniform_grid(1.0, 128))
        trace = solve_nonlocal(spec)
        p = KernelParams(0.5, 1.0, 1.0)
        a_vals, _ = eval_A_grid(p, trace.nodes)
        a_vals = a_vals.copy()
        a_vals[0] = 1.0
        expected = a_vals / (a_vals[-1] - 1.0)
        assert trace.coefficients[:, 0] == pytest.approx(expected, rel=1e-8)

    def test_increment_condition_and_decomposition(self, small_op):
        rng = np.random.default_rng(9)
        data = CoefficientField(
            small_op.eigenvalues ** -2.0 * rng.uniform(-1, 1, 3), small_op)
        spec = ProblemSpec("nonlocal", small_op, 0.5, 1.0, 1.0, data,
                           constant_source(1.0), uniform_grid(1.0, 96))
        trace = solve_nonlocal(spec)
        assert trace.diagnostics["nonlocal_gap"] <= 1e-6
        forced = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                             zeros_field(small_op), constant_source(1.0),
                             spec.time_grid)
        v = solve_forward(forced)
        psi = CoefficientField(data.coefficients - v.coefficients[-1], small_op)
        w = solve_auxiliary_W(psi, 0.5, 1.0, 1.0, spec.time_grid)
        assert np.max(np.abs(trace.coefficients
                             - (v.coefficients + w.coefficients))) < 1e-10

    def test_one_kernel_pass_per_solve(self, small_op, monkeypatch):
        from frstokes import quadrature

        def forced(kind, op, source=constant_source(1.0)):
            return ProblemSpec(kind, op, 0.5, 1.0, 1.0, basis_field(op, 1),
                               source, uniform_grid(1.0, 96))

        # one contour call for A on the nodes, whatever the mode count, and
        # one for its antiderivative on the lattice only when a mode's
        # source moves: a constant source has no slopes to convolve.  The
        # density engine never runs (the nonlocal solve's lower_bound_B is a
        # fixed rule)
        moving = manufactured_quadratic_source(small_op, 0.5, 1.0)
        for solve, spec, contour_calls in (
                (solve_forward, forced("forward", explicit_spectrum([4.0])), 1),
                (solve_forward, forced("forward", small_op), 1),
                (solve_nonlocal, forced("nonlocal", small_op), 1),
                (solve_forward, forced("forward", small_op, moving), 2)):
            calls = {"_bromwich": 0, "_diagnose": 0, "caputo_l1_trace": 0,
                     "_refine": 0}

            def counted(module, name):
                fn = getattr(module, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            with monkeypatch.context() as patch:
                for name in ("_bromwich", "_diagnose", "caputo_l1_trace"):
                    patch.setattr(solvers, name, counted(solvers, name))
                # the adaptive engine's loop, which only tests run
                patch.setattr(quadrature, "_refine",
                              counted(quadrature, "_refine"))
                solve(spec)
            assert calls == {"_bromwich": contour_calls, "_diagnose": 1,
                             "caputo_l1_trace": 1, "_refine": 0}

    @pytest.mark.parametrize("which", ["nonlocal", "auxiliary_W"])
    def test_warns_when_A_at_horizon_is_near_one(self, small_op, monkeypatch,
                                                 which):
        def flat_A(kind, rho, gamma, lam, ts, q=None, error_at=slice(None)):
            values = np.where(ts < ts[-1], 1.0, 1.0 - 1e-14)[None, :, None]
            values = values * np.ones(np.size(lam))
            return values, np.zeros_like(values)

        monkeypatch.setattr(solvers, "_bromwich", flat_A)
        psi = basis_field(small_op, 1)
        grid = uniform_grid(1.0, 16)
        with pytest.warns(UserWarning, match=r"\|A\(T\) - 1\| .* suspect") as rec:
            if which == "nonlocal":
                solve_nonlocal(ProblemSpec("nonlocal", small_op, 0.5, 1.0, 1.0,
                                           psi, None, grid))
            else:
                solve_auxiliary_W(psi, 0.5, 1.0, 1.0, grid)
        assert rec[0].filename == __file__  # blamed on the solver's caller


class TestBackward:
    def test_terminal_state_reproduced_exactly(self, small_op):
        psi = basis_field(small_op, 1)
        spec = ProblemSpec("backward", small_op, 0.5, 1.0, 1.0, psi,
                           None, uniform_grid(1.0, 96))
        trace = solve_backward(spec)
        assert trace.diagnostics["terminal_gap"] < 1e-12
        p = KernelParams(0.5, 1.0, 1.0)
        assert trace.coefficients[0, 0] == pytest.approx(
            1.0 / eval_A(p, 1.0), rel=1e-7
        )

    def test_roundtrip_through_independent_quadrature(self):
        # terminal data psi_k = A(lam_k, T) phi_k from the density rule, so
        # the contour's recovery does not cancel its own kernel values
        from frstokes.verification import _density_rule

        op = dirichlet_laplacian_1d(math.pi, 6)
        phi = CoefficientField(op.eigenvalues ** -2.0, op)
        grid = uniform_grid(1.0, 96)
        a_T = _density_rule(0.5, 1.0, op.eigenvalues, [1.0], ("A",))[0, :, 0]
        psi = CoefficientField(phi.coefficients * a_T, op)
        back = solve_backward(
            ProblemSpec("backward", op, 0.5, 1.0, 1.0, psi, None, grid),
            QuadratureConfig(rel_tol=1e-9),
        )
        assert np.max(np.abs(back.coefficients[0] - phi.coefficients)) < 1e-4
        assert (back.diagnostics["recovered_initial_norm"]
                <= back.diagnostics["stability_bound"] + 1e-12)

    def test_bounds_read_no_tolerance(self, small_op):
        # rel_tol sizes the contour alone: the lower bound and the stability
        # bound of a zero-source solve do not move with it
        spec = ProblemSpec("backward", small_op, 0.5, 1.0, 1.0,
                           basis_field(small_op, 1), None, uniform_grid(1.0, 96))
        loose, tight = (solve_backward(spec, QuadratureConfig(rel_tol=tol))
                        for tol in (1e-3, 1e-8))
        for key in ("lower_bound_A", "stability_bound"):
            assert loose.diagnostics[key] == tight.diagnostics[key]

    def test_fails_loudly_on_sloppy_quadrature(self):
        # near-classical order and the smallest contour (N = 8): its error
        # bound at T dwarfs the (tiny) uniform lower bound
        sloppy = QuadratureConfig(rel_tol=0.5, abs_tol=0.5)
        op = explicit_spectrum([100.0])
        spec = ProblemSpec("backward", op, 0.999, 0.5, 1.0,
                           basis_field(op, 1), None,
                           uniform_grid(1.0, 96))
        with pytest.raises(KernelAccuracyError):
            solve_backward(spec, sloppy)


@pytest.fixture(scope="module")
def forward_run():
    op = explicit_spectrum([1.0, 4.0])
    spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                       None, uniform_grid(1.0, 512))
    return spec, solve_forward(spec)


class TestResidual:
    def test_zero_solution_zero_residual(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), None,
                           uniform_grid(1.0, 128))
        trace = solve_forward(spec)
        _, res = residual(trace, spec)
        assert np.all(res == 0.0)

    def test_true_solution_has_small_residual(self, forward_run):
        spec, trace = forward_run
        t_int, res = residual(trace, spec)
        gate = t_int >= 1.0 / 32.0
        assert np.max(res[gate]) < 1e-3

    def test_perturbation_is_detected(self, forward_run):
        spec, trace = forward_run
        t_int, res = residual(trace, spec)
        gate = t_int >= 1.0 / 32.0
        bumped = SolutionTrace(trace.nodes, trace.coefficients.copy(),
                               trace.operator, {})
        bumped.coefficients[trace.nodes >= 0.5, 0] += 0.01
        _, res_bumped = residual(bumped, spec)
        assert np.max(res_bumped[gate]) > 10.0 * np.max(res[gate])

    @pytest.mark.parametrize("elements", [8, 8 * (5 * 7 + 3)],
                             ids=["one-node", "five-nodes"])
    def test_node_blocks_leave_every_norm_unchanged(self, monkeypatch,
                                                    elements):
        # a node's sums over the modes do not depend on its block
        op = explicit_spectrum(np.arange(1.0, 8.0))
        nodes = uniform_grid(1.0, 200)
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           manufactured_quadratic_source(op, 0.5, 1.0), nodes)
        u = np.random.default_rng(elements).standard_normal(
            (nodes.size, op.n_modes)).cumsum(axis=0)
        trace = SolutionTrace(nodes, u, op, {})
        monkeypatch.setattr(solvers, "BLOCK_ELEMENTS", 8 * nodes.size * 7)
        whole = solvers._diagnose(trace, spec)
        monkeypatch.setattr(solvers, "BLOCK_ELEMENTS", elements)
        blocked = solvers._diagnose(trace, spec)
        assert np.array_equal(blocked[1], whole[1])
        assert dumps_json(blocked[2]) == dumps_json(whole[2])

    @pytest.mark.parametrize("n_modes", [32, 256])
    def test_diagnostics_hold_one_array_and_a_block(self, n_modes):
        # beside the Caputo term, D_t u, A u, the residual and the norms are
        # formed a block of nodes at a time: the peak is that one array, its
        # mask of non-finite slopes and a block
        nodes = uniform_grid(1.0, 4096)
        op = explicit_spectrum(np.arange(1.0, n_modes + 1.0))
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           None, nodes)
        u = np.random.default_rng(n_modes).standard_normal(
            (nodes.size, n_modes)).cumsum(axis=0)
        trace = SolutionTrace(nodes, u, op, {})
        solvers._diagnose(trace, spec)  # caches the transform length
        tracemalloc.start()
        try:
            solvers._diagnose(trace, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * u.nbytes + 32 * BLOCK_ELEMENTS

    def test_grid_too_coarse(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), None,
                           uniform_grid(1.0, 32))
        trace = solve_forward(spec)
        with pytest.raises(GridTooCoarseError):
            residual(trace, spec)


    @pytest.mark.parametrize("n_nodes", [65, 66])
    def test_diagnostics_start_at_64_interior_nodes(self, small_op, n_nodes):
        # the solve and both public views switch at the same grid
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           basis_field(small_op, 1), None,
                           uniform_grid(1.0, n_nodes))
        trace = solve_forward(spec)
        coercivity = trace.diagnostics["coercivity"]
        if n_nodes - 2 < solvers.MIN_INTERIOR_NODES:
            assert coercivity is None
            assert trace.diagnostics["residual_max_interior"] is None
            for view in (residual, coercivity_report):
                with pytest.raises(GridTooCoarseError, match="got 63"):
                    view(trace, spec)
        else:
            t_int, res = residual(trace, spec)
            assert t_int.shape == res.shape == (64,)
            rep = coercivity_report(trace, spec)
            assert sorted(rep) == sorted(coercivity)
            for key, values in rep.items():
                assert np.array_equal(values, coercivity[key])
            assert np.array_equal(res, trace.diagnostics["residual_norm"])


class TestCoercivity:
    def test_zero_problem_reports_zero(self, small_op):
        spec = ProblemSpec("forward", small_op, 0.5, 1.0, 1.0,
                           zeros_field(small_op), None,
                           uniform_grid(1.0, 128))
        rep = coercivity_report(solve_forward(spec), spec)
        for key in ("norm_dt_u", "norm_A_u", "norm_A_caputo_u"):
            assert np.all(rep[key] == 0.0)

    def test_damped_derivative_bounded_and_stable(self):
        op = explicit_spectrum([1.0, 4.0])
        sups = []
        for n in (512, 1024):
            spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                               None, uniform_grid(1.0, n))
            rep = coercivity_report(solve_forward(spec), spec)
            assert np.all(np.isfinite(rep["weighted_norm_dt_u"]))
            sups.append(np.max(rep["weighted_norm_dt_u"]))
        assert abs(sups[1] - sups[0]) / sups[0] < 0.1

    def test_forced_response_under_manifest_constant(self):
        from frstokes.constants import DEFAULT_EPSILON, get_constants
        from frstokes.spectral import norm_tau

        op = explicit_spectrum(np.arange(1.0, 9.0))
        f_coeffs = op.eigenvalues ** -2.0
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, zeros_field(op),
                           constant_source(f_coeffs), uniform_grid(1.0, 129))
        trace = solve_forward(spec)
        au = trace.coefficients * op.eigenvalues[None, :]
        sup_au = np.max(np.sqrt(np.sum(au ** 2, axis=1)))
        f_norm = norm_tau(CoefficientField(f_coeffs, op), DEFAULT_EPSILON)
        c_emp = get_constants(0.5, 1.0)["c_forcing_response"]
        assert sup_au <= c_emp * f_norm * (1.0 + 1e-6)


@pytest.fixture(scope="module")
def trace():
    op = dirichlet_laplacian_1d(math.pi, 2)
    spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                       None, uniform_grid(1.0, 72))
    return solve_forward(spec)


def lists_of(obj):
    """obj with every numpy array as its tolist() and every non-finite
    float None: json.dumps writes it as dumps_json writes obj."""
    if isinstance(obj, np.ndarray):
        return lists_of(obj.tolist())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: lists_of(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [lists_of(value) for value in obj]
    return obj


# float leaf sizes on both sides of _JSON_BATCH and EXPORT_BLOCK, whose runs
# fill batches exactly, straddle them or are one leaf too many for them, and
# small leaves of 1 to 257 cells
LEAF_SIZES = [1, 2, 7, 255, 256, 257, solvers._JSON_BATCH // 2,
              solvers._JSON_BATCH - 1, solvers._JSON_BATCH,
              solvers._JSON_BATCH + 1, solvers.EXPORT_BLOCK - 1,
              solvers.EXPORT_BLOCK, solvers.EXPORT_BLOCK + 3]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]


@st.composite
def float_leaf(draw):
    """A float64 vector, matrix or 3-axis array, or a flat float list, of
    about one of LEAF_SIZES cells, with a few non-finite and signed-zero
    values among random magnitudes."""
    size = draw(st.sampled_from(LEAF_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    special = rng.integers(0, size, draw(st.integers(0, 3)))
    values[special] = rng.choice(SPECIAL_FLOATS, special.size)
    form = draw(st.sampled_from(["vector", "matrix", "cube", "list"]))
    if form == "list":
        return values.tolist()
    if form == "vector":
        return values
    columns = draw(st.sampled_from([1, 2, 5, 32]))
    if form == "matrix":
        return values[:size // columns * columns].reshape(-1, columns)
    return values[:size // (2 * columns) * 2 * columns].reshape(2, -1, columns)


def document():
    """Nested dicts and lists of float leaves, ints, strings, None, single
    floats and empty containers, with a leaf of EXPORT_BLOCK cells or more
    between two of them."""
    scalars = (st.integers() | st.text(max_size=3) | st.none()
               | st.sampled_from(SPECIAL_FLOATS + [0.1, -2.5])
               | st.sampled_from([(), {}, np.empty(0)]))
    items = st.recursive(
        float_leaf() | scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=4)),
        max_leaves=8)
    big = st.sampled_from(LEAF_SIZES[-2:]).map(
        lambda n: np.linspace(-1.0, 1.0, n))
    return st.tuples(items, big, items).map(
        lambda parts: {"a": parts[0], "b": parts[1], "c": parts[2]})


class TestExports:
    def test_csv_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,k,coefficient"
        t, k, c = rows[1 + 1 * trace.n_modes].split(",")  # node 1, mode 1
        assert float(t) == trace.nodes[1]
        assert int(k) == 1
        assert float(c) == trace.coefficients[1, 0]  # 17g is bit-exact

    def test_reruns_byte_identical(self, trace, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace_csv(trace, str(p1))
        export_trace_csv(trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_payload(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        export_trace_json(trace, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["nodes"]) == trace.nodes.size
        assert payload["fields"][0][0] == trace.coefficients[0, 0]
        assert "residual_max_interior" in payload["diagnostics"]

    @pytest.fixture
    def edge_trace(self):
        # values whose shortest round-trip form needs all 17 digits, signed
        # zero, the subnormal and normal extremes
        op = dirichlet_laplacian_1d(math.pi, 5)
        nodes = np.linspace(0.0, 0.7, 6)
        coefficients = np.array([
            [-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 1.0],
            [0.1 + 0.2, 1.0 / 3.0, -2.0 / 7.0, math.pi, -math.e],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [-5e-324, -1e-300, 1e300, -0.0, 0.0],
            [1.0, -1.0, 0.5, 1e-17, 123456789.12345678],
            [math.sqrt(2.0), -0.0, 2.0 ** -1074, 9007199254740993.0, 1e22],
        ])
        return SolutionTrace(nodes, coefficients, op, {})

    def test_csv_matches_per_row_formatting(self, edge_trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_trace_csv(edge_trace, str(path))
        lines = ["t,k,coefficient"]
        for i, t in enumerate(edge_trace.nodes):
            for k in range(1, edge_trace.n_modes + 1):
                c = edge_trace.coefficients[i, k - 1]
                lines.append(f"{t:.17g},{k},{c:.17g}")
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_grid_csv_matches_per_node_synthesis(self, edge_trace, tmp_path):
        from frstokes.spectral import synthesize

        xs = np.linspace(0.0, math.pi, 9)
        path = tmp_path / "grid.csv"
        export_trace_grid_csv(edge_trace, xs, str(path))
        lines = ["t,x,u"]
        for i, t in enumerate(edge_trace.nodes):
            field = CoefficientField(edge_trace.coefficients[i].copy(),
                                     edge_trace.operator)
            for xv, uv in zip(xs, synthesize(field, xs)):
                lines.append(f"{t:.17g},{xv:.17g},{uv:.17g}")
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_json_matches_per_element_floats(self, edge_trace, tmp_path):
        path = tmp_path / "trace.json"
        export_trace_json(edge_trace, str(path))
        payload = {
            "nodes": [float(t) for t in edge_trace.nodes],
            "eigenvalues": [float(v) for v in edge_trace.operator.eigenvalues],
            "fields": [[float(c) for c in row]
                       for row in edge_trace.coefficients],
            "diagnostics": {},
        }
        assert path.read_text() == json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n"

    def test_write_all_is_all_or_none(self, tmp_path):
        paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        for path in paths:
            with open(path, "w") as fh:
                fh.write("old " + path)

        def failing(fd):
            raise OSError(28, "No space left on device")

        # the first file is staged in full before the second fails
        with pytest.raises(OSError):
            solvers._write_all({
                paths[0]: lambda fd: solvers._atomic_write(fd, "new"),
                paths[1]: failing})
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
        for path in paths:
            with open(path) as fh:
                assert fh.read() == "old " + path

        solvers._write_all({path: lambda fd, path=path: solvers._atomic_write(
            fd, "new " + path) for path in paths})
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
        for path in paths:
            with open(path) as fh:
                assert fh.read() == "new " + path

    @pytest.mark.parametrize("n_nodes, columns", [
        (1, [",1,", ",5%,", ",%s%%,"]),
        (2 * (solvers.EXPORT_BLOCK // 7) + 17, [f",{k}," for k in range(1, 8)]),
        (3, [",%d," % k for k in range(solvers.EXPORT_BLOCK + 1)]),
        (3, []),
    ], ids=["one-node", "partial-last-block", "more-columns-than-block",
            "no-columns"])
    def test_csv_blocks_match_per_row_formatting(self, n_nodes, columns,
                                                 tmp_path):
        rng = np.random.default_rng(n_nodes)
        nodes = np.sort(rng.uniform(0.0, 1.0, n_nodes))
        values = rng.standard_normal((n_nodes, len(columns)))
        values.flat[:4] = [-0.0, 5e-324, math.inf, math.nan][:values.size]
        path = tmp_path / "long.csv"
        solvers._atomic_write(str(path), solvers._long_csv(
            "t,c,v", nodes, columns, values))
        lines = ["t,c,v"] + [f"{t:.17g}{c}{v:.17g}"
                             for t, row in zip(nodes, values)
                             for c, v in zip(columns, row)]
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("obj", [
        {"nan": math.nan, "inf": [math.inf, -math.inf, 5e-324, -0.0],
         "f64": [np.float64(0.1), 1e300], "one": np.float64(-2.5)},
        {"empty": {}, "list": [], "nested": [[], [[1, 2.5], {}], [{"a": None}]]},
        ("tuple", (1, (2.0, "x")), [True, False, None, 0, -3, 2 ** 70]),
        {"\u00fcn\u00ef": "c\u00f6d\u00e9", "z": {"b": 1, "a": [1.0, "\u2603"]},
         "": ["\n\"\\", "\x00"]},
        {2: "a", 1.5: [1], -1: {}},
        {None: 1}, {False: [0.5]}, {math.nan: 0},
        [], {}, 1.5, "s", None, True, [[[]]], [1, [2, [3, [4.5]]]],
    ])
    def test_dumps_json_matches_indented_dumps(self, obj):
        assert dumps_json(obj) == json.dumps(lists_of(obj), indent=2,
                                             sort_keys=True)

    def test_dumps_json_matches_on_solve_diagnostics(self, trace):
        # the per-node entries are float64 arrays, which json.dumps reads
        # as their lists
        assert dumps_json(trace.diagnostics) == json.dumps(
            lists_of(trace.diagnostics), indent=2, sort_keys=True)

    def test_diagnostics_hold_per_node_float64_arrays(self, monkeypatch):
        op = dirichlet_laplacian_1d(math.pi, 3)
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                           constant_source(1.0), uniform_grid(1.0, 72))
        trace = solve_forward(spec)
        diagnostics = trace.diagnostics
        coercivity = diagnostics["coercivity"]
        assert sorted(coercivity) == ["norm_A_caputo_u", "norm_A_u",
                                      "norm_dt_u", "t", "weighted_norm_dt_u"]
        assert not np.shares_memory(coercivity["t"], trace.nodes)
        sizes = {"norm_H": 72, "norm_A": 72, "residual_norm": 70,
                 "convolution_error_estimate": 3}
        for key, size in sizes.items():
            assert diagnostics[key].dtype == np.float64
            assert diagnostics[key].shape == (size,)
        for values in coercivity.values():
            assert values.dtype == np.float64 and values.shape == (70,)
        assert dumps_json(diagnostics) == json.dumps(
            lists_of(diagnostics), indent=2, sort_keys=True)

        # a NaN inside a coercivity array is named as coercivity.<key>
        diagnose = solvers._diagnose

        def with_nan(*args):
            t_int, res, rep = diagnose(*args)
            rep["norm_A_u"][5] = math.nan
            return t_int, res, rep

        monkeypatch.setattr(solvers, "_diagnose", with_nan)
        with pytest.raises(solvers.SolverError,
                           match=r"diagnostic coercivity\.norm_A_u is not finite"):
            solve_forward(spec)

    def test_float_lists_are_written_by_json(self, monkeypatch):
        # a list of Python floats, however long, is no float leaf: json
        # writes it, and the text is the same
        sizes = []

        def counted(values):
            sizes.append(values.size)
            return _format.shortest(values)

        monkeypatch.setattr(solvers, "shortest", counted)
        for n in (1, 256, 10_000):
            obj = (np.arange(n) / 7.0).tolist()
            assert dumps_json({"a": obj}) == json.dumps({"a": obj}, indent=2)
        assert sizes == []

    def test_leaf_arrays_are_freed_when_dumps_json_returns(self):
        # json's encoder keeps its default hook in a reference cycle, which
        # must not keep the leaves alive until the cycle collector runs
        values = np.linspace(0.0, 1.0, 5)
        ref = weakref.ref(values)
        enabled = gc.isenabled()
        gc.disable()
        try:
            dumps_json({"a": values, "b": [values[1:], np.ones((2, 2, 2))]})
            del values
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("doc", [
        solvers._LEAF, [1.0, solvers._LEAF], {solvers._LEAF: 1},
        {"a": np.ones(3), "b": ["x", solvers._LEAF]},
    ], ids=["document", "list-item", "key", "beside-a-leaf"])
    def test_leaf_marker_in_a_document_raises(self, doc):
        with pytest.raises(ValueError, match="leaf marker"):
            dumps_json(doc)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, {np.int64(1): 0.5}],
                             ids=["set-value", "numpy-integer-key"])
    def test_dumps_json_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps_json(doc)

    def test_non_finite_numbers_are_null_in_strict_json(self):
        # RFC 8259 has no NaN or Infinity: json's own floats, the per-value
        # route of a float leaf and a 0-d array all write null
        def refuse(name):
            raise AssertionError(f"{name} in a JSON document")

        values = np.array([math.nan, 1.0, math.inf, -math.inf])
        doc = {"a": math.nan, "b": values, "c": (np.float64(-math.inf), 2.5),
               "d": [values[:2], np.array(math.inf)],
               "e": np.array([math.nan], dtype=np.float32)}
        parsed = json.loads(dumps_json(doc), parse_constant=refuse)
        assert parsed == {"a": None, "b": [None, 1.0, None, None],
                          "c": [None, 2.5], "d": [[None, 1.0], None],
                          "e": [None]}

    @given(document())
    @settings(max_examples=40, deadline=None)
    def test_batched_floats_match_indented_dumps(self, doc):
        sizes = []

        def counted(values):
            sizes.append(values.size)
            return _format.shortest(values)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "shortest", counted)
            text = dumps_json(doc)
        assert text == json.dumps(lists_of(doc), indent=2, sort_keys=True)
        assert max(sizes, default=0) <= solvers.EXPORT_BLOCK

    def test_forced_diagnostics_take_one_shortest_call(self, monkeypatch):
        # 512 nodes and 8 modes: the 4092 per-node and per-mode numbers are
        # one batch
        op = explicit_spectrum(np.geomspace(1.0, 1e3, 8))
        spec = ProblemSpec("forward", op, 0.5, 1.0, 1.0, basis_field(op, 1),
                           constant_source(1.0), uniform_grid(1.0, 512))
        diagnostics = solve_forward(spec).diagnostics
        sizes = []

        def counted(values):
            sizes.append(values.size)
            return _format.shortest(values)

        monkeypatch.setattr(solvers, "shortest", counted)
        text = dumps_json(diagnostics)
        assert sizes == [2 * 512 + 6 * 510 + 8]
        assert text == json.dumps(lists_of(diagnostics), indent=2,
                                  sort_keys=True)

    def test_trace_csv_takes_one_stamp_call_per_export_block(self, monkeypatch,
                                                             tmp_path):
        # 4096 x 32: 16 blocks of 256 nodes, their stamps one call
        n = 4096
        trace = SolutionTrace(np.linspace(0.0, 1.0, n),
                              np.random.default_rng(n).standard_normal((n, 32)),
                              explicit_spectrum(np.arange(1.0, 33.0)), {})
        sizes = []

        def counted(values):
            sizes.append(np.size(values))
            return _format.g17(values)

        monkeypatch.setattr(solvers, "g17", counted)
        export_trace_csv(trace, str(tmp_path / "trace.csv"))
        assert sizes == [n] + [solvers.EXPORT_BLOCK] * 16

    def test_csv_export_memory_is_bounded_by_the_block(self, tmp_path):
        op = explicit_spectrum(np.arange(1.0, 33.0))
        peaks = []
        for n in (2048, 16384):
            trace = SolutionTrace(np.linspace(0.0, 1.0, n),
                                  np.random.default_rng(n).standard_normal((n, 32)),
                                  op, {})
            path = tmp_path / f"{n}.csv"
            tracemalloc.start()
            try:
                export_trace_csv(trace, str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
        assert peaks[1] < path.stat().st_size / 4

    @pytest.mark.parametrize("shape", [
        (2 * (solvers.EXPORT_BLOCK // 7) + 17, 7),
        (3, solvers.EXPORT_BLOCK + 1),
        (1, 1), (0, 3), (3, 0), (5,), (), (4, 3, 2),
    ], ids=["partial-last-block", "more-columns-than-block", "one-cell",
            "no-rows", "no-columns", "vector", "scalar", "three-axes"])
    def test_dumps_json_writes_arrays_as_their_lists(self, shape):
        values = np.array(np.random.default_rng(7).standard_normal(shape))
        values.flat[:4] = [-0.0, 5e-324, math.inf, math.nan][:values.size]
        assert dumps_json({"a": values, "b": 1}) == json.dumps(
            lists_of({"a": values, "b": 1}), indent=2, sort_keys=True)

    def test_json_export_memory_is_bounded_by_the_block(self, tmp_path):
        # a 4096 x 32 trace: written whole, the payload as Python floats and
        # text peaked at 15.5 MB for a 3.6 MB file
        n = 4096
        op = explicit_spectrum(np.arange(1.0, 33.0))
        trace = SolutionTrace(np.linspace(0.0, 1.0, n),
                              np.random.default_rng(n).standard_normal((n, 32)),
                              op, {"residual_norm": np.linspace(0.0, 1.0, n).tolist()})
        path = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            export_trace_json(trace, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert peak < path.stat().st_size / 2
        payload = {
            "nodes": trace.nodes.tolist(),
            "eigenvalues": op.eigenvalues.tolist(),
            "fields": trace.coefficients.tolist(),
            "diagnostics": trace.diagnostics,
        }
        assert path.read_text() == json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n"

    def test_grid_sampled_export(self, trace, tmp_path):
        path = tmp_path / "grid.csv"
        export_trace_grid_csv(trace, np.linspace(0.0, math.pi, 5), str(path))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x,u"
        assert len(rows) == 1 + trace.nodes.size * 5


def g17_texts(values):
    """The writer's text of each value: a one-column table, in blocks."""
    return "".join(solvers._csv_table("v", (values.ravel(),))).splitlines()[1:]


class TestG17Writer:
    """The vectorised writer against "%.17g" itself."""

    def test_matches_printf_on_bit_patterns_and_edge_cases(self):
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2 ** 64, 2 ** 19, dtype=np.uint64)
        # odd M near 2^53: M/4 ends in .25 or .75 with 16 integer digits,
        # an exact tie at 17 digits; M/2 needs all 17 digits
        odd = np.concatenate((2 ** 53 - 1 - 2 * np.arange(2000),
                              2 ** 52 + 1 + 2 * np.arange(2000),
                              rng.integers(2 ** 51, 2 ** 52, 20000) * 2 + 1))
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate((
            bits.view(np.float64), odd / 4.0, odd / 2.0,
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            [0.0, -0.0, math.inf, -math.inf, math.nan],
        ))
        expected = ["%.17g" % v for v in values.tolist()]
        assert g17_texts(values) == expected

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_matches_printf_on_any_floats(self, values):
        assert g17_texts(np.array(values)) == ["%.17g" % v for v in values]

    def test_normal_values_take_no_per_value_route(self, monkeypatch):
        printf, sizes = _format.printf, []

        def counted(values):
            sizes.append(values.size)
            return printf(values)

        monkeypatch.setattr(_format, "printf", counted)
        rng = np.random.default_rng(4096)
        magnitudes = np.exp(rng.uniform(math.log(1e-20), math.log(1e3),
                                        (4096, 32)))
        values = magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)
        texts = g17_texts(values)
        assert sizes == []
        assert texts == ["%.17g" % v for v in values.ravel().tolist()]
        assert g17_texts(np.array([0.5, 0.0, 5e-324])) == [
            "0.5", "0", "4.9406564584124654e-324"]
        assert sizes == [2]


def json_texts(values):
    """The JSON writer's text of each value: a flat array, in blocks."""
    text = dumps_json(np.asarray(values, dtype=float).ravel())
    return [line.strip().rstrip(",") for line in text.splitlines()[1:-1]]


def reprs(values):
    """float.__repr__ of each value, null for the non-finite ones."""
    names = {"nan": "null", "inf": "null", "-inf": "null"}
    return [names.get(text, text) for text in map(repr, values)]


class TestShortestWriter:
    """The vectorised JSON writer against float.__repr__, null for the
    non-finite values."""

    def test_matches_repr_on_bit_patterns_and_edge_cases(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2 ** 64, 2 ** 19, dtype=np.uint64)
        # odd M: M/4 ends in .25 or .75, so with 15 integer digits its two
        # nearest 16-digit decimals tie, and with 16 its 17-digit ones
        odd = np.concatenate((rng.integers(2 ** 50, 2 * 10 ** 15, 20000) * 2 + 1,
                              2 ** 53 - 1 - 2 * np.arange(2000),
                              rng.integers(2 ** 51, 2 ** 52, 20000) * 2 + 1))
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate((
            bits.view(np.float64), odd / 4.0, odd / 2.0,
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.ldexp(1.0, np.arange(-1074, 1024)),
            np.ldexp(rng.integers(1, 2 ** 52, 2000).astype(float), -1074),
            [0.0, -0.0, math.inf, -math.inf, math.nan],
        ))
        assert json_texts(values) == reprs(values.tolist())

    def test_ties_round_half_to_even(self):
        assert json_texts([612857683458612.75, 612857683458612.25,
                           -700000000000000.25, 1125899906842624.25]) == [
            "612857683458612.8", "612857683458612.2", "-700000000000000.2",
            "1125899906842624.2"]

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_matches_repr_on_any_floats(self, values):
        assert json_texts(values) == reprs(values)

    def test_normal_values_take_no_per_value_route(self, monkeypatch):
        jsonrepr, sizes = _format.jsonrepr, []

        def counted(values):
            sizes.append(values.size)
            return jsonrepr(values)

        monkeypatch.setattr(_format, "jsonrepr", counted)
        rng = np.random.default_rng(4096)
        magnitudes = np.exp(rng.uniform(math.log(1e-20), math.log(1e3),
                                        (4096, 32)))
        values = magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)
        text = dumps_json(values)
        assert sizes == []
        assert text == json.dumps(values.tolist(), indent=2)
        # a zero, a subnormal and a power of two
        assert json_texts([0.1, 0.0, 5e-324, 0.5]) == [
            "0.1", "0.0", "5e-324", "0.5"]
        assert sizes == [3]
