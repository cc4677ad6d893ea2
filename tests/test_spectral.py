import math

import numpy as np
import pytest

from frstokes.spectral import (
    AliasingWarning,
    CoefficientField,
    basis_field,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    load_field_csv,
    norm_tau,
    project,
    synthesize,
    tail_indicator,
)
from frstokes.solvers import SolutionTrace


@pytest.fixture
def op_pi():
    return dirichlet_laplacian_1d(math.pi, 5)


class TestOperators:
    def test_unit_interval_eigenvalues(self):
        op = dirichlet_laplacian_1d(math.pi, 3)
        assert op.eigenvalues == pytest.approx([1.0, 4.0, 9.0])
        assert dirichlet_laplacian_1d(1.0, 1).eigenvalues[0] == pytest.approx(
            math.pi ** 2
        )

    def test_orthonormality_on_fine_grid(self, op_pi):
        x = np.linspace(0.0, math.pi, 2048)
        v1 = op_pi.eigenfunction(1, x)
        v2 = op_pi.eigenfunction(2, x)
        assert np.trapezoid(v1 * v2, x) == pytest.approx(0.0, abs=1e-10)
        assert np.trapezoid(v1 * v1, x) == pytest.approx(1.0, abs=1e-6)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            dirichlet_laplacian_1d(0.0, 3)
        for count in (0, 3.5, 3.0, math.nan, "3"):  # 3.5 built 4 modes
            with pytest.raises(ValueError, match="mode count"):
                dirichlet_laplacian_1d(1.0, count)
        with pytest.raises(ValueError, match="overflows"):  # (2 pi / 1e-300)^2
            dirichlet_laplacian_1d(1e-300, 2)
        with pytest.raises(ValueError):
            explicit_spectrum([2.0, 1.0])
        with pytest.raises(ValueError):
            explicit_spectrum([0.0, 1.0])
        # NaN defeats both ordering checks; an infinite eigenvalue would
        # only surface as a non-finite solution
        for bad in ([1.0, math.nan, 0.5], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="finite"):
                explicit_spectrum(bad)

    @pytest.mark.parametrize("k", [1.5, 1.0, math.nan, 0, 6])
    def test_mode_index_must_be_an_integer_in_range(self, op_pi, k):
        x = np.linspace(0.0, math.pi, 9)
        with pytest.raises(ValueError, match="mode index"):
            basis_field(op_pi, k)
        with pytest.raises(ValueError, match="mode index"):
            op_pi.eigenfunction(k, x)

    def test_numpy_integers_accepted(self, op_pi):
        x = np.linspace(0.0, math.pi, 9)
        assert np.array_equal(dirichlet_laplacian_1d(math.pi, np.int64(5))
                              .eigenvalues, op_pi.eigenvalues)
        assert basis_field(op_pi, np.int32(2)).coefficients[1] == 1.0
        assert np.array_equal(op_pi.eigenfunction(np.int64(2), x),
                              op_pi.eigenfunction(2, x))

    def test_explicit_spectrum_has_no_eigenfunctions(self):
        op = explicit_spectrum([1.0, 2.0])
        assert not op.has_eigenfunctions
        with pytest.raises(ValueError):
            op.eigenfunction(1, np.array([0.5]))


class TestProjection:
    def test_pure_eigenfunction_projects_to_unit_vector(self, op_pi):
        x = np.linspace(0.0, math.pi, 4096)
        field = project(x, op_pi.eigenfunction(2, x), op_pi)
        expected = np.zeros(5)
        expected[1] = 1.0
        assert field.coefficients == pytest.approx(expected, abs=1e-8)

    def test_zero_samples(self, op_pi):
        x = np.linspace(0.0, math.pi, 512)
        field = project(x, np.zeros_like(x), op_pi)
        assert np.all(field.coefficients == 0.0)

    def test_parabola_coefficients_match_quadrature_oracle(self):
        # h(x) = x (pi - x): even modes vanish by symmetry, odd modes decay
        # like k^-3; compare with a brute-force sine-series quadrature
        op = dirichlet_laplacian_1d(math.pi, 6)
        x = np.linspace(0.0, math.pi, 8192)
        h = x * (math.pi - x)
        field = project(x, h, op)
        for k in (2, 4, 6):
            assert abs(field.coefficients[k - 1]) < 1e-10
        for k in (1, 3, 5):
            oracle = np.trapezoid(h * np.sqrt(2 / math.pi) * np.sin(k * x), x)
            assert field.coefficients[k - 1] == pytest.approx(oracle, rel=1e-12)
            assert field.coefficients[k - 1] == pytest.approx(
                4.0 * math.sqrt(2.0 / math.pi) / k ** 3, rel=1e-5
            )

    @pytest.mark.parametrize("where", ["x", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, op_pi, where, bad):
        # NaN defeats the strictly-increasing check on x
        x = np.array([0.0, 1.0, 2.0, math.pi])
        values = np.ones(4)
        (x if where == "x" else values)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            project(x, values, op_pi)

    def test_aliasing_warning(self):
        op = dirichlet_laplacian_1d(math.pi, 16)
        x = np.linspace(0.0, math.pi, 33)  # 4 points per shortest wavelength
        with pytest.warns(AliasingWarning):
            project(x, np.sin(x), op)

    def test_round_trip(self, op_pi):
        rng = np.random.default_rng(7)
        field = CoefficientField(rng.normal(size=5), op_pi)
        x = np.linspace(0.0, math.pi, 4096)
        back = project(x, synthesize(field, x), op_pi)
        assert back.coefficients == pytest.approx(field.coefficients, abs=1e-8)

    def test_synthesize_basis_and_zero(self, op_pi):
        x = np.linspace(0.0, math.pi, 100)
        e1 = basis_field(op_pi, 1)
        assert synthesize(e1, x) == pytest.approx(op_pi.eigenfunction(1, x))
        zero = CoefficientField(np.zeros(5), op_pi)
        assert np.all(synthesize(zero, x) == 0.0)

    @pytest.mark.parametrize("x", [np.linspace(0.0, math.pi, 37), 1.0, 0.0],
                             ids=["array", "scalar", "scalar-zero"])
    def test_synthesize_block_matches_each_row_bit_for_bit(self, op_pi, x):
        # rows of zeros of both signs, negative and mixed coefficients: the
        # block's row i is the sum of row i alone, bit for bit, and the
        # same bits as a sum that skips the zero coefficients
        coefficients = np.array([
            [1.0, 0.0, -0.25, 0.0, 3e-17],
            [-0.0, -0.0, -0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [-1.5, -0.0, 2.0, -1e-300, 0.0],
            [-0.0, 0.5, 0.0, -0.5, -0.0],
        ])
        block = synthesize(SolutionTrace(np.arange(5.0), coefficients,
                                         op_pi, {}), x)
        xs = np.asarray(x, dtype=float)
        assert block.shape == (len(coefficients),) + xs.shape
        for row, got in zip(coefficients, block):
            alone = synthesize(CoefficientField(row, op_pi), x)
            skipped = np.zeros_like(xs)
            for k, c in enumerate(row, start=1):
                if c != 0.0:
                    skipped += c * op_pi.eigenfunction(k, xs)
            assert got.tobytes() == alone.tobytes() == skipped.tobytes()

    def test_parseval_for_band_limited_samples(self, op_pi):
        rng = np.random.default_rng(11)
        field = CoefficientField(rng.normal(size=5), op_pi)
        x = np.linspace(0.0, math.pi, 8192)
        u = synthesize(field, x)
        grid_norm = math.sqrt(np.trapezoid(u * u, x))
        assert grid_norm == pytest.approx(norm_tau(field, 0.0), rel=1e-7)


class TestHilbertScale:
    def test_single_mode_norm(self):
        op = explicit_spectrum([4.0, 9.0])
        e1 = basis_field(op, 1)
        assert norm_tau(e1, 1.0) == pytest.approx(4.0)
        assert norm_tau(CoefficientField([3.0, 4.0], op), 0.0) == pytest.approx(5.0)

    def test_embedding_inequality(self):
        op = explicit_spectrum([2.0, 5.0, 11.0])
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = CoefficientField(rng.normal(size=3), op)
            assert norm_tau(h, 0.0) <= norm_tau(h, 1.0) / op.eigenvalues[0] + 1e-12

    def test_tail_indicator(self):
        op = explicit_spectrum([1.0, 10.0])
        h = CoefficientField([5.0, 0.25], op)
        assert tail_indicator(h) == pytest.approx((10.0 * 0.25) ** 2)

    def test_length_mismatch_rejected(self):
        op = explicit_spectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            CoefficientField([1.0], op)


class TestCsvIngestion:
    def test_coefficient_rows(self, tmp_path):
        op = explicit_spectrum([1.0, 2.0, 3.0])
        path = tmp_path / "coeffs.csv"
        path.write_text("k,coefficient\n1,0.5\n3,-2.0\n")
        field = load_field_csv(path, op)
        assert field.coefficients == pytest.approx([0.5, 0.0, -2.0])

    def test_grid_samples(self, tmp_path):
        op = dirichlet_laplacian_1d(math.pi, 3)
        x = np.linspace(0.0, math.pi, 2048)
        samples = op.eigenfunction(1, x)
        lines = ["x,value"] + [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(x, samples)]
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        field = load_field_csv(path, op)
        assert field.coefficients == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)

    def test_bad_header(self, tmp_path):
        op = explicit_spectrum([1.0])
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_field_csv(path, op)

    def test_mode_out_of_range(self, tmp_path):
        op = explicit_spectrum([1.0])
        path = tmp_path / "oob.csv"
        path.write_text("k,coefficient\n2,1.0\n")
        with pytest.raises(ValueError):
            load_field_csv(path, op)

    def test_duplicate_mode_rejected(self, tmp_path):
        # a later row must not silently overwrite an earlier one
        op = explicit_spectrum([1.0, 4.0])
        path = tmp_path / "dup.csv"
        path.write_text("k,coefficient\n1,0.5\n2,0.1\n1,0.7\n")
        with pytest.raises(ValueError, match=r"dup\.csv.*mode index 1"):
            load_field_csv(path, op)

    def test_one_dialect(self, tmp_path):
        # comments, blank lines, \r\n endings, a padded header in either
        # case, quoted and padded numbers, and 1.0 as a mode index
        op = explicit_spectrum([1.0, 2.0, 3.0])
        path = tmp_path / "dialect.csv"
        path.write_bytes(b'# initial data\r\n K , Coefficient # header\r\n'
                         b'\r\n  \r\n1.0,"0.5"\r\n# a comment line\r\n'
                         b' 3 ,-2 # last')
        field = load_field_csv(path, op)
        assert field.coefficients.tolist() == [0.5, 0.0, -2.0]

    def test_byte_order_mark_is_read(self, tmp_path):
        op = explicit_spectrum([1.0, 2.0])
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfk,coefficient\n2,0.5\n")
        assert load_field_csv(path, op).coefficients.tolist() == [0.0, 0.5]

    def test_header_only_coefficients_are_zero(self, tmp_path):
        op = explicit_spectrum([1.0, 2.0])
        path = tmp_path / "zero.csv"
        path.write_text("k,coefficient\n")
        assert load_field_csv(path, op).coefficients.tolist() == [0.0, 0.0]

    def test_whole_mode_index_required(self, tmp_path):
        op = explicit_spectrum([1.0, 2.0])
        path = tmp_path / "half.csv"
        path.write_text("k,coefficient\n1.5,1.0\n")
        with pytest.raises(ValueError, match=r"half\.csv: mode index 1\.5 "):
            load_field_csv(path, op)

    @pytest.mark.parametrize("text, message", [
        ("", "no header line"),
        ("\n  \n# only a comment\n", "no header line"),
        ("k,coefficient\n1\n", "line 2: need one finite"),
        ("k,coefficient\n1,2,3\n", "line 2: need one finite"),
        ("k,coefficient\n\n1,abc\n", "line 3: need one finite"),
        ("k,coefficient\n1,1e400\n", "line 2: need one finite"),
        ("k,coefficient\n1,nan\n", "line 2: need one finite"),
        ("k,coefficient\n1,\n", "line 2: need one finite"),
        ("k,coefficient\n1,1_0\n", "line 2: need one finite"),
        ("k,coefficient\n\u0661,0.5\n", "line 2: need one finite"),
        ("k,coefficient\n1,0x1\n", "line 2: need one finite"),
        ('k,coefficient\n1,"0.5"5\n', "expected after"),
        ('k,coefficient\n1,"0.5\n', "unexpected end of data"),
    ], ids=["empty", "blank", "short", "long", "word", "overflow", "nan",
            "empty-field", "underscore", "arabic-digit", "hex",
            "text-after-quote", "open-quote"])
    def test_malformed_file_names_itself(self, tmp_path, text, message):
        op = explicit_spectrum([1.0])
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.csv: .*{message}"):
            load_field_csv(path, op)
