import contextlib
import copy
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frstokes import cli
from frstokes.cli import REQUIRED, SCHEMA, Instead, main
from frstokes.kernel import KernelParams, eval_A, eval_dB_dt_grid
from frstokes.spectral import AliasingWarning


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_table_starts_at_unit_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "1",
            "--t-start", "0", "--t-end", "1", "--t-steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,A,B,dA_dt,dB_dt"
        assert len(lines) == 4
        t0 = lines[1].split(",")
        assert float(t0[1]) == pytest.approx(1.0, abs=1e-6)  # A(0)
        assert float(t0[2]) == pytest.approx(1.0, abs=1e-6)  # B(0)
        assert math.isnan(float(t0[4]))  # dB/dt undefined at t = 0

    def test_values_match_library_and_decrease(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "1",
            "--t-start", "0.5", "--t-end", "1.0", "--t-steps", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        p = KernelParams(0.5, 1.0, 1.0)
        assert float(rows[0][1]) == eval_A(p, 0.5)
        assert float(rows[1][1]) == eval_A(p, 1.0)
        assert float(rows[0][1]) > float(rows[1][1])

    def test_single_step_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "2",
            "--t-start", "0.3", "--t-end", "0.3", "--t-steps", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_long_table_takes_one_contour_call(self, capsys, monkeypatch):
        # A, B and dB/dt of every row come from one contour call, and the
        # adaptive density engine never runs
        from frstokes import quadrature

        calls, contour = [], cli._bromwich

        def counted(kinds, *args, **kwargs):
            calls.append(kinds)
            return contour(kinds, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the density engine ran")

        monkeypatch.setattr(cli, "_bromwich", counted)
        monkeypatch.setattr(quadrature, "_refine", refuse)
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "1",
            "--t-start", "0", "--t-end", "1", "--t-steps", "1201",
        )
        assert code == 0
        db = np.array([float(line.split(",")[4])
                       for line in out.strip().splitlines()[1:]])
        assert calls == [("A", "B", "dB")]
        assert math.isnan(db[0]) and np.all(db[1:] < 0.0)
        p = KernelParams(0.5, 1.0, 1.0)
        assert db[-1] == eval_dB_dt_grid(p, [1.0])[0][0]

    def test_table_is_per_row_17g_text(self, capsys):
        # t from 0 to 1e-5: only the t = 0 row's dB/dt, singular there, is
        # nan
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "100",
            "--t-start", "0", "--t-end", "1e-5", "--t-steps", "257",
        )
        assert code == 0
        lines = out.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert sum(math.isnan(row[4]) for row in rows) == 1
        assert math.isnan(rows[0][4])
        assert out == "\n".join(
            [lines[0]] + [",".join(f"{v:.17g}" for v in row) for row in rows]
        ) + "\n"

    @pytest.mark.parametrize("start,end", [("-1", "1"), ("0", "nan"),
                                           ("0", "inf")])
    def test_invalid_times_exit_2(self, capsys, start, end):
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "1",
            "--t-start", start, "--t-end", end, "--t-steps", "3",
        )
        assert code == 2
        assert json.loads(out.strip().splitlines()[-1])["error"] == "config"

    def test_invalid_params_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "1.5", "--gamma", "1", "--lambda", "1",
            "--t-start", "0", "--t-end", "1", "--t-steps", "2",
        )
        assert code == 2
        assert json.loads(out.strip().splitlines()[-1])["error"] == "config"

    @pytest.mark.parametrize("flag, value, code, error", [
        ("--gamma", "inf", 2, "config"),
        ("--gamma", "nan", 2, "config"),
        ("--lambda", "inf", 2, "config"),
        ("--gamma", "1e308", 4, "solver"),
        ("--lambda", "1e308", 4, "solver"),
    ], ids=["gamma-inf", "gamma-nan", "lambda-inf", "gamma-1e308",
            "lambda-1e308"])
    def test_non_finite_or_overflowing_params(self, capsys, flag, value, code,
                                              error):
        args = {"--rho": "0.5", "--gamma": "1", "--lambda": "1", flag: value}
        exit_code, out, _ = run_cli(
            capsys, "kernel", *[x for kv in args.items() for x in kv],
            "--t-start", "0", "--t-end", "1", "--t-steps", "3",
        )
        assert exit_code == code
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == error

    @pytest.mark.parametrize("flag", ["--gamma", "--lambda"])
    def test_overflow_message_names_the_flags(self, capsys, flag):
        args = {"--rho": "0.5", "--gamma": "1", "--lambda": "1",
                flag: "1e308"}
        exit_code, out, err = run_cli(
            capsys, "kernel", *[x for kv in args.items() for x in kv],
            "--t-start", "0", "--t-end", "1", "--t-steps", "3",
        )
        assert exit_code == 4 and err == ""
        (line,) = out.strip().splitlines()
        message = json.loads(line)["message"]
        assert f"{flag} 1e+308" in message
        assert all(f in message for f in ("--rho", "--gamma", "--lambda"))
        assert "overflow the float range" in message


def forward_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "forward", "rho": "0.5", "gamma": "1.0",
                    "horizon": "1.0", "time_grid": {"n_nodes": 96}},
        "operator": {"kind": "explicit_spectrum", "eigenvalues": [1.0]},
        "data": {"coefficients": [1.0]},
        "source": {"kind": "zero"},
        "output": {"trace_csv": "trace.csv", "trace_json": "trace.json",
                   "diagnostics_json": "diag.json"},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSolveCommand:
    def test_forward_single_mode_matches_kernel(self, tmp_path, capsys):
        path = forward_config(tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 0
        status = json.loads(out, parse_constant=_refuse_constant)
        assert status["status"] == "ok"
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
        p = KernelParams(0.5, 1.0, 1.0)
        t, k, c = rows[-1].split(",")
        assert float(t) == 1.0
        assert float(c) == pytest.approx(eval_A(p, 1.0), abs=1e-9)
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert "norm_H" in diag and "coercivity" in diag
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["diagnostics"] == diag

    def test_reruns_byte_identical(self, tmp_path, capsys):
        path = forward_config(tmp_path)
        run_cli(capsys, "solve", "--config", str(path), "--out-dir", str(tmp_path))
        first = (tmp_path / "trace.csv").read_bytes()
        run_cli(capsys, "solve", "--config", str(path), "--out-dir", str(tmp_path))
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_malformed_config_exit_2_no_outputs(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(out_dir))
        assert code == 2
        assert json.loads(out)["error"] == "config"
        assert not out_dir.exists() or not os.listdir(out_dir)

    @pytest.mark.parametrize("overrides, message", [
        # config sections that are not JSON objects
        (None, ""),
        ({"operator": [1.0]}, ""),
        ({"output": "trace.csv"}, ""),
        # output requests that cannot be honoured
        ({"output": {"grid_csv": {"path": "grid.csv"}}}, ""),
        ({"output": {"trace_csv": "missing/trace.csv"}}, ""),
        ({"output": {"trace_csv": "a.csv", "diagnostics_json": "a.csv"}}, ""),
        ({"output": {"diagnostics_json": "."}}, ""),
        # non-finite numbers
        ({"problem": {"kind": "forward", "rho": "0.5", "gamma": "inf",
                      "horizon": "1.0"}}, ""),
        ({"data": {"coefficients": [math.nan]}}, ""),
        ({"source": {"kind": "constant", "value": "nan"}}, ""),
        # counts that are not whole numbers, which int() would truncate
        ({"operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                       "n_modes": 2.7},
          "data": {"coefficients": [1.0, 0.5]}}, ""),
        ({"problem": {"kind": "forward", "rho": "0.5", "gamma": "1.0",
                      "horizon": "1.0", "time_grid": {"n_nodes": 16.9}}}, ""),
        ({"operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                       "n_modes": 1},
          "output": {"grid_csv": {"path": "grid.csv", "n_points": True}}}, ""),
        # quadrature keys that tuned only the lower bounds, now a fixed rule
        ({"quadrature": {"abs_tol": "1e-12"}},
         "unknown key 'quadrature.abs_tol'"),
        ({"quadrature": {"max_refinements": 30.5}},
         "unknown key 'quadrature.max_refinements'"),
        ({"quadrature": {"split_point": "0.7"}},
         "unknown key 'quadrature.split_point'"),
        # misspelled and unknown keys, named by their dotted path
        ({"source": {"kind": "constant", "valeu": 5}},
         "'source.valeu'; did you mean 'source.value'?"),
        ({"quadrature": {"rel_tl": "1e-3"}},
         "'quadrature.rel_tl'; did you mean 'quadrature.rel_tol'?"),
        ({"outptu": {"trace_csv": "trace.csv"}},
         "'outptu'; did you mean 'output'?"),
        ({"data": {"coefficient": [1.0]}},
         "'data.coefficient'; did you mean 'data.coefficients'?"),
        ({"problem": {"kind": "forward", "rho": "0.5", "gamma": "1.0",
                      "horizon": "1.0", "time_grid": {"n_node": 16}}},
         "'problem.time_grid.n_node'; did you mean "
         "'problem.time_grid.n_nodes'?"),
        ({"output": {"grid_csv": {"path": "grid.csv", "points": 3}}},
         "unknown key 'output.grid_csv.points'"),
        ({"comment": "a note"}, "unknown key 'comment'"),
        # keys of another kind, and both keys of a one-of pair
        ({"source": {"kind": "zero", "value": 5}},
         "unknown key 'source.value' for source.kind 'zero'"),
        ({"operator": {"kind": "explicit_spectrum", "eigenvalues": [1.0],
                       "length": math.pi}},
         "unknown key 'operator.length' for operator.kind "
         "'explicit_spectrum'"),
        ({"data": {"coefficients": [1.0], "csv": "data.csv"}},
         "data.coefficients or data.csv"),
        ({"source": {"kind": "sampled_csv"}}, "source.path is required"),
    ], ids=["top-level-list", "operator-list", "output-string",
            "grid-without-eigenfunctions", "missing-subdirectory",
            "colliding-outputs", "directory-output",
            "gamma-inf", "nan-coefficient", "nan-source",
            "fractional-n-modes", "fractional-n-nodes", "bool-n-points",
            "dropped-abs-tol", "dropped-max-refinements", "dropped-split-point",
            "misspelled-source-value", "misspelled-quadrature-key",
            "misspelled-section", "misspelled-data-key",
            "misspelled-time-grid-key", "unknown-grid-csv-key",
            "unknown-top-level-key", "value-under-zero-source",
            "length-under-explicit-spectrum", "coefficients-and-csv",
            "sampled-source-without-path"])
    def test_rejected_config_exit_2_no_outputs(self, tmp_path, capsys,
                                               overrides, message):
        if overrides is None:
            path = tmp_path / "config.json"
            path.write_text("[1, 2]")
        else:
            path = forward_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(out_dir))
        assert code == 2
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == "config"
        assert message in json.loads(line)["message"]
        assert os.listdir(out_dir) == []

    def test_counts_accept_whole_numbers_and_decimal_strings(self, tmp_path,
                                                             capsys):
        path = forward_config(
            tmp_path,
            problem={"kind": "forward", "rho": "0.5", "gamma": "1.0",
                     "horizon": "1.0", "time_grid": {"n_nodes": 96.0}},
            operator={"kind": "dirichlet_laplacian_1d", "length": math.pi,
                      "n_modes": "1"},
            output={"grid_csv": {"path": "grid.csv", "n_points": "3"}})
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 96 * 3

    def test_failed_last_write_leaves_no_artifacts(self, tmp_path, capsys,
                                                   monkeypatch):
        from frstokes import cli

        def disk_full(path, text):
            raise OSError(28, "No space left on device", path)

        # diagnostics.json is written last, after the trace CSV and JSON
        monkeypatch.setattr(cli, "_atomic_write", disk_full)
        path = forward_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(out_dir))
        assert code == 2
        assert json.loads(out)["error"] == "config"
        assert os.listdir(out_dir) == []

    def test_failed_write_keeps_earlier_artifacts(self, tmp_path, capsys,
                                                  monkeypatch):
        from frstokes import cli

        out_dir = tmp_path / "out"
        path = forward_config(tmp_path)
        args = ("solve", "--config", str(path), "--out-dir", str(out_dir))
        assert run_cli(capsys, *args)[0] == 0
        before = {name: (out_dir / name).read_bytes()
                  for name in os.listdir(out_dir)}

        def failing_json(trace, path):
            raise OSError(5, "Input/output error", path)

        # new data, so a trace.csv written before the failure would differ
        forward_config(tmp_path, data={"coefficients": [2.0]})
        monkeypatch.setattr(cli, "export_trace_json", failing_json)
        assert run_cli(capsys, *args)[0] == 2
        assert {name: (out_dir / name).read_bytes()
                for name in os.listdir(out_dir)} == before

    def test_kernel_failure_exit_4_no_outputs(self, tmp_path, capsys):
        # gamma = 1e308 is finite, but the contour's transforms overflow, so
        # the solution is not finite: no artifact holds it
        for kind in ("forward", "nonlocal", "backward"):
            path = forward_config(
                tmp_path, problem={"kind": kind, "rho": "0.5",
                                   "gamma": "1e308", "horizon": "1.0",
                                   "time_grid": {"n_nodes": 96}})
            out_dir = tmp_path / f"out-{kind}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, "solve", "--config",
                                         str(path), "--out-dir", str(out_dir))
            assert code == 4
            (line,) = out.strip().splitlines()
            assert json.loads(line)["error"] == "solver"
            assert "not finite" in json.loads(line)["message"]
            assert err == "" and not caught  # no numpy warning before the JSON
            assert not out_dir.exists()

    def test_overflowing_source_exit_4_without_warning(self, tmp_path, capsys):
        # manufactured_t2 squares t: at T = 1e300 its samples overflow
        path = forward_config(
            tmp_path, problem={"kind": "forward", "rho": "0.5", "gamma": "1.0",
                               "horizon": "1e300",
                               "time_grid": {"n_nodes": 512}},
            operator={"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
            data={"coefficients": [1.0, 0.5]},
            source={"kind": "manufactured_t2"})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "solve", "--config", str(path),
                                     "--out-dir", str(out_dir))
        assert code == 4
        assert json.loads(out)["error"] == "solver"
        assert "Warning" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_one_temporary_file_and_one_rename_per_artifact(self, tmp_path,
                                                            capsys, monkeypatch):
        replaced, made = [], []
        replace, os_open = os.replace, os.open

        def counted_replace(src, dst):
            replaced.append(os.path.basename(dst))
            replace(src, dst)

        def counted_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                made.append(1)
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "replace", counted_replace)
        monkeypatch.setattr(os, "open", counted_open)
        path = forward_config(
            tmp_path, operator={"kind": "dirichlet_laplacian_1d",
                                "length": "3.141592653589793", "n_modes": 3},
            data={"coefficients": [1.0, 0.5, 0.25]},
            output={"trace_csv": "trace.csv", "trace_json": "trace.json",
                    "diagnostics_json": "diag.json",
                    "grid_csv": {"path": "grid.csv", "n_points": 5}})
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(out_dir))
        assert code == 0
        names = ["trace.csv", "trace.json", "grid.csv", "diag.json"]
        assert replaced == names and len(made) == 4
        assert sorted(os.listdir(out_dir)) == sorted(names)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                             ids=["022", "077", "002"])
    def test_artifacts_take_the_mode_open_gives(self, tmp_path, capsys,
                                                umask):
        # every artifact is created 0o666 less the umask, as open() creates
        # a file, whether it is new or replaces an older one
        path = forward_config(
            tmp_path, output={"trace_csv": "trace.csv",
                              "trace_json": "trace.json",
                              "diagnostics_json": "diag.json"})
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "trace.csv").write_text("old\n")
        os.chmod(out_dir / "trace.csv", 0o640)
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                                 "--out-dir", str(out_dir))
        finally:
            os.umask(old)
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["diag.json", "trace.csv", "trace.json"]
        for name in names:
            mode = stat.S_IMODE(os.stat(out_dir / name).st_mode)
            assert mode == 0o666 & ~umask, name

    @pytest.mark.parametrize("horizon,code", [
        ("1e-300", 4), ("1e-200", 4), ("1e300", 0)])
    def test_extreme_horizons_finite_or_exit_4(self, tmp_path, capsys,
                                               horizon, code):
        # at T = 1e-300 and 1e-200 the finite differences of the diagnostics
        # divide by spacings whose squares underflow: the diagnostics are
        # not finite, so nothing is written.  At 1e300 every artifact is
        # strict JSON.  No run warns
        path = forward_config(
            tmp_path, problem={"kind": "forward", "rho": "0.5", "gamma": "1.0",
                               "horizon": horizon,
                               "time_grid": {"n_nodes": 512}},
            operator={"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
            data={"coefficients": [1.0, 0.5]})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exit_code, out, err = run_cli(capsys, "solve", "--config",
                                          str(path), "--out-dir", str(out_dir))
        assert exit_code == code
        assert "Warning" not in err and not caught
        if code == 4:
            assert json.loads(out)["error"] == "solver"
            assert not out_dir.exists() or not any(out_dir.iterdir())
            return

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        for name in ("trace.json", "diag.json"):
            json.loads((out_dir / name).read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("rho", ["3e-3", "1e-3", "1e-4", "1e-6"])
    def test_backward_at_tiny_rho(self, tmp_path, capsys, rho):
        # the lower bound of A is finite for every rho
        path = forward_config(
            tmp_path, problem={"kind": "backward", "rho": rho,
                               "gamma": "1.0", "horizon": "1.0",
                               "time_grid": {"n_nodes": 8}})
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert 0.0 < diag["lower_bound_A"] < 1.0

    @pytest.mark.parametrize("lam", [1.0, 100.0, 1e4])
    def test_forward_at_tiny_rho_matches_limit(self, tmp_path, capsys, lam):
        # rho -> 0: A = gamma / (1 + gamma) + exp(-lam (1 + gamma) t) / (1 + gamma)
        path = forward_config(
            tmp_path, problem={"kind": "forward", "rho": "1e-6",
                               "gamma": "1.0", "horizon": "1.0",
                               "time_grid": {"n_nodes": 8}},
            operator={"kind": "explicit_spectrum", "eigenvalues": [lam]})
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 0
        rows = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)
        t, u = rows[:, 0], rows[:, 2]
        limit = 0.5 + 0.5 * np.exp(-2.0 * lam * t)
        assert np.max(np.abs(u - limit)) < 1e-5

    def test_missing_data_file_exit_3(self, tmp_path, capsys):
        path = forward_config(tmp_path, data={"csv": "absent.csv"})
        code, out, _ = run_cli(capsys, "solve", "--config", str(path))
        assert code == 3
        assert json.loads(out)["error"] == "ingest"

    @pytest.mark.parametrize("name, text, section", [
        ("data.csv", "k,coefficient\n1,nan\n",
         {"data": {"csv": "data.csv"}}),
        ("data.csv", "x,value\n0,0\n1.5,inf\n3.141592653589793,0\n",
         {"data": {"csv": "data.csv"},
          "operator": {"kind": "dirichlet_laplacian_1d",
                       "length": math.pi, "n_modes": 1}}),
        ("source.csv", "t,f1\n0,nan\n1,nan\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
        ("source.csv", "t,f1\n0,0.5\n1,abc\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
        ("data.csv", "k,coefficient\n1,0.5\n1,0.7\n",
         {"data": {"csv": "data.csv"}}),
        ("source.csv", "t,f1\n0,1\n0.5,1\n0.5,2\n1,1\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
        ("source.csv", "", {"source": {"kind": "sampled_csv",
                                       "path": "source.csv"}}),
        ("source.csv", "\n  \n", {"source": {"kind": "sampled_csv",
                                             "path": "source.csv"}}),
        ("data.csv", "x,value\n",
         {"data": {"csv": "data.csv"},
          "operator": {"kind": "dirichlet_laplacian_1d",
                       "length": math.pi, "n_modes": 1}}),
        ("source.csv", "t,f1\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
        ("source.csv", "t,f2\n0,1\n1,2\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
        ("source.csv", "t,f2,f1\n0,1,2\n1,2,3\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"},
          "operator": {"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
          "data": {"coefficients": [1.0, 0.0]}}),
        ("source.csv", "t,banana,x\n0,1,2\n1,2,3\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"},
          "operator": {"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
          "data": {"coefficients": [1.0, 0.0]}}),
        ("data.csv", "k,coefficient\n1,1_0\n",
         {"data": {"csv": "data.csv"}}),
        ("source.csv", "t,f1\n0,1\n\u0661,2\n",
         {"source": {"kind": "sampled_csv", "path": "source.csv"}}),
    ], ids=["nan-coefficient", "inf-sample", "nan-source", "text-source",
            "duplicate-mode", "unordered-times", "empty-source",
            "blank-source", "header-only-data", "header-only-source",
            "misnamed-mode-column", "swapped-mode-columns",
            "unnamed-mode-columns", "underscore-number", "arabic-digit"])
    def test_non_finite_ingest_exit_3_no_outputs(self, tmp_path, capsys,
                                                 name, text, section):
        (tmp_path / name).write_text(text)
        path = forward_config(tmp_path, **section)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve", "--config", str(path),
                                     "--out-dir", str(out_dir))
        assert code == 3
        assert err == "" and not caught
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == "ingest"
        assert os.listdir(out_dir) == []

    def test_nonlocal_gap_surfaced(self, tmp_path, capsys):
        path = forward_config(
            tmp_path,
            problem={"kind": "nonlocal", "rho": "0.5", "gamma": "1.0",
                     "horizon": "1.0", "time_grid": {"n_nodes": 96}},
            operator={"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
            data={"coefficients": [1.0, 0.25]},
            source={"kind": "constant", "value": "0.5"},
        )
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        diag = json.loads((tmp_path / "diag.json").read_text())
        assert diag["nonlocal_gap"] <= 1e-6

    def test_manufactured_source_builtin(self, tmp_path, capsys):
        path = forward_config(
            tmp_path,
            operator={"kind": "explicit_spectrum", "eigenvalues": [1.0, 2.0]},
            data={"coefficients": [0.0, 0.0]},
            source={"kind": "manufactured_t2"},
        )
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        nodes = np.array(payload["nodes"])
        fields = np.array(payload["fields"])
        assert np.max(np.abs(fields - nodes[:, None] ** 2)) < 1e-4

    def test_sampled_source_csv(self, tmp_path, capsys):
        dense = np.linspace(0.0, 1.0, 2001)
        lines = ["t,f1"] + [f"{t:.17g},{0.5:.17g}" for t in dense]
        (tmp_path / "source.csv").write_text("\n".join(lines) + "\n")
        path = forward_config(
            tmp_path,
            data={"coefficients": [0.0]},
            source={"kind": "sampled_csv", "path": "source.csv"},
        )
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
        final = float(rows[-1].split(",")[2])
        p = KernelParams(0.5, 1.0, 1.0)
        assert final == pytest.approx(0.5 * (1.0 - eval_A(p, 1.0)), abs=1e-7)

    def test_dirichlet_grid_export(self, tmp_path, capsys):
        path = forward_config(
            tmp_path,
            operator={"kind": "dirichlet_laplacian_1d", "length": math.pi,
                      "n_modes": 2},
            data={"coefficients": [1.0, 0.0]},
            output={"trace_csv": "trace.csv",
                    "grid_csv": {"path": "grid.csv", "n_points": 9}},
        )
        code, _, _ = run_cli(capsys, "solve", "--config", str(path),
                             "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x,u"


class TestMemoryAdmission:
    """Commands whose estimated peak passes cli.MEMORY_CEILING exit 2 before
    they allocate; only the estimates see the large counts here."""

    def test_estimates_refuse_counts_that_exhaust_memory(self):
        ceiling = cli.MEMORY_CEILING
        # a 1e8-row kernel table passed 5.4 GB before printing anything
        assert cli.kernel_table_bytes(10 ** 8) > ceiling
        # a zero source is the cheapest kind
        assert cli.solve_bytes(10 ** 9, 2, 0, False, "zero") > ceiling
        assert cli.solve_bytes(16, 10 ** 9, 0, False, "zero") > ceiling
        assert cli.solve_bytes(16, 2, 10 ** 9, False, "zero") > ceiling
        assert cli.solve_bytes(10 ** 6, 1, 0, True, "zero") > ceiling
        assert cli.solve_bytes(int(1e300), int(1e300), 0, True,
                               "zero") == math.inf
        assert cli.convergence_bytes([10, 10 ** 10]) > ceiling
        # the benchmark's largest solves and tables stay well inside
        assert cli.solve_bytes(4096, 32, 0, False, "zero") < ceiling / 50
        assert cli.solve_bytes(2048, 16, 101, False, "zero") < ceiling / 50
        assert cli.solve_bytes(2048, 16, 101, True, "zero") < ceiling / 20
        assert cli.solve_bytes(1024, 8, 0, False, "constant") < ceiling / 50
        assert cli.solve_bytes(512, 4, 0, False,
                               "manufactured_t2") < ceiling / 50
        assert cli.kernel_table_bytes(10 ** 5) < ceiling / 50

    def test_estimates_charge_the_lattice_by_source_kind(self):
        # a zero source builds no lattice, a constant one samples it, and a
        # source that can move also takes Phi a block of modes at a time
        n, k = 512, 4000
        kinds = ("zero", "constant", "sampled_csv", "manufactured_t2")
        uniform = [cli.solve_bytes(n, k, 0, False, kind) for kind in kinds]
        assert uniform[0] < uniform[1] < uniform[2] == uniform[3]
        # a zero-source 512 x 4000 solve peaked at 70 MB (tracemalloc)
        assert uniform[0] < cli.MEMORY_CEILING
        # off a uniform grid every mode of a forced solve moves
        dense = [cli.solve_bytes(n, k, 0, True, kind) for kind in kinds]
        assert dense[1] == dense[2] == dense[3] > uniform[3]
        # the Phi block stops growing at LATTICE_BLOCK modes
        block = [cli.solve_bytes(n, m, 0, False, "sampled_csv")
                 - cli.solve_bytes(n, m, 0, False, "constant")
                 for m in (cli.LATTICE_BLOCK, 2 * cli.LATTICE_BLOCK)]
        assert block[0] == block[1] > 0

    def test_estimates_cover_measured_peaks(self, tmp_path):
        nodes = [0.0] + np.geomspace(1e-3, 1.0, 767).tolist()
        runs = [
            (["kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "100",
              "--t-start", "0", "--t-end", "1", "--t-steps", "20000"],
             cli.kernel_table_bytes(20000)),
            (["convergence", "--config", _written(tmp_path / "conv.json", {
                "target": "manufactured", "dts": ["5e-5"]})],
             cli.convergence_bytes([20000])),
            # 100 000 steps: the last Newton step's transform length, 100 000,
            # is not a power of two
            (["convergence", "--config", _written(tmp_path / "kernel.json", {
                "target": "kernel", "dts": ["1e-5"]})],
             cli.convergence_bytes([100000])),
        ]
        # the lattice of a moving source holds more than one LATTICE_BLOCK
        many = 4 * cli.LATTICE_BLOCK
        for name, grid, points, dense, n_modes, source in (
                ("uniform", {"n_nodes": 1024}, 50, False, 16, "constant"),
                ("dense", {"nodes": nodes}, 0, True, 16, "constant"),
                ("zero", {"n_nodes": 1024}, 0, False, 16, "zero"),
                ("many-zero", {"n_nodes": 256}, 0, False, many, "zero"),
                ("many-moving", {"n_nodes": 256}, 0, False, many,
                 "manufactured_t2")):
            cfg = copy.deepcopy(FUZZ_CONFIG)
            cfg["problem"]["time_grid"] = grid
            cfg["operator"]["n_modes"] = n_modes
            cfg["data"]["coefficients"] = [1.0] * n_modes
            cfg["source"] = {"kind": source}
            cfg["output"]["grid_csv"]["n_points"] = points or 5
            out = tmp_path / name
            out.mkdir()
            runs.append((["solve", "--config", _written(out / "c.json", cfg),
                          "--out-dir", str(out)],
                         cli.solve_bytes(len(nodes) if dense
                                         else grid["n_nodes"], n_modes,
                                         points or 5, dense, source)))
        for argv, estimate in runs:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < estimate, argv[0]

    @pytest.mark.parametrize("command", ["kernel", "solve", "convergence"])
    def test_over_the_ceiling_exit_2_before_allocating(self, command, tmp_path,
                                                       capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the admission check")

        monkeypatch.setattr(cli, "MEMORY_CEILING", 100)
        for name in ("_bromwich", "uniform_grid", "explicit_spectrum",
                     "dirichlet_laplacian_1d", "L1Grid"):
            monkeypatch.setattr(cli, name, refuse)
        argv = {
            "kernel": ["kernel", "--rho", "0.5", "--gamma", "1", "--lambda",
                       "1", "--t-start", "0", "--t-end", "1", "--t-steps", "8"],
            "solve": ["solve", "--config", str(forward_config(tmp_path)),
                      "--out-dir", str(tmp_path / "out")],
            "convergence": ["convergence", "--config", _written(
                tmp_path / "conv.json", {"dts": ["0.5"]})],
        }[command]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        message = json.loads(out)["message"]
        assert "needs an estimated" in message and "ceiling of 100" in message
        assert not (tmp_path / "out").exists()


def _written(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


FUZZ_CONFIG = {
    "problem": {"kind": "forward", "rho": "0.5", "gamma": "1.0",
                "horizon": "1.0", "time_grid": {"n_nodes": 16}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": 2},
    "data": {"coefficients": [1.0, 0.5]},
    "source": {"kind": "constant", "value": "0.5"},
    "output": {"trace_csv": "trace.csv", "trace_json": "trace.json",
               "diagnostics_json": "diagnostics.json",
               "grid_csv": {"path": "grid.csv", "n_points": 5}},
    "quadrature": {"rel_tol": "1e-8"},
}
# the other kinds: an explicit spectrum (no length) and a zero source
FUZZ_CONFIG_SPECTRUM = {
    "problem": {"kind": "nonlocal", "rho": "0.5", "gamma": "1.0",
                "horizon": "1.0", "time_grid": {"nodes": [0, 0.5, 1]}},
    "operator": {"kind": "explicit_spectrum", "eigenvalues": [1.0, 4.0]},
    "data": {"coefficients": [1.0, 0.5]},
    "source": {"kind": "zero"},
}
FUZZ_CONVERGENCE = {"target": "manufactured", "rho": "0.5", "gamma": "1.0",
                    "lambda": "2.0", "horizon": "1.0", "dts": ["0.1", "0.05"]}
# extreme magnitudes, and a count whose grid the memory admission check
# refuses before anything is allocated
FUZZ_VALUES = [None, True, -1, 0, 3, 1e-6, "abc", "nan", "1e400", ".", [], {},
               1e-300, 1e300, 10 ** 9]


def _schema_paths(command):
    """Every key path of the schema, sections included, and an unknown key
    at the top level and in every section."""
    paths = {tuple(key.path.split("."))[:i] for key in SCHEMA[command]
             for i in range(1, key.path.count(".") + 2)}
    sections = {path[:-1] for path in paths}
    return sorted(paths) + sorted(s + ("no_such_key",) for s in sections)


def _assert_exit_contract(command, cfg, inputs=()):
    # a known exit code, one JSON document on stdout (one line, except a
    # convergence report) and no file left behind by a failure; inputs maps
    # the names of input files beside the config to their text
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        for name in inputs:
            with open(os.path.join(tmp, name), "w", newline="",
                      encoding="utf-8") as fh:
                fh.write(inputs[name])
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", config, "--out-dir", out_dir]
                        if command == "solve" else
                        [command, "--config", config])
        assert code in (0, 2, 3, 4)
        assert isinstance(json.loads(stdout.getvalue()), dict)
        if code != 0 or command == "solve":
            (line,) = stdout.getvalue().splitlines()
        if code != 0:
            assert os.listdir(out_dir) == []
            assert sorted(os.listdir(tmp)) == sorted(["config.json", "out",
                                                      *inputs])
        elif command == "solve":  # strict JSON: no NaN or Infinity
            files = json.loads(stdout.getvalue())["files"]
            for key in ("trace_json", "diagnostics_json"):
                if key in files:
                    with open(os.path.join(out_dir, files[key])) as fh:
                        json.load(fh, parse_constant=_refuse_constant)
        return code


def _refuse_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


def _mutated(base, path, value):
    cfg = copy.deepcopy(base)
    table = cfg
    for key in path[:-1]:
        table = table.setdefault(key, {})
    table[path[-1]] = value
    return cfg


@settings(derandomize=True, deadline=None, max_examples=250)
@given(st.sampled_from([FUZZ_CONFIG, FUZZ_CONFIG_SPECTRUM]),
       st.sampled_from(_schema_paths("solve")), st.sampled_from(FUZZ_VALUES))
def test_mutated_config_keeps_exit_contract(base, path, value):
    # one key of a valid config set, known or not, to an arbitrary value
    code = _assert_exit_contract("solve", _mutated(base, path, value))
    assert code == 2 or path[-1] != "no_such_key"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(_schema_paths("convergence")),
       st.sampled_from(FUZZ_VALUES))
def test_mutated_convergence_config_keeps_exit_contract(path, value):
    code = _assert_exit_contract("convergence",
                                 _mutated(FUZZ_CONVERGENCE, path, value))
    assert code == 2 or path[-1] != "no_such_key"


# a forward solve on 70 nodes (the diagnostics need 64 interior ones) and one
# mode, whose data or source is read from input.csv
CSV_FUZZ_CONFIG = {
    "problem": {"kind": "forward", "rho": "0.5", "gamma": "1.0",
                "horizon": "1.0", "time_grid": {"n_nodes": 70}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": 1},
    "data": {"coefficients": [1.0]},
}
# per target: the config section naming input.csv and the headers it reads
CSV_TARGETS = {
    "data": ({"csv": "input.csv"},
             ["x,value", "K, Coefficient", "\ufeffk,coefficient"]),
    "source": ({"kind": "sampled_csv", "path": "input.csv"},
               ["t,f1", "T,F1", "#t,f1", "\ufefft,f1"]),
}
# numbers, quoted or padded ones among them, and lines of two of them with
# or without a comment; and lines of any tokens: header names, numbers, what
# is not a finite ASCII decimal number, words, quotes and comments, where an
# empty token makes an empty field or a blank line
CSV_NUMBERS = ["0", "1", "1.0", "2", "0.5", "-3", "3.141592653589793",
               '"0.5"', " 2 "]
CSV_TOKENS = CSV_NUMBERS + ["x", "value", "k", "coefficient", "t", "f1", "T",
                            "f2", "nan", "inf", "1e400", "1_0", "\u0661",
                            "abc", '"', "#", "# note", " ", ""]
csv_line = st.lists(st.sampled_from(CSV_TOKENS), max_size=3).map(",".join)
csv_numbers = st.builds(lambda a, b, note: f"{a},{b}{note}",
                        st.sampled_from(CSV_NUMBERS),
                        st.sampled_from(CSV_NUMBERS),
                        st.sampled_from(["", " # note", "#"]))


def csv_text(headers):
    return st.builds(
        lambda head, rows, end, newline: newline.join([head, *rows]) + end,
        st.sampled_from(headers) | csv_line,
        st.lists(csv_numbers | csv_line, max_size=5),
        st.sampled_from(["", "\n"]), st.sampled_from(["\n", "\r\n"]))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(sorted(CSV_TARGETS)).flatmap(
    lambda target: st.tuples(st.just(target),
                             csv_text(CSV_TARGETS[target][1]))))
def test_any_input_csv_solves_or_exits_3(example):
    # a malformed data or source file is a fault of the file: exit 3, one
    # JSON line and no file written; only a coarse x,value grid may warn
    target, text = example
    cfg = dict(CSV_FUZZ_CONFIG, **{target: CSV_TARGETS[target][0]})
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = _assert_exit_contract("solve", cfg, {"input.csv": text})
    assert code in (0, 3)
    assert stderr.getvalue() == ""
    assert all(w.category is AliasingWarning for w in caught), caught


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        # identities reports numpy booleans internally; the JSON must not
        # care, and a passing report is strict JSON
        for suite in ("kernel-initial", "identities", "limit"):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite)
            assert code == 0
            report = json.loads(out, parse_constant=_refuse_constant)
            assert report["passed"]

    def test_fault_injection_exits_1(self, capsys, monkeypatch):
        from frstokes.verification import SUITES, CheckResult

        # a suite whose one check fails by 1.0
        monkeypatch.setitem(SUITES, "kernel-initial", lambda: [
            CheckResult.from_worst("kernel-initial", "injected", 0.0, 1.0)])
        code, out, err = run_cli(capsys, "verify", "--suite", "kernel-initial")
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        assert "kernel-initial" in err

    def test_a_nan_kernel_value_exits_1(self, capsys, monkeypatch):
        # every contour value at t > 0 NaN: limit reads two of them from
        # one contour call, and its NaN margin prints as null in one strict
        # JSON document
        from frstokes import kernel

        contour = kernel._bromwich

        def poisoned(kinds, rho, gamma, lam, ts, *args, **kwargs):
            values, errors = contour(kinds, rho, gamma, lam, ts, *args,
                                     **kwargs)
            return np.where(np.asarray(ts)[:, None] > 0.0, np.nan,
                            values), errors

        monkeypatch.setattr(kernel, "_bromwich", poisoned)
        code, out, err = run_cli(capsys, "verify", "--suite", "limit")
        assert code == 1
        report = json.loads(out, parse_constant=_refuse_constant)
        (check,) = report["checks"]
        assert check["margin"] is None and check["passed"] is False
        assert '"margin": null' in out and '"passed": false' in out
        assert not report["passed"]
        assert "limit:classical-relaxation" in err

    @pytest.mark.parametrize("suite", ("manufactured", "nonlocal", "backward",
                                       "coercivity", "residual"))
    def test_solver_suite_rerun_prints_the_same_bytes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert run_cli(capsys, "verify", "--suite", suite)[:2] == (code, out)

    def test_help_lists_only_the_suite_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert "--suite" in out and "--tolerance-override" not in out


class TestConvergenceCommand:
    def test_kernel_target_table(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({
            "target": "kernel", "rho": "0.5", "gamma": "1.0", "lambda": "1.0",
            "horizon": "1.0", "dts": ["1e-2", "5e-3", "2.5e-3"],
        }))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        errors = report["errors"]
        assert errors[0] > errors[1] > errors[2]
        assert report["richardson"]["order_reliable"]

    def test_manufactured_target(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({
            "target": "manufactured", "rho": "0.5", "gamma": "1.0",
            "lambda": "2.0", "dts": ["1e-2", "1e-3"],
        }))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["errors"][1] < report["errors"][0]

    @pytest.mark.parametrize("key", ["gamma", "lambda"])
    def test_non_finite_run_exit_4(self, tmp_path, capsys, key):
        # finite inputs whose kernel and steps overflow
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({"target": "kernel", key: "1e308",
                                   "dts": ["0.1", "0.05"]}))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 4
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == "solver"

    @pytest.mark.parametrize("cfg", [
        {"lambda": "1e300", "horizon": "1e10", "dts": ["1e9", "5e8"]},
        {"horizon": "1e300", "dts": ["1e299", "5e298"]},
    ], ids=["source", "reference"])
    def test_overflowing_manufactured_run_exit_4(self, tmp_path, capsys, cfg):
        # lam t^2 overflows in the source samples, which the oracle refuses,
        # or T^2 in the reference: either exits 4 with no traceback and no
        # numpy warning
        path = tmp_path / "conv.json"
        path.write_text(json.dumps({"target": "manufactured", **cfg}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "convergence", "--config",
                                     str(path))
        assert code == 4 and err == ""
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == "solver"

    def test_empty_dts_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({"target": "kernel", "dts": []}))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("cfg, dt", [
        ({"dts": [5.0]}, "5.0"),   # no whole step fits the horizon
        ({"target": "manufactured", "dts": [0.3, 0.15]}, "0.3"),  # ends at 0.9
        ({"horizon": "2", "dts": ["0.5", "0.3"]}, "0.3"),
        ({"dts": [0.1, -0.05]}, "-0.05"),
    ], ids=["longer-than-horizon", "overshooting", "second-step", "negative"])
    def test_step_that_misses_the_horizon_exit_2(self, tmp_path, capsys, cfg,
                                                 dt):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "convergence", "--config", str(path))
        assert code == 2 and err == ""
        (line,) = out.strip().splitlines()
        message = json.loads(line)["message"]
        assert message.startswith(f"dts: {dt} ") and "horizon" in message


def _schema_row(command, key):
    """The README config-table row of one schema key."""
    types = {"number": "number", "count": "count",
             "numbers": "list of numbers",
             "name": "file name", "path": "input file", "table": "table"}
    kind = (f"`{key.path.rpartition('.')[0]}.kind` = `{key.kind}`"
            if key.kind else "")
    if key.default is REQUIRED:
        default = "required"
    elif isinstance(key.default, Instead):
        default = f"instead of `{key.default.key}`"
    elif key.default is None:
        default = "none"
    else:
        default = f"`{json.dumps(key.default)}`"
    return [command, f"`{key.path}`",
            types.get(key.type) or ", ".join(f"`{c}`" for c in key.type),
            default, kind]


def test_readme_config_table_matches_schema():
    # the documented keys, types, defaults and kinds are the parsed ones
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| command | key | type | default | applies to |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows == [_schema_row(command, key) for command in SCHEMA
                    for key in SCHEMA[command]]


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; a fresh interpreter shows it
    import frstokes

    src = os.path.dirname(os.path.dirname(os.path.abspath(frstokes.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, frstokes.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
