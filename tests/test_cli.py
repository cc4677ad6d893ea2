import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frstokes.cli import main
from frstokes.kernel import KernelParams, eval_A, eval_dB_dt, eval_dB_dt_grid


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

    def test_long_table_bounds_derivative_batches(self, capsys, monkeypatch):
        from frstokes import cli

        sizes = []

        def counted(p, ts, *args, **kwargs):
            sizes.append(np.size(ts))
            return eval_dB_dt_grid(p, ts, *args, **kwargs)

        monkeypatch.setattr(cli, "eval_dB_dt_grid", counted)
        code, out, _ = run_cli(
            capsys, "kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "1",
            "--t-start", "0", "--t-end", "1", "--t-steps", "1201",
        )
        assert code == 0
        db = np.array([float(line.split(",")[4])
                       for line in out.strip().splitlines()[1:]])
        assert sizes == [600, 600]  # every row but t = 0, in two batches
        assert math.isnan(db[0]) and np.all(db[1:] < 0.0)
        p = KernelParams(0.5, 1.0, 1.0)
        assert db[-1] == pytest.approx(eval_dB_dt(p, 1.0), rel=1e-7)

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

    @pytest.mark.parametrize("overrides", [
        # config sections that are not JSON objects
        None,
        {"operator": [1.0]},
        {"output": "trace.csv"},
        # output requests that cannot be honoured
        {"output": {"grid_csv": {"path": "grid.csv"}}},
        {"output": {"trace_csv": "missing/trace.csv"}},
        {"output": {"trace_csv": "a.csv", "diagnostics_json": "a.csv"}},
        {"output": {"diagnostics_json": "."}},
        # non-finite numbers
        {"problem": {"kind": "forward", "rho": "0.5", "gamma": "inf",
                     "horizon": "1.0"}},
        {"data": {"coefficients": [math.nan]}},
        {"source": {"kind": "constant", "value": "nan"}},
    ], ids=["top-level-list", "operator-list", "output-string",
            "grid-without-eigenfunctions", "missing-subdirectory",
            "colliding-outputs", "directory-output",
            "gamma-inf", "nan-coefficient", "nan-source"])
    def test_rejected_config_exit_2_no_outputs(self, tmp_path, capsys,
                                               overrides):
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
        assert os.listdir(out_dir) == []

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
        # at rho = 1e-6 the substitution r = x^(1/rho) of the density engine
        # underflows in the lower bound of A that a backward solve needs
        path = forward_config(
            tmp_path, problem={"kind": "backward", "rho": "1e-6",
                               "gamma": "1.0", "horizon": "1.0",
                               "time_grid": {"n_nodes": 8}})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve", "--config", str(path),
                                     "--out-dir", str(out_dir))
        assert code == 4
        (line,) = out.strip().splitlines()
        assert json.loads(line)["error"] == "solver"
        assert err == "" and not caught  # no numpy warning before the JSON
        assert not out_dir.exists()

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
    ], ids=["nan-coefficient", "inf-sample", "nan-source", "text-source"])
    def test_non_finite_ingest_exit_3_no_outputs(self, tmp_path, capsys,
                                                 name, text, section):
        (tmp_path / name).write_text(text)
        path = forward_config(tmp_path, **section)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, _ = run_cli(capsys, "solve", "--config", str(path),
                               "--out-dir", str(out_dir))
        assert code == 3
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
    "quadrature": {"rel_tol": "1e-8", "max_refinements": 30},
}
# no large counts: a huge n_nodes or n_modes exhausts memory before any
# admission check could reject it
FUZZ_VALUES = [None, True, -1, 0, 3, 1e-6, "abc", "nan", "1e400", ".", [], {}]


def _key_paths(table, prefix=()):
    for key, value in table.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(list(_key_paths(FUZZ_CONFIG))),
       st.sampled_from(FUZZ_VALUES))
def test_mutated_config_keeps_exit_contract(path, value):
    # one key of a valid config replaced: a known exit code, one JSON line
    # on stdout, and no file left behind by a failure
    cfg = copy.deepcopy(FUZZ_CONFIG)
    table = cfg
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["solve", "--config", config, "--out-dir", out_dir])
        assert code in (0, 2, 3, 4)
        (line,) = stdout.getvalue().splitlines()
        assert isinstance(json.loads(line), dict)
        if code != 0:
            assert os.listdir(out_dir) == []
            assert sorted(os.listdir(tmp)) == ["config.json", "out"]


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        # identities reports numpy booleans internally; the JSON must not care
        for suite in ("kernel-initial", "identities"):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite)
            assert code == 0
            report = json.loads(out)
            assert report["passed"]

    def test_fault_injection_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "kernel-initial",
                                 "--tolerance-override", "0")
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        assert "kernel-initial" in err


class TestConvergenceCommand:
    def test_kernel_target_table(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({
            "target": "kernel", "rho": "0.5", "gamma": "1.0", "lambda": "1.0",
            "horizon": "1.0", "dts": ["1e-2", "5e-3", "2.5e-3"],
        }))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
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
        report = json.loads(out)
        assert report["errors"][1] < report["errors"][0]

    def test_empty_dts_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps({"target": "kernel", "dts": []}))
        code, out, _ = run_cli(capsys, "convergence", "--config", str(cfg))
        assert code == 2


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
