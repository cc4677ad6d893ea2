import json
import math
import os

import numpy as np
import pytest

from frstokes.cli import main
from frstokes.kernel import KernelParams, eval_A


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

    def test_missing_data_file_exit_3(self, tmp_path, capsys):
        path = forward_config(tmp_path, data={"csv": "absent.csv"})
        code, out, _ = run_cli(capsys, "solve", "--config", str(path))
        assert code == 3
        assert json.loads(out)["error"] == "ingest"

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
