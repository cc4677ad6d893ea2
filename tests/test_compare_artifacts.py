import contextlib
import importlib.util
import io
import json
import pathlib

import numpy as np
import pytest

from frstokes import cli, oracle, solvers

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "compare_artifacts.py")
spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)
difference = compare_artifacts.difference


def test_identical_and_other_text():
    assert difference("t,k\n0.5,1\n", "t,k\n0.5,1\n") == "identical"
    assert difference("lam=1", "mu=1") == "text differs"
    assert difference("1 2", "1 2 3") == "text differs"


def test_largest_difference_names_its_line_and_the_largest_relative_one():
    # a worst-case label moving on line 3 outweighs the margin on line 2;
    # alone, the margin is 2e-12 absolute and 2e-9 relative
    parent = "check 1.0\nmargin 0.001\nworst at lam=1\n"
    change = "check 1.0\nmargin 0.001000000002\nworst at lam=10000\n"
    assert difference(parent, change) == (
        "largest absolute difference 9.999e+03 at line 3, "
        "largest relative difference 9.999e-01")
    assert difference("x 0.001\ny 3", "x 0.001000000002\ny 3") == (
        "largest absolute difference 2.000e-12 at line 1, "
        "largest relative difference 2.000e-09")


def test_non_finite_differences_are_infinite():
    assert difference("a 1\nb inf\n", "a 1\nb nan\n") == (
        "largest absolute difference inf at line 2, "
        "largest relative difference inf")


def test_pinned_solve_writes_a_forced_trace_json_on_explicit_nodes(tmp_path):
    config = compare_artifacts.SOLVE_CONFIG
    nodes = np.array(config["problem"]["time_grid"]["nodes"])
    assert nodes.size == compare_artifacts.SOLVE_NODES
    assert nodes[0] == 0.0 and nodes[-1] == config["problem"]["horizon"]
    assert not oracle._is_uniform(nodes)
    assert config["source"]["kind"] == "constant"
    # an exit code other than 0 would compare identical on both trees
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "--config", str(path),
                         "--out-dir", str(tmp_path)])
    assert code == 0
    fields = json.loads((tmp_path / "trace.json").read_text())["fields"]
    # the coefficient matrix is one float leaf of EXPORT_BLOCK cells or more
    assert len(fields) * len(fields[0]) >= solvers.EXPORT_BLOCK


def test_pinned_csv_solve_reads_its_files(tmp_path):
    config = compare_artifacts.SOLVE_CSV_CONFIG
    inputs = compare_artifacts.SOLVE_CSV_INPUTS
    assert compare_artifacts.SOLVES["solve-csv"] == (config, inputs)
    assert "\r\n\r\n" in inputs["data.csv"]
    assert "\n# note\n" in inputs["source.csv"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for name, text in inputs.items():
        (tmp_path / name).write_bytes(text.encode())
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "--config", str(path),
                         "--out-dir", str(tmp_path)])
    assert code == 0
    fields = np.array(json.loads((tmp_path / "trace.json").read_text())
                      ["fields"])
    # mode 2 is absent from data.csv; the source forces it
    assert fields[0].tolist() == [1.0, 0.0, -0.25]
    assert np.all(np.isfinite(fields)) and fields[-1, 1] != 0.0
    # the grid export synthesizes those coefficients, so both trees'
    # grid.csv compare the sum over a zero and a negative term
    grid_csv = config["output"]["grid_csv"]
    grid = (tmp_path / grid_csv["path"]).read_text()
    assert grid.count("\n") == 1 + len(fields) * grid_csv["n_points"]


def test_pinned_many_mode_solve_takes_lattice_blocks_and_is_admitted():
    # the many-mode solve is forced on a uniform grid, and its moving modes
    # fill several blocks of the lattice convolution; it is admitted, so
    # both trees run it rather than both exiting 2
    config, inputs = compare_artifacts.SOLVES["solve-modes"]
    assert inputs == {}
    problem, operator = config["problem"], config["operator"]
    n_modes = operator["n_modes"]
    assert config["source"]["kind"] == "manufactured_t2"
    assert "n_nodes" in problem["time_grid"]
    assert n_modes == compare_artifacts.MANY_MODES > 8 * solvers.LATTICE_BLOCK
    assert len(config["data"]["coefficients"]) == n_modes
    assert cli.solve_bytes(problem["time_grid"]["n_nodes"], n_modes, 0, False,
                           "manufactured_t2") < cli.MEMORY_CEILING


def test_pinned_kernel_convergence_marches_100000_steps(tmp_path, capsys):
    # the benchmark's kernel target: its finest step is a 100 000-step
    # zero-source march, and its report is finite, so both trees print one
    config = compare_artifacts.CONVERGENCES["convergence-kernel"]
    assert config["target"] == "kernel"
    assert (config["rho"], config["gamma"], config["lambda"]) == (
        "0.3", "0.5", "1")
    assert [float(dt) for dt in config["dts"]] == [4e-5, 2e-5, 1e-5]
    assert round(float(config["horizon"]) / float(config["dts"][-1])) == 100_000
    path = tmp_path / "convergence.json"
    path.write_text(json.dumps(config))
    assert cli.main(["convergence", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(report["values"] + report["observed_orders"]))


@pytest.mark.parametrize("name", ["solve-graded", "solve-lattice-points"])
def test_pinned_graded_solves_move_on_explicit_nodes(name, tmp_path):
    # forced by a moving source on explicit nodes, so the direct node sums
    # do arithmetic; the second pin has 63 interior nodes on lattice points
    config, inputs = compare_artifacts.SOLVES[name]
    assert inputs == {}
    assert config["source"]["kind"] == "manufactured_t2"
    problem = config["problem"]
    nodes = np.array(problem["time_grid"]["nodes"])
    assert nodes[0] == 0.0 and nodes[-1] == problem["horizon"]
    assert np.all(np.diff(nodes) > 0.0) and not oracle._is_uniform(nodes)
    lattice = np.linspace(0.0, problem["horizon"],
                          solvers.LATTICE_MIN_CELLS + 1)
    on_lattice = np.isin(nodes[1:-1], lattice).sum()
    if name == "solve-lattice-points":
        reference = np.unique(np.concatenate((np.linspace(0.0, 1.0, 65),
                                              np.geomspace(1e-4, 1e-2, 20))))
        assert nodes.size == reference.size
        assert np.allclose(nodes, reference, rtol=1e-14, atol=0.0)
        assert config["operator"]["n_modes"] == 16
        assert on_lattice == 63
    else:
        assert on_lattice == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "--config", str(path),
                         "--out-dir", str(tmp_path)])
    # an exit code other than 0 would compare identical on both trees
    assert code == 0
