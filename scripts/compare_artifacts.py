#!/usr/bin/env python3
"""Compare the artifacts two source trees write for the benchmark's solves.

    python3 scripts/compare_artifacts.py PARENT_TREE CHANGE_TREE [--seeds 7 11]

For each tree, a fresh interpreter with that tree's ``src`` and
``perfbench`` on its path runs every solve-unforced and solve-forced
operation: ``workloads.generate`` writes its inputs (pass 0) and
``workloads.run`` solves it, into a temporary directory, once per seed.
Nine more fresh interpreters run ``frstokes verify``, one pinned
``frstokes kernel`` table (KERNEL_TABLE), two pinned ``frstokes
convergence`` reports (CONVERGENCES) and five pinned ``frstokes solve``
runs (SOLVES) once each.  The first convergence report is manufactured
and takes at most 800 steps; the second is the benchmark's kernel target,
whose 100 000-step zero-source march is compared byte for byte.  The
first pinned solve is forced on explicit geometric nodes and writes
trace.json, whose 2048 x 16 coefficient matrix, a JSON float leaf of at
least EXPORT_BLOCK cells, sits between batched lists; no benchmark
operation writes either.  The second reads its data from a
``k,coefficient`` CSV file with a blank line and CRLF endings, and its
source from a sampled CSV file with a comment line, which the benchmark's
generator never writes.  The third is a 512-node, 2000-mode
``manufactured_t2`` solve, whose lattice convolution takes its moving
modes in many blocks; no benchmark operation has more than 64 modes.  The
fourth is a 201-node, 32-mode ``manufactured_t2`` solve on explicit
geometric nodes: the first pinned solve's source is constant, so its
direct node sums add exact zeros, while this one's add moving values.  The
fifth is a 16-mode ``manufactured_t2`` solve on the 85 nodes of
linspace(0, 1, 65) and geomspace(1e-4, 1e-2, 20): 63 of its interior
nodes lie on points of the convolution lattice, where a node's partial
last cell is a whole cell.  For every file (inputs, artifacts and each
operation's exit code) and for the stdout of each of these runs, the
script prints ``identical`` or the
largest absolute difference between the two trees' numbers, the line it
is on and the largest relative difference.  It exits 1 on any difference, 0 when all is
identical and 2 when a tree cannot be run.  Nothing is written inside
either tree: the interpreters write no bytecode and the outputs go to the
temporary directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

WORKLOADS = ("solve-unforced", "solve-forced")
KERNEL_TABLE = ("kernel", "--rho", "0.5", "--gamma", "1", "--lambda", "100",
                "--t-start", "0", "--t-end", "1", "--t-steps", "257")
# pinned convergence reports: name -> config
CONVERGENCES = {
    "convergence": {"target": "manufactured", "rho": "0.35", "gamma": "2.0",
                    "lambda": "10.0", "horizon": "1.0",
                    "dts": ["1e-2", "5e-3", "2.5e-3", "1.25e-3"]},
    "convergence-kernel": {"target": "kernel", "rho": "0.3", "gamma": "0.5",
                           "lambda": "1", "horizon": "1.0",
                           "dts": ["4e-5", "2e-5", "1e-5"]},
}
SOLVE_NODES = 2048
SOLVE_CONFIG = {
    "problem": {"kind": "forward", "rho": 0.4, "gamma": 1.5, "horizon": 1.0,
                "time_grid": {"nodes": [0.0] + [
                    10.0 ** (4.0 * (i / (SOLVE_NODES - 2) - 1.0))
                    for i in range(SOLVE_NODES - 1)]}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": 16},
    "data": {"coefficients": [1.0 / k ** 2 for k in range(1, 17)]},
    "source": {"kind": "constant", "value": 1.0},
    "output": {"trace_csv": "trace.csv", "trace_json": "trace.json",
               "diagnostics_json": "diagnostics.json"},
}
# a forward solve whose data and sampled source come from CSV files written
# in ways the benchmark's generator does not: a blank line and CRLF endings,
# and a comment line
SOLVE_CSV_CONFIG = {
    "problem": {"kind": "forward", "rho": 0.6, "gamma": 0.5, "horizon": 2.0,
                "time_grid": {"n_nodes": 96}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": 2.0,
                 "n_modes": 3},
    "data": {"csv": "data.csv"},
    "source": {"kind": "sampled_csv", "path": "source.csv"},
    "output": {"trace_csv": "trace.csv", "trace_json": "trace.json",
               "diagnostics_json": "diagnostics.json"},
}
SOLVE_CSV_INPUTS = {
    "data.csv": "k,coefficient\r\n1,1.0\r\n\r\n3,-0.25\r\n",
    "source.csv": ("t,f1,f2,f3\n# note\n0,1,0,0.5\n0.75,0.25,1,0\n"
                   "2,0,0.5,-1\n"),
}
# a forced solve of many modes on a uniform grid, whose lattice convolution
# runs its moving modes in many blocks of solvers.LATTICE_BLOCK
MANY_MODES = 2000
SOLVE_MODES_CONFIG = {
    "problem": {"kind": "forward", "rho": 0.5, "gamma": 1.0, "horizon": 1.0,
                "time_grid": {"n_nodes": 512}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": MANY_MODES},
    "data": {"coefficients": [1.0 / k for k in range(1, MANY_MODES + 1)]},
    "source": {"kind": "manufactured_t2"},
    "output": {"trace_csv": "trace.csv",
               "diagnostics_json": "diagnostics.json"},
}
# a forced solve on explicit geometric nodes whose source moves, so the
# direct node sums of the lattice convolution do arithmetic that shows
GRADED_NODES = 201
GRADED_MODES = 32
SOLVE_GRADED_CONFIG = {
    "problem": {"kind": "forward", "rho": 0.5, "gamma": 1.0, "horizon": 1.0,
                "time_grid": {"nodes": [0.0] + [
                    10.0 ** (4.0 * (i / (GRADED_NODES - 2) - 1.0))
                    for i in range(GRADED_NODES - 1)]}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": GRADED_MODES},
    "data": {"coefficients": [1.0 / k for k in range(1, GRADED_MODES + 1)]},
    "source": {"kind": "manufactured_t2"},
    "output": {"trace_csv": "trace.csv",
               "diagnostics_json": "diagnostics.json"},
}
# a forced solve on explicit nodes, graded near 0 and with 63 interior
# nodes on lattice points, so node and lattice times repeat values
SOLVE_LATTICE_POINTS_CONFIG = {
    "problem": {"kind": "forward", "rho": 0.5, "gamma": 1.0, "horizon": 1.0,
                "time_grid": {"nodes": sorted(
                    [i / 64 for i in range(65)]
                    + [10.0 ** (2.0 * i / 19 - 4.0) for i in range(20)])}},
    "operator": {"kind": "dirichlet_laplacian_1d", "length": math.pi,
                 "n_modes": 16},
    "data": {"coefficients": [1.0 / k for k in range(1, 17)]},
    "source": {"kind": "manufactured_t2"},
    "output": {"trace_csv": "trace.csv",
               "diagnostics_json": "diagnostics.json"},
}
# pinned solves: output directory -> (config, input files beside it)
SOLVES = {"solve": (SOLVE_CONFIG, {}),
          "solve-csv": (SOLVE_CSV_CONFIG, SOLVE_CSV_INPUTS),
          "solve-modes": (SOLVE_MODES_CONFIG, {}),
          "solve-graded": (SOLVE_GRADED_CONFIG, {}),
          "solve-lattice-points": (SOLVE_LATTICE_POINTS_CONFIG, {})}
# a number as "%.17g", repr or json write it, the non-finite ones included
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|nan|inf(?:inity)?))", re.IGNORECASE)


def _env(tree: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=os.pathsep.join((os.path.join(tree, "src"),
                                           os.path.join(tree, "perfbench"))),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def produce(out: str, seeds: list[int]) -> None:
    """Run the solve operations into out/seed<seed>/<workload>/<op>."""
    import workloads

    for seed in seeds:
        for workload in WORKLOADS:
            for index, op in enumerate(workloads.WORKLOADS[workload]):
                op_dir = os.path.join(out, f"seed{seed}", workload, op.name)
                workloads.generate(op, seed, 0, index, op_dir)
                code, _ = workloads.run(op, op_dir)
                with open(os.path.join(op_dir, "exit_code"), "w") as fh:
                    fh.write(f"{code}\n")


def run_tree(tree: str, out: str, seeds: list[int]) -> None:
    """The fresh interpreters for one tree; raises on a failed run."""
    env = _env(tree)
    subprocess.run([sys.executable, "-B", os.path.abspath(__file__),
                    "--produce", out, "--seeds", *map(str, seeds)],
                   env=env, cwd=out, check=True)
    runs = [("verify", ("verify",)), ("kernel", KERNEL_TABLE)]
    for name, cfg in CONVERGENCES.items():
        config = os.path.join(out, name + ".json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        runs.append((name, ("convergence", "--config", config)))
    for name, (cfg, inputs) in SOLVES.items():
        os.makedirs(os.path.join(out, name))
        with open(os.path.join(out, name, "config.json"), "w") as fh:
            json.dump(cfg, fh)
        for file_name, text in inputs.items():
            with open(os.path.join(out, name, file_name), "w",
                      newline="") as fh:
                fh.write(text)
        # relative to out, so the solve's stdout names the same directory
        runs.append((name, ("solve", "--config",
                            os.path.join(name, "config.json"),
                            "--out-dir", name)))
    for name, argv in runs:
        run = subprocess.run([sys.executable, "-B", "-m", "frstokes.cli",
                              *argv], env=env, cwd=out, capture_output=True,
                             text=True)
        with open(os.path.join(out, f"{name}.stdout"), "w") as fh:
            fh.write(run.stdout)
        with open(os.path.join(out, f"{name}.exit_code"), "w") as fh:
            fh.write(f"{run.returncode}\n")


def difference(a: str, b: str) -> str:
    """'identical', the largest absolute numeric difference with its line
    (in the first text) and the largest relative difference, or what else
    differs between two texts."""
    if a == b:
        return "identical"
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return "text differs"
    worst, worst_line, worst_rel, line = -1.0, 0, 0.0, 1
    for i in range(1, len(parts_a), 2):
        line += parts_a[i - 1].count("\n")
        x, y = parts_a[i], parts_b[i]
        if x != y:
            x, y = float(x), float(y)
            gap = abs(x - y) if math.isfinite(x - y) else math.inf
            if gap > worst:
                worst, worst_line = gap, line
            if gap:
                worst_rel = max(worst_rel, gap / max(abs(x), abs(y))
                                if math.isfinite(gap) else math.inf)
    return (f"largest absolute difference {worst:.3e} at line {worst_line}, "
            f"largest relative difference {worst_rel:.3e}")


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--produce", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.produce:
        produce(args.produce, args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_TREE and CHANGE_TREE")
    trees = [os.path.abspath(tree) for tree in args.trees]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "workloads.py")):
            print(f"{tree}: no perfbench/workloads.py", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, side) for side in ("parent", "change")]
        for tree, out in zip(trees, outs):
            os.makedirs(out)
            try:
                run_tree(tree, out, args.seeds)
            except subprocess.CalledProcessError as exc:
                print(f"{tree}: the solve operations failed ({exc})",
                      file=sys.stderr)
                return 2
        differ = 0
        names = sorted(files(outs[0]) | files(outs[1]))
        for name in names:
            texts = []
            for out in outs:
                path = os.path.join(out, name)
                if os.path.isfile(path):
                    with open(path) as fh:
                        texts.append(fh.read())
            if len(texts) == 2:
                result = difference(*texts)
            else:
                result = "only in " + ("parent" if os.path.isfile(
                    os.path.join(outs[0], name)) else "change")
            differ += result != "identical"
            print(f"{name}: {result}")
    print(f"{len(names)} files compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
