"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py

Run from the root of a source checkout.  They check that a seed reproduces
its inputs byte for byte, that the seed never changes what an operation
costs, that a corrupted trace fails its operation, and that tracing wraps
and restores every namespace holding a traced function.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402
from frstokes import kernel, solvers, verification  # noqa: E402

SMALL = {
    "forward": workloads.Op("t-forward", "forward", 0.4, 1.0, 4, 128,
                            source="constant"),
    "nonlocal": workloads.Op("t-nonlocal", "nonlocal", 0.4, 1.0, 4, 128),
    "backward": workloads.Op("t-backward", "backward", 0.4, 1.0, 4, 128,
                             source="constant"),
}


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _shape_from_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if "problem" not in cfg:   # convergence config
        return (cfg["rho"], cfg["gamma"], cfg["lambda"], cfg["dts"])
    operator = cfg["operator"]
    n_modes = operator.get("n_modes") or len(operator["eigenvalues"])
    problem = cfg["problem"]
    return (problem["kind"], n_modes, problem["time_grid"]["n_nodes"],
            problem["rho"], problem["gamma"], cfg.get("source", {}).get("kind"))


class HarnessTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def generate(self, name, seed, label):
        root = self.tmp / label
        for rep in (0, 1):
            workloads.generate_pass(workloads.WORKLOADS[name], seed, rep,
                                    str(root))
        return root

    def test_seed_reproduces_inputs_byte_for_byte(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a = _files(self.generate(name, 7, f"{name}-a"))
                b = _files(self.generate(name, 7, f"{name}-b"))
                self.assertEqual(a, b)

    def test_seed_changes_values_not_cost(self):
        for name in ("solve-unforced", "solve-forced"):
            with self.subTest(workload=name):
                a = self.generate(name, 1, f"{name}-1")
                b = self.generate(name, 2, f"{name}-2")
                configs = sorted(p.relative_to(a) for p in a.rglob("config.json"))
                self.assertEqual(
                    configs, sorted(p.relative_to(b) for p in b.rglob("config.json")))
                for rel in configs:
                    self.assertEqual(_shape_from_config(a / rel),
                                     _shape_from_config(b / rel))
                self.assertNotEqual(_files(a), _files(b))

    def test_no_two_timed_solves_share_rho_gamma(self):
        for name, ops in workloads.WORKLOADS.items():
            pairs = [(op.rho, op.gamma_at(rep)) for op in ops
                     if op.kind != "verify" for rep in range(200)]
            pairs.append((workloads.WARMUP.rho, workloads.WARMUP.gamma))
            self.assertEqual(len(pairs), len(set(pairs)), name)

    def test_perturbed_trace_fails_the_operation(self):
        original = workloads.run

        def run_then_perturb(op, op_dir):
            code, output = original(op, op_dir)
            path = os.path.join(op_dir, "trace.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            t, k, value = lines[-1].split(",")
            lines[-1] = f"{t},{k},{float(value) + 1e-3!r}"
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            return code, output

        for kind, op in SMALL.items():
            with self.subTest(kind=kind):
                log = []
                run.run_pass([op], 3, 0, self.tmp / kind, log)
                self.assertIsNone(log[0]["error"])
                workloads.run = run_then_perturb
                try:
                    run.run_pass([op], 3, 1, self.tmp / kind, log)
                finally:
                    workloads.run = original
                self.assertIsNotNone(log[1]["error"])

    def test_tracer_wraps_every_namespace_and_restores(self):
        original = kernel.eval_A_grid
        holders = (kernel, solvers, verification)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in holders:
                self.assertIs(module.eval_A_grid.__wrapped__, original)
            log = []
            run.run_pass([SMALL["forward"]], 3, 0, self.tmp / "traced", log,
                         tracer=tracer)
        finally:
            tracer.uninstall()
        for module in holders:
            self.assertIs(module.eval_A_grid, original)
        self.assertIsNone(log[0]["error"])
        metrics = tracing.layer_metrics(tracer, 1)
        self.assertEqual(metrics["solvers.forward.calls"][0], 1)
        self.assertEqual(metrics["kernel.A_grid.points"][0], 4 * 128)
        self.assertGreater(metrics["quadrature.semiinf.panels"][0],
                           metrics["quadrature.semiinf.calls"][0])
        parents = {tracer.names[p] for name, p in zip(tracer.names,
                                                      tracer.parents)
                   if name == "kernel.A_grid" and p >= 0}
        self.assertEqual(parents, {"solvers.forward"})
        self.assertEqual(set(tracer.ops), {0})

        # The checks' reference kernel values and the input generation are
        # not traced: every semi-infinite quadrature sits under a kernel
        # span, and its points are exactly those the kernel spans requested
        # (the bounds integrate one point per call).
        semiinf_parents = [tracer.names[p] if p >= 0 else None
                           for name, p in zip(tracer.names, tracer.parents)
                           if name == "quadrature.semiinf"]
        self.assertTrue(semiinf_parents)
        self.assertLessEqual(set(semiinf_parents), set(tracing.KERNEL_SPANS))
        c = tracer.counts
        self.assertEqual(
            c["quadrature.semiinf.points"],
            c["kernel.A_grid.points"] + c["kernel.B_grid.points"]
            + c["kernel.dB_grid.points"]
            + semiinf_parents.count("kernel.bounds"))


if __name__ == "__main__":
    unittest.main()
