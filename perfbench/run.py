#!/usr/bin/env python3
"""Layered benchmark of the frstokes command-line pipeline.

    python3 perfbench/run.py --workload solve-unforced --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process issues each operation after the
previous one returns (a closed loop), in-process through the package's
entry points.  Operations repeat in passes over the workload until
``--seconds`` have elapsed and every operation has run at least once; each
operation's outputs are checked after its timer stops.

BLAS runs on one thread.  Two threads speed up the L1 stepper's long dot
products by ~1.6x on an idle two-core machine, but OpenBLAS then spins its
second thread through everything that follows, so timings depend on
whether a neighbour holds the other core.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over SETUP_REPEATS fresh interpreters of importing
  ``frstokes.cli`` and generating one pass of inputs;
* ``wall_s``: one pass over the workload, as the sum of each operation's
  median time;
* ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` alternates untraced and traced whole passes and reports the
per-layer metrics of the traced passes, per pass (see ``tracing.py``),
with ``trace.overhead_s`` the traced minus the untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every operation's time and check result) goes to
``.perfbench/results/``, and traced runs also write their spans there;
``compare.py`` summarises records and flags environment differences.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
WORKLOAD_NAMES = ("solve-unforced", "solve-forced", "verify")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)  # one timed set-up, in a child
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from frstokes import _accel

    try:   # the ceiling keeps git from finding a repository above ROOT
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _accel.BACKEND,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def time_setup(args, work: Path) -> list:
    """Wall time of fresh interpreters that import frstokes.cli and generate inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return times


def untraced(tracer):
    """Pause ``tracer``, if any: the harness's own work is not the program's."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def issue(op, rep, expect, op_dir, tracer=None) -> dict:
    """Run one operation, then check it outside its timer and the trace."""
    import workloads

    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code, output = workloads.run(op, op_dir)
        error = None
    except Exception:  # an operation that raises counts as failed
        error = traceback.format_exc(limit=3)
    entry = {"seconds": time.perf_counter() - t0,
             "cpu_s": time.process_time() - c0}
    if error is None:
        try:
            with untraced(tracer):
                error = workloads.check(op, rep, code, output, expect, op_dir)
        except Exception:  # unparseable artifacts fail the operation
            error = traceback.format_exc(limit=3)
    entry["error"] = error
    return entry


def run_pass(ops, seed, rep, work, log, stop=None, tracer=None):
    """Issue each operation of pass ``rep`` until ``stop()`` says to end.

    With a tracer, its spans carry the operation's index in ``log``.
    """
    import workloads

    with untraced(tracer):
        expects = workloads.generate_pass(ops, seed, rep, str(work))
    for i, op in enumerate(ops):
        if stop is not None and stop():
            return
        if tracer is not None:
            tracer.op_id = len(log)
        op_dir = work / f"r{rep}-{i}"
        log.append({"op": op.name, "index": i, "rep": rep,
                     "traced": tracer is not None,
                     **issue(op, rep, expects[i], str(op_dir), tracer)})
        shutil.rmtree(op_dir, ignore_errors=True)


def pass_time(log, ops) -> float:
    """One pass as the sum over operations of each one's median time."""
    return sum(statistics.median(e["seconds"] for e in log if e["index"] == i)
               for i in range(len(ops)))


def measure(args, ops, work, log):
    """Untraced closed loop; stops between operations after the deadline."""
    n_ops = len(ops)
    start = time.perf_counter()

    def stop():
        done = {e["index"] for e in log}
        return (time.perf_counter() - start >= args.seconds
                and len(done) == n_ops)

    rep = 0
    while not stop():
        run_pass(ops, args.seed, rep, work, log, stop)
        rep += 1
    return {"wall_s": (pass_time(log, ops), "s")}


def measure_traced(args, ops, work, log):
    """Alternate untraced and traced whole passes; per-layer metrics per pass."""
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    walls = {False: [], True: []}
    rep = 0
    while (time.perf_counter() - start < args.seconds
           or not walls[False] or not walls[True]):
        traced = rep % 2 == 1
        first = len(log)
        if traced:
            tracer.install()
        try:
            run_pass(ops, args.seed, rep, work, log,
                     tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        walls[traced].append(sum(e["seconds"] for e in log[first:]))
        rep += 1
    passes = len(walls[True])
    metrics = tracing.layer_metrics(tracer, passes)
    metrics["proc.cpu_s"] = (
        sum(e["cpu_s"] for e in log if e["traced"]) / passes, "s")
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]), "s")
    return metrics, tracer.spans()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frstokes" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}/frstokes", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.generate_pass(ops, args.seed, 0, args.setup_only)
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        setup_times = time_setup(args, work)
        warm_log = []
        run_pass([workloads.WARMUP], args.seed, 0, work / "warmup", warm_log)
        warmup_s = warm_log[0]["seconds"]

        log = []
        spans = None
        if args.trace:
            metrics, spans = measure_traced(args, ops, work, log)
            metrics["proc.warmup_s"] = (warmup_s, "s")
        else:
            metrics = measure(args, ops, work, log)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [e for e in warm_log + log if e["error"] is not None]
    for e in failed:
        print(f"FAILED {e['op']} (pass {e['rep']}): {e['error']}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(log),
        "failed": sum(e["error"] is not None for e in log),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    env = environment()
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_times": setup_times, "warmup_s": warmup_s,
              "operations": log, **result}
    if spans is not None:
        import tracing

        record["predictions"] = tracing.PREDICTIONS
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["name", "start", "end", "parent", "operation"],
             "spans": spans}) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
