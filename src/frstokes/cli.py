"""Batch command-line front end.

Subcommands: ``solve`` (run one configured problem and emit CSV/JSON
artifacts), ``kernel`` (tabulate the relaxation kernels), ``verify`` (run
the property suites and report each guarantee with its worst-case margin),
and ``convergence`` (oracle-vs-quadrature error table over step sizes).

The CLI performs no arithmetic of its own beyond formatting: every number
printed is produced by a library call.  Numeric config fields accept
decimal strings so configs can round-trip exactly.  A solve whose writes
fail leaves none of its output files, and repeated runs with the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from .kernel import (
    KernelParams,
    QuadratureConfig,
    _bromwich,
    eval_A,
)
from .oracle import TRACE_BLOCK, L1Grid, richardson_extrapolate, solve_scalar
from .solvers import (
    LATTICE_BLOCK,
    LATTICE_MIN_CELLS,
    ProblemSpec,
    SolverError,
    _atomic_write,
    _csv_table,
    _write_all,
    constant_source,
    dumps_json,
    export_trace_csv,
    export_trace_grid_csv,
    export_trace_json,
    manufactured_quadratic_source,
    sampled_source,
    solve_backward,
    solve_forward,
    solve_nonlocal,
    uniform_grid,
)
from .spectral import (
    CoefficientField,
    _read_csv,
    dirichlet_laplacian_1d,
    explicit_spectrum,
    load_field_csv,
)
from .verification import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_SOLVER = 4


class ConfigError(Exception):
    pass


class IngestError(Exception):
    pass


def _num(value, what):
    """Accept finite JSON numbers or decimal strings for numeric config fields."""
    if isinstance(value, bool) or value is None:
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: cannot parse {value!r} as a number") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what}: {value!r} is not a finite number")
    return number


def _count(value, what):
    """Accept integral JSON numbers or decimal strings for count fields."""
    number = _num(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what}: {value!r} is not a whole number")
    return int(number)


def _nums(value, what):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return [_num(v, f"{what}[{i}]") for i, v in enumerate(value)]


def _name(value, what):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a non-empty file name")
    return value


_PARSERS = {"number": _num, "count": _count, "numbers": _nums,
            "name": _name, "path": _name}  # path: an input file
REQUIRED = object()
# A config key: dotted path; type (a _PARSERS name, the allowed strings, or
# "table" for a section skipped when absent; any other section reads as {});
# default (REQUIRED, Instead(sibling), or what an absent or null key takes,
# None leaving it out); and the value of its section's kind it needs, if any.
Key = namedtuple("Key", "path type default kind", defaults=(None, ""))
Instead = namedtuple("Instead", "key")  # in place of `key`, never beside it

SCHEMA = {
    "solve": (
        Key("problem.kind", ("forward", "nonlocal", "backward"), REQUIRED),
        Key("problem.rho", "number", REQUIRED),
        Key("problem.gamma", "number", REQUIRED),
        Key("problem.horizon", "number", REQUIRED),
        Key("problem.time_grid.n_nodes", "count", 512),
        Key("problem.time_grid.nodes", "numbers", Instead("n_nodes")),
        Key("operator.kind", ("dirichlet_laplacian_1d", "explicit_spectrum"),
            REQUIRED),
        Key("operator.length", "number", REQUIRED, "dirichlet_laplacian_1d"),
        Key("operator.n_modes", "count", REQUIRED, "dirichlet_laplacian_1d"),
        Key("operator.eigenvalues", "numbers", REQUIRED, "explicit_spectrum"),
        Key("data.coefficients", "numbers", REQUIRED),
        Key("data.csv", "path", Instead("coefficients")),
        Key("source.kind",
            ("zero", "constant", "manufactured_t2", "sampled_csv"), "zero"),
        Key("source.value", "number", 1.0, "constant"),
        Key("source.coefficients", "numbers", Instead("value"), "constant"),
        Key("source.path", "path", REQUIRED, "sampled_csv"),
        Key("output.trace_csv", "name", "trace.csv"),
        Key("output.trace_json", "name"),
        Key("output.grid_csv", "table"),
        Key("output.grid_csv.path", "name", REQUIRED),
        Key("output.grid_csv.n_points", "count", 101),
        Key("output.diagnostics_json", "name", "diagnostics.json"),
        Key("quadrature.rel_tol", "number", QuadratureConfig.rel_tol),
    ),
    "convergence": (
        Key("target", ("kernel", "manufactured"), "kernel"),
        Key("rho", "number", 0.5),
        Key("gamma", "number", 1.0),
        Key("lambda", "number", 1.0),
        Key("horizon", "number", 1.0),
        Key("dts", "numbers", REQUIRED),
    ),
}


def _read(cfg, keys, section=""):
    """Parse the config section `cfg` against `keys` into {key path: value}."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{section or 'config'} must be a JSON object, "
                          f"got {cfg!r}")
    prefix = section and section + "."
    here = {}
    for k in keys:
        if k.path.startswith(prefix):
            name, dot, _ = k.path[len(prefix):].partition(".")
            here.setdefault(name, Key(prefix + name, "table", {}) if dot else k)
    given = {name: raw for name, raw in cfg.items() if raw is not None}
    alt = {k.default.key: name for name, k in here.items()
           if isinstance(k.default, Instead)}
    values = {}

    def take(name):
        key, other = here[name], alt.get(name)
        if name in given and other in given:
            raise ConfigError(f"give {key.path} or {prefix}{other}, not both")
        raw = given.get(name, key.default)
        if raw is REQUIRED and other not in given:
            raise ConfigError(f"{key.path} is required")
        if raw is None or raw is REQUIRED or isinstance(raw, Instead):
            return None
        if key.type == "table":
            values.update(_read(raw, keys, key.path))
        elif isinstance(key.type, str):
            values[key.path] = _PARSERS[key.type](raw, key.path)
        elif raw in key.type:
            values[key.path] = raw
        else:
            raise ConfigError(f"{key.path} must be one of "
                              f"{', '.join(key.type)}, got {raw!r}")
        return raw

    kind = take("kind") if "kind" in here else None
    known = [name for name, k in here.items() if k.kind in ("", kind)]
    for name in cfg:
        if name not in known:
            import difflib  # on the error path only: not in the import time
            close = difflib.get_close_matches(name, known, n=1)
            hint = f"; did you mean {prefix + close[0]!r}?" if close else ""
            where = f" for {prefix}kind {kind!r}" if name in here else ""
            raise ConfigError(f"unknown key {prefix + name!r}{where}{hint}")
    for name in known:
        take(name)
    return values


def _emit_error(code, kind, message):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# Memory admission
#
# Each command estimates its peak memory from its counts before it allocates
# anything that grows with them, and exits 2 when the estimate passes
# MEMORY_CEILING.  Measured peaks (tracemalloc) were 26 to 31 bytes per
# node-mode pair of an unforced solve and 40 of a forced one (uniform
# grids, 4096 x 64 to 512 x 2000, a constant source); per lattice
# point and mode, 16 bytes for a forced solve's samples of its source (the
# source's own temporary included), 48 for the modes of one LATTICE_BLOCK
# and 32 for the direct node sums off a uniform grid (at 128 and 512 modes
# on 201 geometric nodes: every mode's cells and one node's samples and
# differences; 43 at 16 modes, its source's temporaries); 6.2 kB per node of
# the dense Caputo trace beyond its two node-mode arrays (4096 x 1, 8192 x 4
# and 2048 x 16), 16 bytes per node and point of the grid export,
# 160 per kernel-table row, and per L1 step 40 for the kernel target and 64
# for the manufactured one, whose sampled source takes a convolution (both
# at 2e4, 1e5 and 4e5 steps), above about 2 MB that any run holds.  The
# estimates take 1.5 to 3.4 times these (a zero source's node-mode pairs are
# charged as a forced solve's), and 8 MB.

MEMORY_CEILING = 2 ** 31  # bytes
FIXED_BYTES = 2 ** 23


def solve_bytes(n_nodes, n_modes, n_points, dense, source) -> float:
    """Estimated peak of a solve whose source is of the kind source: its
    node-mode arrays, the convolution lattice's arrays, the grid export's
    (n_nodes, n_points) field and, on an explicit node list, the dense
    Caputo trace's TRACE_BLOCK rows.

    The lattice has at most LATTICE_MIN_CELLS + 2 n_nodes points.  A zero
    source builds none.  On a uniform grid any other source is sampled on
    it for all modes, and a source that can move (not a constant) takes
    Phi, slopes and spectra for one LATTICE_BLOCK of modes at a time.  Off
    a uniform grid every mode moves, and the direct node sums hold the
    lattice cells of every mode and one node's samples below it.
    """
    lattice = (LATTICE_MIN_CELLS + 2.0 * n_nodes) * (source != "zero")
    block = 96.0 * lattice * min(n_modes, LATTICE_BLOCK)
    return (FIXED_BYTES + 128.0 * n_nodes * n_modes
            + (64.0 if dense else 24.0) * lattice * n_modes
            + (block if dense or source != "constant" else 0.0)
            + 24.0 * n_nodes * n_points
            + (64.0 * TRACE_BLOCK * n_nodes if dense else 0.0))


def kernel_table_bytes(t_steps) -> float:
    """Estimated peak of a kernel table of t_steps rows."""
    return FIXED_BYTES + 256.0 * t_steps


def convergence_bytes(steps) -> float:
    """Estimated peak of the L1 runs of a convergence table."""
    return FIXED_BYTES + 128.0 * max(steps)


def _admit(what, estimate) -> None:
    if estimate > MEMORY_CEILING:
        raise ConfigError(f"{what} needs an estimated {estimate:.3g} bytes, "
                          f"above the ceiling of {MEMORY_CEILING:.3g}")


# ---------------------------------------------------------------------------
# solve


def _build_data(v, op):
    if "data.csv" in v:
        try:
            return load_field_csv(v["data.csv"], op)
        except (OSError, ValueError) as exc:
            raise IngestError(f"data.csv: {exc}") from exc
    return CoefficientField(np.array(v["data.coefficients"]), op)


def _build_source(v, op):
    kind = v["source.kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        values = v.get("source.coefficients", v["source.value"])
        if isinstance(values, list) and len(values) != op.n_modes:
            raise ConfigError("source.coefficients length mismatch")
        return constant_source(values)
    if kind == "manufactured_t2":
        return manufactured_quadratic_source(op, v["problem.rho"],
                                             v["problem.gamma"])
    if kind == "sampled_csv":
        try:
            names, rows = _read_csv(v["source.path"])
            if names != ["t"] + [f"f{k}" for k in range(1, op.n_modes + 1)]:
                raise ValueError(f"needs header t,f1,...,f{op.n_modes}")
            return sampled_source(rows[:, 0], rows[:, 1:])
        except (OSError, ValueError) as exc:  # a fault of the file
            raise IngestError(f"source.path: {exc}") from exc


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not valid JSON
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _plan_outputs(v, op, out_dir):
    """Check the output requests before solving.

    Returns the file name per artifact and the grid-export point count (or
    None); every named file must land in an existing directory.
    """
    files = {k.path.split(".")[1]: v[k.path] for k in SCHEMA["solve"]
             if k.type == "name" and k.path in v}
    n_points = v.get("output.grid_csv.n_points")
    if n_points is not None and not op.has_eigenfunctions:
        raise ConfigError(f"output.grid_csv needs an operator with "
                          f"eigenfunctions, got {op.kind!r}")
    if n_points is not None and n_points < 1:
        raise ConfigError("output.grid_csv.n_points must be >= 1")
    targets = {}
    for key, name in files.items():
        subdir = os.path.dirname(name)
        if subdir and not os.path.isdir(os.path.join(out_dir, subdir)):
            raise ConfigError(f"output.{key}: directory {subdir!r} does not "
                              f"exist in {out_dir!r}")
        path = os.path.normpath(os.path.join(out_dir, name))
        if os.path.basename(name) in ("", ".", "..") or os.path.isdir(path):
            raise ConfigError(f"output.{key}: {name!r} names a directory")
        if path in targets:
            raise ConfigError(f"output.{key} and output.{targets[path]} both "
                              f"name {name!r}")
        targets[path] = key
    return files, n_points


def _write_artifacts(trace, paths, n_points):
    """The solve's artifacts, all staged before any is renamed, by
    _write_all."""
    writers = {
        "trace_csv": lambda fd: export_trace_csv(trace, fd),
        "trace_json": lambda fd: export_trace_json(trace, fd),
        "grid_csv": lambda fd: export_trace_grid_csv(
            trace, np.linspace(0.0, trace.operator.length, n_points), fd),
        "diagnostics_json": lambda fd: _atomic_write(
            fd, dumps_json(trace.diagnostics) + "\n"),
    }
    _write_all({path: writers[key] for key, path in paths.items()})


def cmd_solve(args):
    v = _read(_load_config(args.config), SCHEMA["solve"])
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out_dir or base_dir
    for key in SCHEMA["solve"]:
        if key.type == "path" and key.path in v:
            v[key.path] = os.path.join(base_dir, v[key.path])
            if not os.path.isfile(v[key.path]):
                raise IngestError(f"{key.path}: file {v[key.path]!r} missing")
    nodes = v.get("problem.time_grid.nodes")
    _admit("the solve", solve_bytes(
        v["problem.time_grid.n_nodes"] if nodes is None else len(nodes),
        len(v["operator.eigenvalues"])
        if v["operator.kind"] == "explicit_spectrum" else v["operator.n_modes"],
        v.get("output.grid_csv.n_points") or 0, nodes is not None,
        v["source.kind"]))
    try:
        if v["operator.kind"] == "explicit_spectrum":
            op = explicit_spectrum(v["operator.eigenvalues"])
        else:
            op = dirichlet_laplacian_1d(v["operator.length"],
                                        v["operator.n_modes"])
        grid = (np.array(v["problem.time_grid.nodes"])
                if "problem.time_grid.nodes" in v else uniform_grid(
                    v["problem.horizon"], v["problem.time_grid.n_nodes"]))
        q = QuadratureConfig(rel_tol=v["quadrature.rel_tol"])
        spec = ProblemSpec(v["problem.kind"], op, v["problem.rho"],
                           v["problem.gamma"], v["problem.horizon"],
                           _build_data(v, op), _build_source(v, op), grid)
        files, n_points = _plan_outputs(v, op, out_dir)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    solver = {"forward": solve_forward, "nonlocal": solve_nonlocal,
              "backward": solve_backward}[spec.kind]
    try:
        trace = solver(spec, q)
    except ValueError as exc:  # an input the solve itself refuses
        raise SolverError(str(exc)) from exc

    paths = {key: os.path.join(out_dir, name) for key, name in files.items()}
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_artifacts(trace, paths, n_points)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from exc
    print(json.dumps({"status": "ok", "out_dir": out_dir, "files": files},
                     sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# kernel table


def cmd_kernel(args):
    if args.t_steps < 1:
        raise ConfigError("--t-steps must be >= 1")
    if not 0.0 <= args.t_start <= args.t_end < math.inf:
        raise ConfigError("need 0 <= --t-start <= --t-end, both finite")
    _admit("the kernel table", kernel_table_bytes(args.t_steps))
    try:
        p = KernelParams(args.rho, args.gamma, args.lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ts = np.linspace(args.t_start, args.t_end, args.t_steps)
    values, _ = _bromwich(("A", "B", "dB"), p.rho, p.gamma, p.lam, ts,
                          error_at=slice(0))
    a, b, db = values[..., 0]
    if not np.all(np.isfinite(np.concatenate((a, b, db[ts > 0.0])))):
        raise SolverError(
            f"the kernel table at --rho {args.rho:g} --gamma {args.gamma:g} "
            f"--lambda {args.lam:g} is not finite: the kernels' transforms "
            f"overflow the float range on the contour")
    sys.stdout.writelines(_csv_table("t,A,B,dA_dt,dB_dt",
                                     (ts, a, b, -p.lam * b, db)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    names = [args.suite] if args.suite else None
    report = run_suites(names)
    print(dumps_json(report))
    if not report["passed"]:
        print(f"FAILED: {', '.join(report['failed'])}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence


def cmd_convergence(args):
    cfg = _read(_load_config(args.config), SCHEMA["convergence"])
    rho, gamma, lam, horizon, dts = (cfg[k] for k in ("rho", "gamma", "lambda",
                                                      "horizon", "dts"))
    steps = [round(horizon / dt) if 0.0 < dt and horizon / dt < math.inf
             else 0 for dt in dts]
    for dt, n in zip(dts, steps):
        if n < 1 or not math.isclose(n * dt, horizon, rel_tol=1e-9):
            raise ConfigError(f"dts: {dt!r} does not divide the horizon "
                              f"{horizon!r} into whole steps")
    _admit("the convergence table", convergence_bytes(steps))
    try:
        p = KernelParams(rho, gamma, lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if cfg["target"] == "kernel":
        reference, u0, source = eval_A(p, horizon), 1.0, None
    else:
        reference, u0 = horizon * horizon, 0.0  # inf, not OverflowError
        source = manufactured_quadratic_source(explicit_spectrum([lam]), rho,
                                               gamma)
    values = []
    with np.errstate(all="ignore"):  # overflow is NaN, refused below
        for dt, n in zip(dts, steps):
            grid = L1Grid(dt, n, rho)
            f = None if source is None else source(grid.times)[:, 0]
            try:
                values.append(float(solve_scalar(lam, gamma, u0, f, grid)[-1]))
            except ValueError as exc:  # a source sample that overflowed
                raise SolverError(str(exc)) from exc
    if not all(map(math.isfinite, [reference, *values])):
        raise SolverError("the reference or a stepped value is not finite")

    errors = [abs(v - reference) for v in values]
    orders = [math.log(e0 / e1) / math.log(d0 / d1)
              if e0 > 0.0 and e1 > 0.0 and d0 != d1 else math.nan
              for d0, d1, e0, e1 in zip(dts, dts[1:], errors, errors[1:])]
    extrapolated = None
    if len(values) >= 2 and all(math.isclose(d0 / d1, 2.0, rel_tol=1e-9)
                                for d0, d1 in zip(dts, dts[1:])):
        extrapolated = richardson_extrapolate(values)._asdict()
    report = {
        "target": cfg["target"],
        "reference": reference,
        "dts": dts,
        "values": values,
        "errors": errors,
        "observed_orders": orders,
        "richardson": extrapolated,
    }
    print(dumps_json(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frstokes",
        description="Solvers and verification suites for the fractional "
                    "Rayleigh-Stokes equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out-dir", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_kernel = sub.add_parser("kernel", help="tabulate the relaxation kernels")
    p_kernel.add_argument("--rho", type=float, required=True)
    p_kernel.add_argument("--gamma", type=float, required=True)
    p_kernel.add_argument("--lambda", dest="lam", type=float, required=True)
    p_kernel.add_argument("--t-start", type=float, required=True)
    p_kernel.add_argument("--t-end", type=float, required=True)
    p_kernel.add_argument("--t-steps", type=int, required=True)
    p_kernel.set_defaults(fn=cmd_kernel)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_conv = sub.add_parser("convergence",
                            help="oracle-vs-quadrature error table")
    p_conv.add_argument("--config", required=True)
    p_conv.set_defaults(fn=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc))
    except IngestError as exc:
        return _emit_error(EXIT_INGEST, "ingest", str(exc))
    except SolverError as exc:
        return _emit_error(EXIT_SOLVER, "solver", str(exc))


if __name__ == "__main__":
    sys.exit(main())
