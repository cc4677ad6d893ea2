"""Batch command-line front end.

Subcommands: ``solve`` (run one configured problem and emit CSV/JSON
artifacts), ``kernel`` (tabulate the relaxation kernels), ``verify`` (run
the property suites and report each guarantee with its worst-case margin),
and ``convergence`` (oracle-vs-quadrature error table over step sizes).

The CLI performs no arithmetic of its own beyond formatting: every number
printed is produced by a library call.  Numeric config fields accept
decimal strings so configs can round-trip exactly.  A solve writes all of
its output files or none of them, and repeated runs with the same config
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .kernel import (
    KernelParams,
    QuadratureConfig,
    _contour_values,
    eval_A,
    eval_dB_dt_grid,
    MIN_DERIVATIVE_TIME,
)
from .oracle import L1Grid, richardson_extrapolate, solve_scalar
from .quadrature import QuadratureNonconvergence
from .solvers import (
    ProblemSpec,
    SolverError,
    _atomic_write,
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


class ConfigError(ValueError):
    pass


class IngestError(ValueError):
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


def _table(cfg, name):
    """The config section `name` (default {}), which must be a JSON object."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def _emit_error(code, kind, message):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# solve


def _build_operator(cfg):
    kind = cfg.get("kind")
    if kind == "dirichlet_laplacian_1d":
        return dirichlet_laplacian_1d(_num(cfg.get("length"), "operator.length"),
                                      _count(cfg.get("n_modes", 0),
                                             "operator.n_modes"))
    if kind == "explicit_spectrum":
        ev = cfg.get("eigenvalues")
        if not isinstance(ev, list) or not ev:
            raise ConfigError("operator.eigenvalues must be a non-empty list")
        return explicit_spectrum([_num(v, "operator.eigenvalues") for v in ev])
    raise ConfigError(f"operator.kind must be 'dirichlet_laplacian_1d' or "
                      f"'explicit_spectrum', got {kind!r}")


def _build_data(cfg, op, base_dir):
    if "coefficients" in cfg:
        coeffs = [_num(v, "data.coefficients") for v in cfg["coefficients"]]
        if len(coeffs) != op.n_modes:
            raise ConfigError(
                f"data.coefficients has {len(coeffs)} entries for "
                f"{op.n_modes} modes"
            )
        return CoefficientField(np.array(coeffs), op)
    if "csv" in cfg:
        path = os.path.join(base_dir, cfg["csv"])
        try:
            return load_field_csv(path, op)
        except (OSError, ValueError) as exc:
            raise IngestError(f"data.csv: {exc}") from exc
    raise ConfigError("data needs either 'coefficients' or 'csv'")


def _build_source(cfg, op, rho, gamma, base_dir):
    kind = cfg.get("kind", "zero")
    if kind == "zero":
        return None
    if kind == "constant":
        if "coefficients" in cfg:
            values = [_num(v, "source.coefficients") for v in cfg["coefficients"]]
            if len(values) != op.n_modes:
                raise ConfigError("source.coefficients length mismatch")
            return constant_source(values)
        return constant_source(_num(cfg.get("value", 1.0), "source.value"))
    if kind == "manufactured_t2":
        return manufactured_quadratic_source(op, rho, gamma)
    if kind == "sampled_csv":
        path = os.path.join(base_dir, cfg.get("path", ""))
        try:
            raw = np.genfromtxt(path, delimiter=",", names=True)
        except (OSError, ValueError) as exc:
            raise IngestError(f"source.path: {exc}") from exc
        names = raw.dtype.names
        if names is None or names[0] != "t":
            raise IngestError("sampled source CSV needs header t,f1,f2,...")
        times = np.atleast_1d(raw["t"])
        cols = [np.atleast_1d(raw[n]) for n in names[1:]]
        if len(cols) != op.n_modes:
            raise IngestError(
                f"sampled source has {len(cols)} mode columns for "
                f"{op.n_modes} modes"
            )
        if not all(np.all(np.isfinite(c)) for c in [times, *cols]):
            raise IngestError("sampled source CSV holds a non-finite or "
                              "unparseable value")
        return sampled_source(times, np.column_stack(cols))
    raise ConfigError(f"unknown source kind {kind!r}")


def _build_quadrature(cfg):
    if not cfg:
        return None
    return QuadratureConfig(
        rel_tol=_num(cfg.get("rel_tol", 1e-8), "quadrature.rel_tol"),
        abs_tol=_num(cfg.get("abs_tol", 1e-12), "quadrature.abs_tol"),
        max_refinements=_count(cfg.get("max_refinements", 30),
                               "quadrature.max_refinements"),
        split_point=_num(cfg.get("split_point", 1.0), "quadrature.split_point"),
    )


def _build_grid(cfg, horizon):
    if cfg is None:
        return uniform_grid(horizon)
    if "nodes" in cfg:
        return np.array([_num(v, "time_grid.nodes") for v in cfg["nodes"]])
    if "n_nodes" in cfg:
        return uniform_grid(horizon,
                            _count(cfg["n_nodes"], "time_grid.n_nodes"))
    raise ConfigError("time_grid needs 'nodes' or 'n_nodes'")


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_referenced_files(cfg, base_dir):
    refs = []
    data = _table(cfg, "data")
    if "csv" in data:
        refs.append(os.path.join(base_dir, data["csv"]))
    source = _table(cfg, "source")
    if source.get("kind") == "sampled_csv":
        refs.append(os.path.join(base_dir, source.get("path", "")))
    missing = [p for p in refs if not os.path.isfile(p)]
    if missing:
        raise IngestError(f"referenced files missing: {missing}")


def _plan_outputs(output, op, out_dir):
    """Check the output requests before solving.

    Returns the file name per artifact and the grid-export point count (or
    None); every named file must land in an existing directory.
    """
    files = {"trace_csv": output.get("trace_csv", "trace.csv")}
    if output.get("trace_json"):
        files["trace_json"] = output["trace_json"]
    n_points = None
    grid_cfg = output.get("grid_csv")
    if grid_cfg:
        if not isinstance(grid_cfg, dict):
            raise ConfigError("output.grid_csv must be a JSON object")
        if not op.has_eigenfunctions:
            raise ConfigError(f"output.grid_csv needs an operator with "
                              f"eigenfunctions, got {op.kind!r}")
        files["grid_csv"] = grid_cfg.get("path")
        n_points = _count(grid_cfg.get("n_points", 101),
                          "output.grid_csv.n_points")
        if n_points < 1:
            raise ConfigError("output.grid_csv.n_points must be >= 1")
    files["diagnostics_json"] = output.get("diagnostics_json", "diagnostics.json")
    targets = {}
    for key, name in files.items():
        if not isinstance(name, str) or not name:
            raise ConfigError(f"output.{key} must be a non-empty file name")
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
    """All of the solve's artifacts or none of them.

    Each artifact is written to a temporary file beside its target; they
    are renamed into place only after every write has succeeded, and on any
    failure the temporary files are removed.
    """
    staged = {}
    try:
        for key, path in paths.items():
            fd, staged[key] = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            os.close(fd)
        export_trace_csv(trace, staged["trace_csv"])
        if "trace_json" in staged:
            export_trace_json(trace, staged["trace_json"])
        if "grid_csv" in staged:
            xs = np.linspace(0.0, trace.operator.length, n_points)
            export_trace_grid_csv(trace, xs, staged["grid_csv"])
        _atomic_write(staged["diagnostics_json"],
                      dumps_json(trace.diagnostics) + "\n")
        for key, tmp in staged.items():
            os.replace(tmp, paths[key])
    except BaseException:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def cmd_solve(args):
    cfg = _load_config(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out_dir or base_dir
    problem = cfg.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("config needs a 'problem' table")
    kind = problem.get("kind")
    if kind not in ("forward", "nonlocal", "backward"):
        raise ConfigError(f"problem.kind must be forward|nonlocal|backward, "
                          f"got {kind!r}")
    try:
        _check_referenced_files(cfg, base_dir)
        op = _build_operator(_table(cfg, "operator"))
        rho = _num(problem.get("rho"), "problem.rho")
        gamma = _num(problem.get("gamma"), "problem.gamma")
        horizon = _num(problem.get("horizon"), "problem.horizon")
        data = _build_data(_table(cfg, "data"), op, base_dir)
        source = _build_source(_table(cfg, "source"), op, rho,
                               gamma, base_dir)
        grid = _build_grid(problem.get("time_grid"), horizon)
        q = _build_quadrature(_table(cfg, "quadrature"))
        spec = ProblemSpec(kind, op, rho, gamma, horizon, data, source, grid)
        files, n_points = _plan_outputs(_table(cfg, "output"), op, out_dir)
    except (ConfigError, IngestError):
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    solver = {"forward": solve_forward, "nonlocal": solve_nonlocal,
              "backward": solve_backward}[kind]
    try:
        trace = solver(spec, q)
    except ValueError as exc:  # e.g. a density argument underflowing to 0
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


DERIVATIVE_BATCH = 600  # times per dB/dt call: the engine refines a batch whole


def cmd_kernel(args):
    if args.t_steps < 1:
        raise ConfigError("--t-steps must be >= 1")
    if not 0.0 <= args.t_start <= args.t_end < math.inf:
        raise ConfigError("need 0 <= --t-start <= --t-end, both finite")
    try:
        p = KernelParams(args.rho, args.gamma, args.lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.t_steps == 1:
        ts = np.array([args.t_start])
    else:
        ts = np.linspace(args.t_start, args.t_end, args.t_steps)
    a = _contour_values("A", p, ts)
    b = _contour_values("B", p, ts)
    db = np.full(ts.size, math.nan)
    late = np.flatnonzero(ts >= MIN_DERIVATIVE_TIME)
    for i in range(0, late.size, DERIVATIVE_BATCH):
        rows = late[i:i + DERIVATIVE_BATCH]
        db[rows], _ = eval_dB_dt_grid(p, ts[rows])
    print("t,A,B,dA_dt,dB_dt")
    for row in zip(ts, a, b, -p.lam * b, db):
        print(",".join(f"{v:.17g}" for v in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    names = [args.suite] if args.suite else None
    try:
        report = run_suites(names, tolerance_override=args.tolerance_override)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    print(dumps_json(report))
    if not report["passed"]:
        print(f"FAILED: {', '.join(report['failed'])}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence


def cmd_convergence(args):
    cfg = _load_config(args.config)
    dts = cfg.get("dts")
    if not isinstance(dts, list) or not dts:
        raise ConfigError("config needs a non-empty 'dts' list")
    dts = [_num(v, "dts") for v in dts]
    if any(dt <= 0.0 for dt in dts):
        raise ConfigError("dts must be positive")
    rho = _num(cfg.get("rho", 0.5), "rho")
    gamma = _num(cfg.get("gamma", 1.0), "gamma")
    lam = _num(cfg.get("lambda", 1.0), "lambda")
    horizon = _num(cfg.get("horizon", 1.0), "horizon")
    if horizon <= 0.0:
        raise ConfigError("horizon must be positive")
    target_kind = cfg.get("target", "kernel")
    try:
        p = KernelParams(rho, gamma, lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if target_kind == "kernel":
        reference = eval_A(p, horizon)
        values = []
        for dt in dts:
            grid = L1Grid(dt, round(horizon / dt), rho)
            values.append(float(solve_scalar(lam, gamma, rho, 1.0, None, grid)[-1]))
    elif target_kind == "manufactured":
        reference = horizon ** 2
        source = manufactured_quadratic_source(explicit_spectrum([lam]), rho,
                                               gamma)
        values = []
        for dt in dts:
            grid = L1Grid(dt, round(horizon / dt), rho)
            values.append(float(solve_scalar(lam, gamma, rho, 0.0,
                                             source(grid.times)[:, 0], grid)[-1]))
    else:
        raise ConfigError("target must be 'kernel' or 'manufactured'")

    errors = [abs(v - reference) for v in values]
    orders = []
    for i in range(1, len(errors)):
        if errors[i] > 0.0 and errors[i - 1] > 0.0 and dts[i] != dts[i - 1]:
            orders.append(math.log(errors[i - 1] / errors[i])
                          / math.log(dts[i - 1] / dts[i]))
        else:
            orders.append(math.nan)
    extrapolated = None
    if len(values) >= 2 and all(
        math.isclose(dts[i] / dts[i + 1], 2.0, rel_tol=1e-9)
        for i in range(len(dts) - 1)
    ):
        result = richardson_extrapolate(values)
        extrapolated = {
            "value": result.value,
            "observed_order": result.observed_order,
            "order_reliable": result.order_reliable,
        }
    report = {
        "target": target_kind,
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
    p_verify.add_argument("--tolerance-override", type=float, default=None,
                          help="replace every suite tolerance (fault injection)")
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
    except (SolverError, QuadratureNonconvergence) as exc:
        return _emit_error(EXIT_SOLVER, "solver", str(exc))


if __name__ == "__main__":
    sys.exit(main())
