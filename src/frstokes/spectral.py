"""Discrete-spectrum model of the spatial operator and its Hilbert scale.

The abstract self-adjoint positive operator is represented by its ascending
eigenvalues; the concrete instance is the 1-D Dirichlet Laplacian on (0, L)
with lam_k = (k pi / L)^2 and orthonormal sine eigenfunctions.  Elements of
the state space are finite coefficient sequences in the eigenbasis, and the
fractional-power norms weight mode k by lam_k^tau.
"""

from __future__ import annotations

import csv
import math
import numbers
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralOperator",
    "CoefficientField",
    "AliasingWarning",
    "dirichlet_laplacian_1d",
    "explicit_spectrum",
    "basis_field",
    "project",
    "synthesize",
    "norm_tau",
    "tail_indicator",
    "load_field_csv",
]


class AliasingWarning(UserWarning):
    """Spatial grid too coarse for the requested mode count."""


def _check_index(k, n_modes) -> None:
    """Refuse a mode index k that is not an integer in 1..n_modes."""
    if not (isinstance(k, numbers.Integral) and 1 <= k <= n_modes):
        raise ValueError(f"mode index {k} is not an integer in 1..{n_modes}")


@dataclass(frozen=True)
class SpectralOperator:
    """Ascending positive spectrum, optionally with evaluable eigenfunctions.

    kind is "dirichlet_laplacian_1d" (length holds L, eigenfunctions are
    normalized sines) or "explicit_spectrum" (sequence-space model, no
    eigenfunction evaluation).
    """

    eigenvalues: np.ndarray
    kind: str
    length: float | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("need a one-dimensional, non-empty spectrum")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if not ev[0] > 0.0:
            raise ValueError("smallest eigenvalue must be positive")
        if np.any(np.diff(ev) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def has_eigenfunctions(self) -> bool:
        return self.kind == "dirichlet_laplacian_1d"

    def eigenfunction(self, k: int, x) -> np.ndarray:
        """v_k sampled at x (k is 1-based)."""
        if not self.has_eigenfunctions:
            raise ValueError(
                "operator kind %r has no evaluable eigenfunctions" % self.kind
            )
        _check_index(k, self.n_modes)
        xs = np.asarray(x, dtype=float)
        L = self.length
        return math.sqrt(2.0 / L) * np.sin(k * math.pi * xs / L)


def dirichlet_laplacian_1d(L: float, N: int) -> SpectralOperator:
    """Dirichlet Laplacian on (0, L) truncated to N modes: lam_k = (k pi/L)^2."""
    if not L > 0.0:
        raise ValueError("domain length must be positive")
    if not (isinstance(N, numbers.Integral) and N >= 1):
        raise ValueError("mode count must be an integer >= 1")
    top = N * math.pi / L
    if not top * top < math.inf:
        raise ValueError("the largest eigenvalue (N pi / L)^2 overflows the "
                         "float range")
    k = np.arange(1, N + 1, dtype=float)
    return SpectralOperator((k * math.pi / L) ** 2, "dirichlet_laplacian_1d", L)


def explicit_spectrum(eigenvalues) -> SpectralOperator:
    """Sequence-space operator given directly by its spectrum."""
    return SpectralOperator(np.asarray(eigenvalues, dtype=float),
                            "explicit_spectrum")


@dataclass(frozen=True)
class CoefficientField:
    """Coefficients of a state-space element in the operator eigenbasis."""

    coefficients: np.ndarray
    operator: SpectralOperator

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if coeffs.size != self.operator.n_modes:
            raise ValueError(
                f"{coeffs.size} coefficients for {self.operator.n_modes} modes"
            )
        object.__setattr__(self, "coefficients", coeffs)


def basis_field(op: SpectralOperator, k: int) -> CoefficientField:
    """The k-th basis element e_k (k is 1-based)."""
    _check_index(k, op.n_modes)
    coeffs = np.zeros(op.n_modes)
    coeffs[k - 1] = 1.0
    return CoefficientField(coeffs, op)


def project(x, values, op: SpectralOperator) -> CoefficientField:
    """Fourier coefficients h_k = (h, v_k) from grid samples, by trapezoid.

    The sine basis is smooth and vanishes at the ends, so the composite
    trapezoid rule on a uniform grid converges spectrally.  Warns when the
    grid resolves the highest requested mode with fewer than 8 points per
    wavelength.
    """
    if not op.has_eigenfunctions:
        raise ValueError("projection needs an operator with eigenfunctions")
    xs = np.asarray(x, dtype=float)
    vals = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != vals.shape:
        raise ValueError("x and values must be matching one-dimensional arrays")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vals))):
        raise ValueError("x and values must be finite")
    if xs.size < 2 or np.any(np.diff(xs) <= 0.0):
        raise ValueError("x must be strictly increasing")
    points_per_wavelength = 2.0 * (xs.size - 1) / op.n_modes
    if points_per_wavelength < 8.0:
        warnings.warn(
            f"grid resolves mode {op.n_modes} with only "
            f"{points_per_wavelength:.1f} points per wavelength",
            AliasingWarning, stacklevel=2,
        )
    coeffs = np.empty(op.n_modes)
    for k in range(1, op.n_modes + 1):
        coeffs[k - 1] = np.trapezoid(vals * op.eigenfunction(k, xs), xs)
    return CoefficientField(coeffs, op)


def synthesize(field, x) -> np.ndarray:
    """Sample sum_k h_k v_k(x) on the given spatial points.

    field is anything with an operator and coefficients whose last axis is
    the mode: a CoefficientField, or a solvers.SolutionTrace, one row per
    node.  The result has the coefficients' leading shape followed by x's,
    and adds the modes in order, so each row's sum is the one a
    CoefficientField of that row gives, bit for bit.
    """
    op = field.operator
    if not op.has_eigenfunctions:
        raise ValueError("synthesis needs an operator with eigenfunctions")
    xs = np.asarray(x, dtype=float)
    c = field.coefficients
    out = np.zeros(c.shape[:-1] + xs.shape)
    for k in range(1, op.n_modes + 1):
        out += np.multiply.outer(c[..., k - 1], op.eigenfunction(k, xs))
    return out


def norm_tau(field: CoefficientField, tau: float) -> float:
    """Fractional-power norm (sum_k lam_k^(2 tau) h_k^2)^(1/2)."""
    lam = field.operator.eigenvalues
    return float(np.sqrt(np.sum(lam ** (2.0 * tau) * field.coefficients ** 2)))


def tail_indicator(field: CoefficientField) -> float:
    """lam_N^2 |h_N|^2: the truncation-quality diagnostic surfaced to users."""
    lam = field.operator.eigenvalues
    return float((lam[-1] * field.coefficients[-1]) ** 2)


# a CSV field that is a number: ASCII decimal, whitespace around it allowed
_DECIMAL = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*",
                      re.ASCII)


def _read_csv(path):
    """Header names and float64 rows of a UTF-8 CSV file, a byte-order mark
    allowed: '#' starts a comment and blank lines are skipped, the header's
    names are stripped and lower-cased, and each later line is one finite
    ASCII decimal number per name, else ValueError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader((s.partition("#")[0].strip() + "\n"
                                 for s in fh), strict=True)
            rows = [(reader.line_num, row) for row in reader if row]
        if not rows:
            raise ValueError("no header line")
        names = [name.strip().lower() for name in rows[0][1]]
        data = np.empty((len(rows) - 1, len(names)))
        for i, (line, row) in enumerate(rows[1:]):
            ok = len(row) == len(names) and all(map(_DECIMAL.fullmatch, row))
            data[i] = [float(f) for f in row] if ok else math.nan
            if not all(map(math.isfinite, data[i])):
                raise ValueError(f"line {line}: need one finite number per name")
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return names, data


def load_field_csv(path, op: SpectralOperator) -> CoefficientField:
    """`x,value` samples (projected) or `k,coefficient` rows, by _read_csv."""
    header, rows = _read_csv(path)
    if header == ["x", "value"]:
        return project(rows[:, 0], rows[:, 1], op)
    if header != ["k", "coefficient"]:
        raise ValueError(f"{path}: expected header x,value or k,coefficient, "
                         f"got {header}")
    coeffs = np.zeros(op.n_modes)
    seen = set()
    for k, c in rows:
        if not (k.is_integer() and 1 <= k <= op.n_modes):
            raise ValueError(f"{path}: mode index {k:.17g} outside "
                             f"1..{op.n_modes}")
        if k in seen:
            raise ValueError(f"{path}: mode index {k:.17g} given twice")
        seen.add(k)
        coeffs[int(k) - 1] = c
    return CoefficientField(coeffs, op)
