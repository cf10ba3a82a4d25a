"""Even unimodal maps of [-1, 1] with a quadratic tip at the origin.

Maps are stored as f(x) = phi(x^2) with phi a polynomial on [0, 1], normalized
so f(0) = phi(0) = 1 and phi strictly decreasing.  That decomposition makes
evenness and the quadratic critical point structural instead of numerical: the
coefficient vector of phi is the state everything downstream (renormalization,
Newton, spectra) operates on.  A UnimodalMap is validated on construction, so
every map is normalized, decreasing in u and maps [-1, 1] into itself; validate
reports on any coefficient vector, including those that make no map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import basis as _basis
from .errors import DomainError, InvalidMap

NORMALIZATION_TOL = 1e-12
RANGE_TOL = 1e-12
EVAL_SLACK = 1e-9


@cache
def _check_matrix(degree: int) -> np.ndarray:
    """validate's read-only (2n, D+1) matrix, built once per degree: the
    design rows at n grid points over the rows of phi' there, so one
    product with the coefficients gives phi and phi' at once.  Column k of
    the derivative operator is basis.deriv_coeffs of the k-th unit vector.

    u runs over [0, 1] with both endpoints, where the extremes of a monotone
    phi live; row 0 is u = 0."""
    u = np.linspace(0.0, 1.0, max(4 * degree + 1, 17))
    rows = _basis.design_matrix(u, degree)
    deriv = np.array([_basis.deriv_coeffs(e) for e in np.eye(degree + 1)])
    mat = np.vstack([rows, rows[:, :-1] @ deriv.T])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class MapDiagnostics:
    """Never-raising structural report for a candidate map."""

    normalization_residual: float
    monotonicity_margin: float   # min over grid of -phi'(u); positive is good
    range_min: float
    range_max: float

    @property
    def ok(self) -> bool:
        return bool(self.normalization_residual <= NORMALIZATION_TOL
                    and self.monotonicity_margin > 0.0
                    and self.range_min >= -1.0 - RANGE_TOL
                    and self.range_max <= 1.0 + RANGE_TOL)


@dataclass(frozen=True)
class UnimodalMap:
    """f(x) = phi(x^2), phi polynomial on [0, 1], f(0) = 1.

    Construction validates the structure and raises InvalidMap on
    violation, so every UnimodalMap is a valid map.
    coeffs is the full-degree vector (degree, the JSON, Newton, validate);
    series, coeffs without its exact-zero top (basis.trimmed), is what
    every evaluation of the map runs over, bit for bit the same values.
    """

    coeffs: np.ndarray
    series: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidMap("coefficient vector must be 1-d with degree >= 1")
        if arr.size - 1 > _basis.DEGREE_MAX:
            raise InvalidMap(f"degree above {_basis.DEGREE_MAX} unsupported")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "series", _basis.trimmed(arr))
        diag = validate(arr)
        if not diag.ok:
            raise InvalidMap(
                "structural invariant violated: "
                f"normalization residual {diag.normalization_residual:.3e}, "
                f"monotonicity margin {diag.monotonicity_margin:.3e}, "
                f"range [{diag.range_min:.6f}, {diag.range_max:.6f}]")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def deriv_coeffs(self) -> np.ndarray:
        """Coefficients of dphi/du off the series, cached."""
        dc = self.__dict__.get("_dcoeffs")
        if dc is None:
            dc = _basis.deriv_coeffs(self.series)
            object.__setattr__(self, "_dcoeffs", dc)
        return dc

    # u by keyword: perfbench/layers.py reads a traced call's kwargs["u"]
    def phi(self, u):
        return _basis.eval_phi(self.series, u=u)

    def phi_deriv(self, u):
        return _basis.eval_phi(self.deriv_coeffs(), u=u)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.abs(x) <= 1.0 + EVAL_SLACK):  # nan fails too
            worst = float(np.max(np.abs(x)))
            raise DomainError(f"evaluation point |x| = {worst} outside [-1, 1]")
        u = np.clip(x, -1.0, 1.0) ** 2
        out = self.phi(u)
        return out if out.ndim else float(out)

    def to_json(self) -> str:
        payload = {"basis": _basis.TAG,
                   "degree": self.degree,
                   "coeffs": [float(c) for c in self.coeffs]}
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "UnimodalMap":
        """Inverse of to_json; malformed JSON, a missing key or a basis tag
        other than basis.TAG raises InvalidMap."""
        try:
            payload = json.loads(text)
            coeffs = np.asarray(payload["coeffs"], dtype=float)
            degree = payload["degree"]
            if payload["basis"] != _basis.TAG:
                raise ValueError(f"unknown basis tag {payload['basis']!r}")
        except KeyError as err:
            raise InvalidMap(f"map JSON lacks the key {err}") from None
        except (TypeError, ValueError) as err:
            raise InvalidMap(f"map JSON: {err}") from None
        if degree != coeffs.size - 1:
            raise InvalidMap("degree field inconsistent with coefficient count")
        return UnimodalMap(coeffs)


def validate(coeffs: np.ndarray) -> MapDiagnostics:
    """Structural diagnostics of phi's coefficient vector, a 1-d float
    array of size 2 or more; never raises.

    phi and phi' on the grid are one product with the cached check matrix,
    within 2(D+1) eps sum |c_k| of a Clenshaw pass (sum |c'_k| for phi');
    the values only decide the verdict and the InvalidMap message."""
    both = _check_matrix(coeffs.size - 1) @ coeffs
    n = both.size // 2
    vals, derivs = both[:n], both[n:]
    # slices and reduction methods: np.split and np.min cost more than
    # the product itself on these few points
    return MapDiagnostics(
        normalization_residual=abs(vals[0] - 1.0),
        monotonicity_margin=(-derivs).min(),
        range_min=vals.min(),
        range_max=vals.max(),
    )


@dataclass(frozen=True)
class QuadraticFamily:
    """f_c(x) = 1 - c x^2 for c in (C_MIN, C_MAX] = (0, 2]."""

    C_MIN = 0.0
    C_MAX = 2.0

    def member(self, c: float, degree: int = 1) -> UnimodalMap:
        """Exact coefficients of phi(u) = 1 - c u, zero-padded to degree."""
        if not (self.C_MIN < c <= self.C_MAX):
            raise DomainError(f"family parameter c = {c} outside ({self.C_MIN}, {self.C_MAX}]")
        if degree < 1:
            raise DomainError("degree must be at least 1")
        # 1 - c u = (1 - c/2) - (c/2) T_1(2u - 1)
        coeffs = np.zeros(degree + 1)
        coeffs[0] = 1.0 - c / 2.0
        coeffs[1] = -c / 2.0
        return UnimodalMap(coeffs)

    def iterate(self, c, x, n: int):
        """f_c^n(x) by the family's one step, keeping no orbit: a Python
        float for a scalar c (the root finders call it in a loop), an array
        for an array c, x broadcasting against it; both paths round the same
        operations and agree bit for bit, and f_c^m(f_c^n(x)) is
        f_c^(m+n)(x) as bytes."""
        if type(c) is not float:  # a float skips np.ndim's per-call cost
            c = float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=float)
        x = x + 0.0 * c
        for _ in range(n):
            x = 1.0 - c * x * x
        return x

    def critical_value_map(self, c, q: int):
        """f_c^q(0) (iterate)."""
        return self.iterate(c, 0.0, q)
