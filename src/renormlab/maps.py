"""Even unimodal maps of [-1, 1] with a quadratic tip at the origin.

Maps are stored as f(x) = phi(x^2) with phi a polynomial on [0, 1], normalized
so f(0) = phi(0) = 1 and phi strictly decreasing.  That decomposition makes
evenness and the quadratic critical point structural instead of numerical: the
coefficient vector of phi is the state everything downstream (renormalization,
Newton, spectra) operates on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import basis as _basis
from .basis import PhiBasis
from .errors import DomainError, InvalidMap

NORMALIZATION_TOL = 1e-12
RANGE_TOL = 1e-12
EVAL_SLACK = 1e-9


def _check_grid(degree: int) -> np.ndarray:
    # endpoints included: the extremes of a monotone phi live there
    return np.linspace(0.0, 1.0, max(4 * degree + 1, 17))


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

    Construction validates the structure and raises InvalidMap on violation;
    pass check=False only to build deliberately broken maps for diagnostics.
    """

    coeffs: np.ndarray
    basis: PhiBasis = PhiBasis.ORTHOGONAL
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidMap("coefficient vector must be 1-d with degree >= 1")
        if arr.size - 1 > _basis.DEGREE_MAX:
            raise InvalidMap(f"degree above {_basis.DEGREE_MAX} unsupported")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if self.check:
            diag = validate(self)
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
        """Coefficients of dphi/du, cached."""
        dc = self.__dict__.get("_dcoeffs")
        if dc is None:
            dc = _basis.deriv_coeffs(self.coeffs, self.basis)
            object.__setattr__(self, "_dcoeffs", dc)
        return dc

    def phi(self, u):
        return _basis.eval_phi(self.coeffs, self.basis, u)

    def phi_deriv(self, u):
        return _basis.eval_phi(self.deriv_coeffs(), self.basis, u)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 1.0 + EVAL_SLACK):
            worst = float(np.max(np.abs(x)))
            raise DomainError(f"evaluation point |x| = {worst} outside [-1, 1]")
        u = np.clip(x, -1.0, 1.0) ** 2
        out = self.phi(u)
        return out if out.ndim else float(out)

    def to_json(self) -> str:
        payload = {"basis": self.basis.value,
                   "degree": self.degree,
                   "coeffs": [float(c) for c in self.coeffs]}
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "UnimodalMap":
        """Inverse of to_json; malformed JSON, a missing key or an unknown
        basis tag raises InvalidMap."""
        try:
            payload = json.loads(text)
            coeffs = np.asarray(payload["coeffs"], dtype=float)
            degree = payload["degree"]
            basis = PhiBasis(payload["basis"])
        except KeyError as err:
            raise InvalidMap(f"map JSON lacks the key {err}") from None
        except (TypeError, ValueError) as err:
            raise InvalidMap(f"map JSON: {err}") from None
        if degree != coeffs.size - 1:
            raise InvalidMap("degree field inconsistent with coefficient count")
        return UnimodalMap(coeffs, basis)


def validate(f: UnimodalMap) -> MapDiagnostics:
    """Structural diagnostics; never raises."""
    grid = _check_grid(f.degree)
    vals = f.phi(grid)
    return MapDiagnostics(
        normalization_residual=abs(_basis.phi_at_zero(f.coeffs, f.basis)
                                   - 1.0),
        monotonicity_margin=np.min(-f.phi_deriv(grid)),
        range_min=np.min(vals),
        range_max=np.max(vals),
    )


@dataclass(frozen=True)
class Orbit:
    points: np.ndarray
    clamp_excess: float   # total overshoot beyond [-1, 1] absorbed by clipping

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return self.points.size


def orbit(f: UnimodalMap, x0: float, n: int) -> Orbit:
    """x0, f(x0), ..., f^n(x0), clamped to [-1, 1] with the excess recorded."""
    if abs(x0) > 1.0 + EVAL_SLACK:
        raise DomainError(f"orbit start {x0} outside [-1, 1]")
    pts = np.empty(n + 1)
    excess = 0.0
    x = float(np.clip(x0, -1.0, 1.0))
    excess += max(0.0, abs(x0) - 1.0)
    pts[0] = x
    for k in range(1, n + 1):
        x = float(f.phi(x * x))
        excess += max(0.0, abs(x) - 1.0)
        x = min(1.0, max(-1.0, x))
        pts[k] = x
    return Orbit(points=pts, clamp_excess=excess)


@dataclass(frozen=True)
class QuadraticFamily:
    """f_c(x) = 1 - c x^2 for c in (0, 2]."""

    c_min: float = 0.0
    c_max: float = 2.0

    def member(self, c: float, degree: int = 1) -> UnimodalMap:
        """Exact coefficients of phi(u) = 1 - c u, zero-padded to degree."""
        if not (self.c_min < c <= self.c_max):
            raise DomainError(f"family parameter c = {c} outside ({self.c_min}, {self.c_max}]")
        if degree < 1:
            raise DomainError("degree must be at least 1")
        # 1 - c u = (1 - c/2) - (c/2) T_1(2u - 1)
        coeffs = np.zeros(degree + 1)
        coeffs[0] = 1.0 - c / 2.0
        coeffs[1] = -c / 2.0
        return UnimodalMap(coeffs)

    def critical_value_map(self, c, q: int):
        """f_c^q(0): a Python float for a scalar c (the root finders call
        it in a loop), an array for an array of parameters; both paths round
        the same operations and agree bit for bit."""
        c = float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=float)
        x = 0.0 * c
        for _ in range(q):
            x = 1.0 - c * x * x
        return x
