"""The Chebyshev basis for the even factor phi(u), u = x^2 on [0, 1].

A unimodal map with quadratic tip is stored as f(x) = phi(x^2) where phi is a
polynomial on [0, 1], written in Chebyshev polynomials shifted to [0, 1],
T_n(2u - 1).  Every projection onto the basis goes through one least-squares
fit on 2(D+1) first-kind Chebyshev nodes with the sup residual at the nodes
reported, so truncation loss is observable rather than silent.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.polynomial import chebyshev as _cheb


class PhiBasis(str, Enum):
    """Tag of the coefficient basis, recorded in the JSON map format and the
    reports.  There is one basis; the `basis` arguments below carry the tag
    and do not change the arithmetic."""

    ORTHOGONAL = "orthogonal-u"  # Chebyshev T_n(2u - 1)


DEGREE_MIN = 1
DEGREE_MAX = 64


def collocation_nodes(count: int) -> np.ndarray:
    """First-kind Chebyshev points mapped to (0, 1), ascending."""
    t = _cheb.chebpts1(count)
    return np.sort((t + 1.0) / 2.0)


def design_matrix(u, degree: int, basis: PhiBasis) -> np.ndarray:
    """Rows evaluate the basis at u: shape (len(u), degree + 1)."""
    u = np.asarray(u, dtype=float)
    return _cheb.chebvander(2.0 * u - 1.0, degree)


def eval_phi(coeffs: np.ndarray, basis: PhiBasis, u):
    """phi(u) via Clenshaw, elementwise over u."""
    u = np.asarray(u, dtype=float)
    return _cheb.chebval(2.0 * u - 1.0, coeffs)


def deriv_coeffs(coeffs: np.ndarray, basis: PhiBasis, order: int = 1) -> np.ndarray:
    """Coefficients of d^order phi / du^order in the same basis."""
    # t = 2u - 1, so each u-derivative picks up a factor 2
    return _cheb.chebder(coeffs, order) * (2.0 ** order)


def phi_at_zero(coeffs: np.ndarray, basis: PhiBasis) -> float:
    """phi(0)."""
    return _cheb.chebval(-1.0, np.asarray(coeffs, dtype=float))


def normalized_constant(coeffs: np.ndarray, basis: PhiBasis) -> np.ndarray:
    """Shift the constant coefficient so phi(0) = 1 to within one rounding
    (the shifted sum is rounded, so not exactly)."""
    out = np.array(coeffs, dtype=float)
    out[0] += 1.0 - phi_at_zero(out, basis)
    return out


def fit_phi(u_nodes: np.ndarray, values: np.ndarray, degree: int,
            basis: PhiBasis) -> tuple[np.ndarray, float]:
    """Least-squares coefficients for phi on the nodes plus the sup residual.

    The residual is max |phi(u_t) - values_t| over the nodes; callers decide
    whether that level of truncation loss is acceptable.  Values of shape
    (n, nodes) are n functions fitted by one solve: coefficients (n, D+1)
    and one residual per row.
    """
    mat = design_matrix(u_nodes, degree, basis)
    values = np.asarray(values, dtype=float)
    coeffs, *_ = np.linalg.lstsq(mat, values.T, rcond=None)
    residual = np.max(np.abs(mat @ coeffs - values.T), axis=0)
    return coeffs.T, residual if residual.ndim else float(residual)


def project_function(fn, degree: int,
                     basis: PhiBasis) -> tuple[np.ndarray, float]:
    """Project a callable of u onto the basis; returns (coeffs, residual).

    fn is sampled on the 2(D+1) collocation nodes; it may return one row of
    values or a stack (n, nodes) of n functions, fitted by one solve."""
    u = collocation_nodes(2 * (degree + 1))
    return fit_phi(u, np.asarray(fn(u), dtype=float), degree, basis)
