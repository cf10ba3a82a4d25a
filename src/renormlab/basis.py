"""Polynomial bases for the even factor phi(u), u = x^2 on [0, 1].

A unimodal map with quadratic tip is stored as f(x) = phi(x^2) where phi is a
polynomial on [0, 1].  Two coefficient bases are supported: Chebyshev
polynomials shifted to [0, 1] (the default, stable to high degree) and plain
monomials in u (capped at low degree, for hand-checkable cases).  All fitting
goes through least squares on first-kind Chebyshev nodes with the sup residual
at the nodes reported, so truncation loss is observable rather than silent.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly


class PhiBasis(str, Enum):
    ORTHOGONAL = "orthogonal-u"  # Chebyshev T_n(2u - 1)
    MONOMIAL = "monomial-u"      # u^n


# Monomial Vandermonde conditioning degrades fast; refuse silly degrees.
MONOMIAL_DEGREE_CAP = 20

DEGREE_MIN = 1
DEGREE_MAX = 64


def collocation_nodes(count: int) -> np.ndarray:
    """First-kind Chebyshev points mapped to (0, 1), ascending."""
    t = _cheb.chebpts1(count)
    return np.sort((t + 1.0) / 2.0)


def design_matrix(u, degree: int, basis: PhiBasis) -> np.ndarray:
    """Rows evaluate the basis at u: shape (len(u), degree + 1)."""
    u = np.asarray(u, dtype=float)
    if basis is PhiBasis.ORTHOGONAL:
        return _cheb.chebvander(2.0 * u - 1.0, degree)
    return _poly.polyvander(u, degree)


def eval_phi(coeffs: np.ndarray, basis: PhiBasis, u):
    """phi(u) via Clenshaw (orthogonal) or Horner (monomial).

    A coefficient stack of shape (n, D+1) evaluates row i at u[i], all rows
    in one pass; u broadcasts against (n, 1)."""
    u = np.asarray(u, dtype=float)
    tensor = np.ndim(coeffs) == 1
    if not tensor:
        coeffs = np.asarray(coeffs).T[..., None]
    if basis is PhiBasis.ORTHOGONAL:
        return _cheb.chebval(2.0 * u - 1.0, coeffs, tensor=tensor)
    return _poly.polyval(u, coeffs, tensor=tensor)


def deriv_coeffs(coeffs: np.ndarray, basis: PhiBasis, order: int = 1) -> np.ndarray:
    """Coefficients of d^order phi / du^order in the same basis (per row of
    a stack)."""
    if basis is PhiBasis.ORTHOGONAL:
        # t = 2u - 1, so each u-derivative picks up a factor 2
        return _cheb.chebder(coeffs, order, axis=-1) * (2.0 ** order)
    return _poly.polyder(coeffs, order, axis=-1)


def phi_at_zero(coeffs: np.ndarray, basis: PhiBasis):
    """phi(0), one value per row of a stack."""
    coeffs = np.asarray(coeffs, dtype=float)
    if basis is PhiBasis.ORTHOGONAL:
        return _cheb.chebval(-1.0, coeffs.T)
    return coeffs[..., 0]


def normalized_constant(coeffs: np.ndarray, basis: PhiBasis) -> np.ndarray:
    """Shift the constant coefficient so phi(0) = 1 exactly (every row).

    Both bases have a constant element equal to 1, so the shift is exact."""
    out = np.array(coeffs, dtype=float)
    out[..., 0] += 1.0 - phi_at_zero(out, basis)
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


def project_function(fn, degree: int, basis: PhiBasis,
                     oversample: int = 2) -> tuple[np.ndarray, float]:
    """Project a callable of u onto the basis; returns (coeffs, residual)."""
    u = collocation_nodes(oversample * (degree + 1))
    return fit_phi(u, np.asarray(fn(u), dtype=float), degree, basis)
