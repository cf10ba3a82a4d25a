import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from renormlab.basis import (PhiBasis, collocation_nodes, deriv_coeffs,
                             eval_phi, fit_phi, project_function)

BASIS = PhiBasis.ORTHOGONAL


def random_coeffs(rng, degree, rows=None):
    """Coefficients of size O(1/n), so phi stays O(1) at every degree."""
    shape = (degree + 1,) if rows is None else (rows, degree + 1)
    return rng.uniform(-1.0, 1.0, shape) / (1.0 + np.arange(degree + 1))


@pytest.mark.parametrize("degree", [1, 16, 64])
def test_fit_recovers_a_chebyshev_polynomial(degree):
    rng = np.random.default_rng(degree)
    u = collocation_nodes(2 * (degree + 1))
    for _ in range(5):
        want = random_coeffs(rng, degree)
        got, residual = fit_phi(u, cheb.chebval(2.0 * u - 1.0, want),
                                degree, BASIS)
        assert np.max(np.abs(got - want)) < 1e-13
        assert residual <= 1e-14
        # project_function samples on exactly these nodes
        projected, _ = project_function(
            lambda v: cheb.chebval(2.0 * v - 1.0, want), degree, BASIS)
        assert np.array_equal(projected, got)


@pytest.mark.parametrize("degree", [1, 16, 64])
def test_stacked_fit_agrees_with_row_fits(degree):
    rng = np.random.default_rng(100 + degree)
    u = collocation_nodes(2 * (degree + 1))
    # a degree-(D+4) stack, so the residuals are not all at rounding level
    values = cheb.chebval(2.0 * u - 1.0, random_coeffs(rng, degree + 4, 6).T)
    coeffs, residual = fit_phi(u, values, degree, BASIS)
    assert coeffs.shape == (6, degree + 1) and residual.shape == (6,)
    for i in range(6):
        row, row_res = fit_phi(u, values[i], degree, BASIS)
        # one solve for the stack and one per row round differently
        assert np.max(np.abs(coeffs[i] - row)) < 1e-14
        assert abs(residual[i] - row_res) < 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_deriv_coeffs_match_central_differences(order):
    rng = np.random.default_rng(11)
    u = np.linspace(0.05, 0.95, 13)
    h = 1e-5
    for coeffs in random_coeffs(rng, 8, 3):
        lower = (coeffs if order == 1
                 else deriv_coeffs(coeffs, BASIS, order - 1))
        diff = (eval_phi(lower, BASIS, u + h)
                - eval_phi(lower, BASIS, u - h)) / (2.0 * h)
        exact = eval_phi(deriv_coeffs(coeffs, BASIS, order), BASIS, u)
        # truncation h^2 phi^(order+2) / 6 is about 1e-8 of the scale here
        assert np.max(np.abs(exact - diff)) < 1e-7 * np.max(np.abs(exact))
