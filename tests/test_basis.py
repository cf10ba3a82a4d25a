import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import chebyshev as cheb

from renormlab.basis import (clenshaw, collocation_nodes, deriv_coeffs,
                             eval_phi, eval_rows, fit_phi, padded,
                             phi_at_zero, project_function, trimmed)

from oracles import eval_rows_by_repeat, padded_by_pad

degrees = st.integers(min_value=0, max_value=64)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
args = st.floats(min_value=-1.1, max_value=1.1)


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
        got, residual = fit_phi(cheb.chebval(2.0 * u - 1.0, want), degree)
        assert np.max(np.abs(got - want)) < 1e-13
        assert residual <= 1e-14
        # project_function samples on exactly these nodes
        projected, _ = project_function(
            lambda v: cheb.chebval(2.0 * v - 1.0, want), degree)
        assert np.array_equal(projected, got)


@pytest.mark.parametrize("degree", [1, 16, 64])
def test_stacked_fit_agrees_with_row_fits(degree):
    rng = np.random.default_rng(100 + degree)
    u = collocation_nodes(2 * (degree + 1))
    # a degree-(D+4) stack, so the residuals are not all at rounding level
    values = cheb.chebval(2.0 * u - 1.0, random_coeffs(rng, degree + 4, 6).T)
    coeffs, residual = fit_phi(values, degree)
    assert coeffs.shape == (6, degree + 1) and residual.shape == (6,)
    for i in range(6):
        row, row_res = fit_phi(values[i], degree)
        # one solve for the stack and one per row round differently
        assert np.max(np.abs(coeffs[i] - row)) < 1e-14
        assert abs(residual[i] - row_res) < 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_deriv_coeffs_match_central_differences(order):
    rng = np.random.default_rng(11)
    u = np.linspace(0.05, 0.95, 13)
    h = 1e-5
    for coeffs in random_coeffs(rng, 8, 3):
        # order 2 differentiates phi' = deriv_coeffs(coeffs) once more
        lower = coeffs if order == 1 else deriv_coeffs(coeffs)
        diff = (eval_phi(lower, u + h)
                - eval_phi(lower, u - h)) / (2.0 * h)
        exact = eval_phi(deriv_coeffs(lower), u)
        # truncation h^2 phi^(order+2) / 6 is about 1e-8 of the scale here
        assert np.max(np.abs(exact - diff)) < 1e-7 * np.max(np.abs(exact))


# clenshaw is numpy's chebval, operation for operation: the tests compare
# with == (np.array_equal), never with a tolerance.

@settings(max_examples=300, deadline=None)
@given(degree=degrees, seed=seeds, t=args)
def test_clenshaw_is_chebval_on_python_floats(degree, seed, t):
    c = random_coeffs(np.random.default_rng(seed), degree)
    got = clenshaw(c.tolist(), t)
    assert type(got) is float
    assert got == cheb.chebval(t, c)


@settings(max_examples=200, deadline=None)
@given(degree=degrees, seed=seeds,
       ts=st.lists(args, min_size=1, max_size=40))
def test_clenshaw_is_chebval_on_arrays(degree, seed, ts):
    c = random_coeffs(np.random.default_rng(seed), degree)
    t = np.array(ts)
    assert np.array_equal(clenshaw(c, t), cheb.chebval(t, c))
    u = (t + 1.0) / 2.0
    assert np.array_equal(eval_phi(c, u),
                          cheb.chebval(2.0 * u - 1.0, c))
    assert phi_at_zero(c) == cheb.chebval(-1.0, c)


def _bytes_up_to_zero_sign(got, want):
    """got and want as float64 bytes, a zero of either sign read as +0.0."""
    got, want = (np.where(np.asarray(v) == 0.0, 0.0, v) for v in (got, want))
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(c=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1,
                  max_size=65).filter(lambda c: c[-1] != 0.0),
       k=st.integers(min_value=1, max_value=64),
       ts=st.lists(args, min_size=1, max_size=40))
@example(c=[1.0, 1.0], k=3, ts=[-1.0, 0.0])  # zero results
@example(c=[-0.5, 0.0, 2.0], k=1, ts=[0.5, -1.0])
def test_a_zero_top_changes_no_clenshaw_value(c, k, ts):
    """clenshaw over c with k zeros appended gives clenshaw over c, as
    bytes, on Python floats and on float64 arrays, and trimmed drops
    exactly those zeros again.  This is what lets a map evaluate over its
    series instead of its coefficients."""
    top = c + [0.0] * k
    for t in ts:
        got, want = clenshaw(top, t), clenshaw(c, t)
        assert type(got) is float and _bytes_up_to_zero_sign(got, want)
    t = np.array(ts)
    assert _bytes_up_to_zero_sign(clenshaw(np.array(top), t),
                                  clenshaw(np.array(c), t))
    assert trimmed(np.array(top)).tobytes() == np.array(c).tobytes()


def test_trimmed_keeps_one_coefficient_and_every_nonzero_one():
    assert trimmed(np.zeros(5)).tolist() == [0.0]
    assert trimmed(np.array([0.0, -0.0])).tobytes() == b"\0" * 8
    assert trimmed(np.array([1.0, 0.0, 2.0, 0.0, -0.0])).tolist() == [
        1.0, 0.0, 2.0]
    assert np.isnan(trimmed(np.array([1.0, np.nan, 0.0]))[-1])
    c = np.array([0.5, -0.5, 0.0])
    assert np.shares_memory(trimmed(c), c)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-1e250, max_value=1e250), min_size=1,
                max_size=65))
@example([-2.0])  # degree 0: chebder returns c[:1] * 0, here -0.0
def test_first_derivative_is_chebder_bit_for_bit(c):
    """The Python-float recurrence of deriv_coeffs against numpy's chebder
    at every degree 0 to 64, compared as bytes, so the sign of a zero
    counts.  The bound on |c| keeps the recurrence finite."""
    c = np.array(c)
    got, want = deriv_coeffs(c), cheb.chebder(c) * 2.0
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(degree=degrees, seed=seeds,
       ts=st.lists(args, min_size=1, max_size=40))
def test_clenshaw_stack_of_phi_and_padded_derivative(degree, seed, ts):
    """A (D+1, 2, 1) stack of phi and phi' padded with a trailing zero,
    which changes at most the sign of a zero."""
    c = random_coeffs(np.random.default_rng(seed), degree)
    dc = deriv_coeffs(c)
    stack = np.zeros((degree + 1, 2, 1))
    stack[:, 0, 0] = c
    stack[:dc.size, 1, 0] = dc
    t = np.array(ts)
    vals, derivs = clenshaw(stack, t)
    assert np.array_equal(vals, cheb.chebval(t, c))
    assert np.array_equal(derivs, cheb.chebval(t, dc))


@settings(max_examples=60, deadline=None)
@given(degree=degrees, seed=seeds,
       ts=st.lists(args, min_size=1, max_size=8))
def test_clenshaw_runs_unchanged_on_other_number_types(degree, seed, ts):
    """The same kernel on mpmath numbers at 40 digits and on np.longdouble
    arrays: both agree with the double result to within the rounding of
    double Clenshaw, 1e-15 per degree of the scale sum_k |c_k| |T_k(t)|."""
    c = random_coeffs(np.random.default_rng(seed), degree)
    t = np.array(ts)
    double = clenshaw(c, t)
    scale = clenshaw(np.abs(c), np.maximum(np.abs(t), 1.0))
    tol = 1e-15 * (degree + 1) * scale
    with mpmath.workdps(40):
        mp = [clenshaw([mpmath.mpf(x) for x in c], mpmath.mpf(x)) for x in ts]
    assert all(isinstance(v, mpmath.mpf) for v in mp)
    assert np.all(np.abs(np.array(mp, dtype=float) - double) <= tol)
    long = clenshaw(c.astype(np.longdouble), t.astype(np.longdouble))
    assert long.dtype == np.longdouble
    assert np.all(np.abs(long.astype(float) - double) <= tol)


_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0, -1.0]
_values = st.one_of(st.sampled_from(_EDGES), st.floats())


def _vectors(min_size=0, max_size=8):
    return st.integers(min_size, max_size).flatmap(
        lambda n: hnp.arrays(np.float64, n, elements=_values))


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@given(c=_vectors(), extra=st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_padded_is_np_pad(c, extra):
    assert _same_bytes(padded(c, len(c) - 1 + extra),
                       padded_by_pad(c, len(c) - 1 + extra))


@given(rows=st.lists(_vectors(min_size=1), min_size=1, max_size=4),
       t=_vectors())
@settings(max_examples=200, deadline=None)
def test_eval_rows_is_its_pass_over_repeated_and_tiled_planes(rows, t):
    """The planes filled by broadcast give the bytes of the planes built
    by np.repeat and np.tile: the same values in the same layout."""
    with np.errstate(all="ignore"):
        got, want = eval_rows(rows, t), eval_rows_by_repeat(rows, t)
    assert _same_bytes(got, want)


@pytest.mark.parametrize("n", [1, 97, 400])
@pytest.mark.parametrize("degrees", [
    (0,), (1,), (2,), (24,), (64,),
    (24, 23), (0, 64), (64, 1), (2, 2),
    (1, 2, 24), (64, 24, 0), (24, 24, 24)])
def test_eval_rows_is_one_clenshaw_pass_per_row(degrees, n):
    """eval_rows against a separate clenshaw pass per row, with ==: rows of
    mixed lengths are zero-padded at the top, which changes at most the
    sign of a zero, and np.array_equal counts -0.0 == 0.0."""
    rng = np.random.default_rng(1000 * len(degrees) + sum(degrees) + n)
    rows = [random_coeffs(rng, d) for d in degrees]
    t = rng.uniform(-1.0, 1.0, n)
    got = eval_rows(rows, t)
    assert got.shape == (len(rows), n)
    for c, values in zip(rows, got):
        assert np.array_equal(values, clenshaw(c, t))
