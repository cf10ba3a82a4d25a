"""The Chebyshev basis for the even factor phi(u), u = x^2 on [0, 1].

A unimodal map with quadratic tip is stored as f(x) = phi(x^2) where phi is a
polynomial on [0, 1], written in Chebyshev polynomials shifted to [0, 1],
T_n(2u - 1).  Every projection onto the basis goes through one least-squares
fit on 2(D+1) first-kind Chebyshev nodes (fit_coeffs), with the sup residual
at the nodes reported wherever a caller reads it (fit_phi,
project_function), so truncation loss is observable rather than silent.

Every evaluation whose value reaches an output goes through one kernel,
clenshaw(c, t): the Clenshaw recurrence in the operation order of
numpy.polynomial.chebyshev's series evaluator.  (maps.validate, whose
values only decide a structural verdict, takes one product with a matrix
cached per degree instead.)  From (c0, c1) = (c[-2], c[-1]), each step
k = D-2, ..., 0 is c0, c1 = c[k] - c1, c0 + c1*2t, and the value is
c0 + c1*t.  It rounds the same operations as numpy, so its values are
numpy's bit for bit, and it is generic over the number type: Python
floats (the scalar orbits), float64 arrays and coefficient stacks, and
equally np.longdouble arrays or mpmath numbers.  clenshaw_of(c) does the
pass's set-up once (c's top pair and the rest of c reversed) and returns
the pass as a function of t, so an orbit of many steps over one series
pays it once; clenshaw is clenshaw_of(c)(t).

A map's evaluations run over its series, trimmed(coeffs): the coefficient
vector without its exact-zero top.  Solved maps carry such tops (a fixed
point solved at degree 12 and padded to 24 or 48 keeps index 12 as its
last nonzero coefficient), and the trimmed pass is the padded one bit for
bit at every finite t: from (c0, c1) = (+0, +0) each step over a zero top
keeps (+0, +0), since 0 - 0 and 0 + 0*t2 round to +0, and the step over
the top nonzero c[D] then lands on (c[D-1], c[D]) exactly, which is where
the trimmed pass starts.  (A -0.0 in the top changes at most the sign of
a zero result.)

Several series evaluated at the same points go through eval_rows, which
lays them out as dense planes: the rows, zero-padded at the top to one
length, each broadcast over the points, against the points broadcast once
per row, both assigned into preallocated (D+1, k, n) and (k, n) arrays
read flat (the layout np.repeat and np.tile build, without their
per-call cost).  Every value then runs through the same rounded
operations as its own pass.  One pass over contiguous (D+1, k*n) planes
pays numpy's per-call cost once, where k passes pay it k times, and each
of its steps runs one contiguous loop, where a broadcast (D+1, k, 1)
stack runs numpy's slower broadcasting loop over a (k, 1) operand.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb


TAG = "orthogonal-u"  # the one basis, named in the map JSON and reports
DEGREE_MAX = 64


def collocation_nodes(count: int) -> np.ndarray:
    """First-kind Chebyshev points mapped to (0, 1), ascending."""
    t = _cheb.chebpts1(count)
    return np.sort((t + 1.0) / 2.0)


def design_matrix(u, degree: int) -> np.ndarray:
    """Rows evaluate the basis at u: shape (len(u), degree + 1)."""
    u = np.asarray(u, dtype=float)
    return _cheb.chebvander(2.0 * u - 1.0, degree)


def clenshaw_of(c):
    """The function t -> sum_k c[k] T_k(t), in numpy's operation order
    (module docstring), with c's set-up done once: the one place the
    recurrence is written.

    c is indexed along its first axis: a sequence of numbers, or an array
    whose rows c[k] broadcast against t, so a (D+1, n, 1) stack evaluates
    n series on every t at once.  Zeros appended to a degree-D series (top
    padding) change at most the sign of a zero: the steps over them keep
    (c0, c1) at zero and then reach (c[D-1], c[D]), where the unpadded pass
    starts.  eval_rows relies on this for rows of unequal length, and a
    map's evaluations for running over its trimmed series."""
    if len(c) > 2:
        top, rest = (c[-2], c[-1]), tuple(c[-3::-1])
    else:
        top, rest = (c[0], c[1] if len(c) == 2 else 0), ()

    def at(t):
        c0, c1 = top
        if rest:
            t2 = 2 * t
            for ck in rest:
                c0, c1 = ck - c1, c0 + c1 * t2
        return c0 + c1 * t

    return at


def clenshaw(c, t):
    """sum_k c[k] T_k(t) (clenshaw_of), for one evaluation."""
    return clenshaw_of(c)(t)


def trimmed(coeffs: np.ndarray) -> np.ndarray:
    """coeffs without its exact-zero top, keeping at least one coefficient:
    a view, evaluated bit for bit as coeffs is (module docstring)."""
    nonzero = coeffs.nonzero()[0]
    return coeffs[:nonzero[-1] + 1 if nonzero.size else 1]


def eval_phi(coeffs: np.ndarray, u):
    """phi(u) for one coefficient vector, elementwise over u."""
    u = np.asarray(u, dtype=float)
    return clenshaw(np.asarray(coeffs, dtype=float), 2.0 * u - 1.0)


def eval_rows(rows, t) -> np.ndarray:
    """k coefficient rows evaluated at the same points t in one Clenshaw
    pass: shape (k, len(t)), row i equal to clenshaw(rows[i], t) up to the
    sign of a zero (module docstring).  Rows may differ in length; shorter
    ones are zero-padded at the top."""
    t = np.asarray(t, dtype=float)
    k = len(rows)
    coeffs = np.zeros((k, max(len(r) for r in rows)))
    for i, r in enumerate(rows):
        coeffs[i, :len(r)] = r
    planes = np.empty((coeffs.shape[1], k, t.size))
    planes[:] = coeffs.T[:, :, None]
    points = np.empty((k, t.size))
    points[:] = t
    return clenshaw(planes.reshape(len(planes), -1),
                    points.ravel()).reshape(k, t.size)


def deriv_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of dphi/du in the same basis.

    Runs numpy's chebder recurrence on Python floats, the same operations
    in the same order, and doubles the result, so it is chebder(coeffs) * 2
    bit for bit without numpy's per-element cost."""
    c = np.asarray(coeffs, dtype=float).tolist()
    n = len(c) - 1
    if n == 0:  # as chebder: c[:1] * 0, keeping c[0]'s zero sign
        return np.array([c[0] * 0 * 2.0])
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    # t = 2u - 1, so the u-derivative picks up a factor 2
    return np.array([d * 2.0 for d in der])


def padded(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """The same phi at a higher degree: zeros appended up to degree."""
    out = np.zeros(degree + 1)
    out[:len(coeffs)] = coeffs
    return out


def phi_at_zero(coeffs: np.ndarray) -> float:
    """phi(0), on Python floats."""
    return clenshaw(np.asarray(coeffs, dtype=float).tolist(), -1.0)


def normalized_constant(coeffs: np.ndarray) -> np.ndarray:
    """Shift the constant coefficient so phi(0) = 1 to within one rounding
    (the shifted sum is rounded, so not exactly)."""
    out = np.array(coeffs, dtype=float)
    out[0] += 1.0 - phi_at_zero(out)
    return out


@cache
def _collocation(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The fit's 2(D+1) nodes and their design matrix, read-only, built
    once per degree."""
    u = collocation_nodes(2 * (degree + 1))
    mat = design_matrix(u, degree)
    u.setflags(write=False)
    mat.setflags(write=False)
    return u, mat


def fit_coeffs(values: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares coefficients for phi from its values on the 2(D+1)
    collocation nodes, by one solve: (D+1,) for one row of values,
    (n, D+1) for n rows.  The one fit; fit_phi adds the residual."""
    _, mat = _collocation(degree)
    values = np.asarray(values, dtype=float)
    coeffs, *_ = np.linalg.lstsq(mat, values.T, rcond=None)
    return coeffs.T


def fit_phi(values: np.ndarray, degree: int) -> tuple[np.ndarray, float]:
    """fit_coeffs' coefficients plus the sup residual.

    The residual is max |phi(u_t) - values_t| over the nodes; callers decide
    whether that level of truncation loss is acceptable.  Values of shape
    (n, nodes) give one residual per row.
    """
    _, mat = _collocation(degree)
    values = np.asarray(values, dtype=float)
    coeffs = fit_coeffs(values, degree)
    residual = np.max(np.abs(mat @ coeffs.T - values.T), axis=0)
    return coeffs, residual if residual.ndim else float(residual)


def project_function(fn, degree: int) -> tuple[np.ndarray, float]:
    """Project a callable of u onto the basis; returns (coeffs, residual).

    fn is sampled on the 2(D+1) collocation nodes (read-only); it may return
    one row of values or a stack (n, nodes) of n functions, fitted by one
    solve."""
    u, _ = _collocation(degree)
    return fit_phi(fn(u), degree)


def project_coeffs(fn, degree: int) -> np.ndarray:
    """project_function's coefficients without its residual (fit_coeffs),
    for callers that read none."""
    u, _ = _collocation(degree)
    return fit_coeffs(fn(u), degree)
