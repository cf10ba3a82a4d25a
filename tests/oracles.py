"""Reference implementations the tests compare the package against.

Nothing in the package calls these: pointwise application of an
L-operator with its rank-one tails, the positive operator L_gamma applied
to a function, powers of an L-operator by repeated compose, exactly
self-similar interval towers with closed-form sums and dimension, the
superstable-parameter scan as one array pass over its grid, maps
evaluated over their whole coefficient vector, zero top included, a
stand-in map for coefficient vectors that make no map, and the general
numpy routines the package once took where it now writes the
same operations out (np.cumprod, reductions, take_along_axis, np.pad,
np.repeat and np.tile, one fmt call per CSV value, a fit over every
level sliced afterwards).
"""

from pathlib import Path

import numpy as np

from renormlab.errors import DomainError, OperatorDomainError
from renormlab.loperator import (CONTAINMENT_TOL, LOperator, RankOneTail,
                                 _positive_gamma, _principal, compose)
from renormlab.basis import clenshaw, eval_phi, trimmed
from renormlab.maps import UnimodalMap
from renormlab.reporting import fmt
from renormlab.renorm import (IntervalTower, _check_level_disjoint,
                              _check_nesting)
from renormlab.roots import brent, sign_changes


# ---------------------------------------------------------------------------
# L-operators


def tail_functional(t: RankOneTail, v) -> float:
    """sum_j coeffs[j] * v(nodes[j])."""
    return float(np.dot(t.coeffs, v(t.nodes)))


def tail_apply(t: RankOneTail, v, x: np.ndarray) -> np.ndarray:
    return t.weight(np.asarray(x, float)) * tail_functional(t, v)


def apply(L: LOperator, v, grid) -> np.ndarray:
    """Pointwise Lv on grid points in [-1,1]."""
    x = np.asarray(grid, dtype=float)
    if x.size and float(np.max(np.abs(x))) > 1.0 + CONTAINMENT_TOL:
        raise OperatorDomainError("grid leaves [-1,1]")
    out = _principal(L, v, x)
    for t in L.tails:
        out = out + tail_apply(t, v, x)
    return out


def apply_positive(L: LOperator, gamma: float, v, grid) -> np.ndarray:
    """L_gamma v(x) = sum_i |w_i(x)| |Dy_i(x)|^gamma v(y_i(x)).

    Acts on the principal terms only; the rank-one tails are not of
    substitution form and stay outside the positive-operator estimates.
    """
    gamma = _positive_gamma(gamma)
    x = np.asarray(grid, dtype=float)
    w, y, dy = L.branches(x)
    out = np.zeros_like(x)
    for wi, yi, dyi in zip(w, y, dy):
        out = out + (np.abs(wi) * np.abs(dyi)**gamma) * v(yi)
    return out


def compose_power(L: LOperator, m: int) -> LOperator:
    if m < 1:
        raise OperatorDomainError(f"power must be >= 1, got {m}")
    out = L
    for _ in range(m - 1):
        out = compose(out, L)
    return out


# ---------------------------------------------------------------------------
# synthetic towers


def self_similar_tower(branching: int, ratio: float,
                       depth: int) -> IntervalTower:
    """Exactly self-similar tower on [0, 1].

    Each interval spawns `branching` children of `ratio` times its length,
    flush with its endpoints and separated by equal gaps.  Closed forms:
    spectral_sum's S_k = branching^k * ratio^(k(t-1)), so the fitted mu is
    branching * ratio^(t-1); the dimension is log(branching) / log(1/ratio).
    """
    if branching < 2:
        raise DomainError(f"branching must be >= 2, got {branching}")
    if not 0.0 < ratio * branching < 1.0:
        raise DomainError(f"need 0 < branching * ratio < 1, got "
                          f"{branching * ratio}")
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    levels = []
    current = np.array([[0.0, 1.0]])
    for _ in range(depth):
        nxt = []
        for a, b in current:
            ln = (b - a) * ratio
            gap = ((b - a) - branching * ln) / (branching - 1)
            for j in range(branching):
                left = a + j * (ln + gap)
                nxt.append((left, left + ln))
        current = np.asarray(nxt)
        levels.append(current)
    periods = tuple(branching**k for k in range(1, depth + 1))
    tw = IntervalTower(levels=tuple(levels), periods=periods, scalings=None,
                       note=f"self-similar p={branching} r={ratio}",
                       kind="synthetic")
    for k in range(1, depth + 1):
        _check_level_disjoint(tw.level(k), k)
        if k >= 2:
            _check_nesting(tw.level(k), tw.level(k - 1), k)
    return tw


def middle_thirds_tower(depth: int) -> IntervalTower:
    """Standard middle-thirds construction; dimension log2/log3 exactly."""
    return self_similar_tower(2, 1.0 / 3.0, depth)


# ---------------------------------------------------------------------------
# superstable parameters


def superstable_in(fam, q: int, lo: float, hi: float, grid: int):
    """families._superstable_in as one array pass: f_c^q(0) on the whole
    grid at once, then brent on each cell that brackets a root
    (roots.sign_changes), left to right, until a root is primitive."""
    cs = np.linspace(lo, hi, grid)
    for i in sign_changes(fam.critical_value_map(cs, q)):
        c = brent(lambda c: fam.critical_value_map(c, q), cs[i], cs[i + 1])
        x, k = 0.0, 0
        for d in (d for d in range(1, q) if q % d == 0):
            x, k = fam.iterate(c, x, d - k), d
            if not abs(x) > 1e-9:
                break
        else:
            return c
    return None


# ---------------------------------------------------------------------------
# maps evaluated over their whole coefficient vector


def over_the_full_vector(f: UnimodalMap) -> UnimodalMap:
    """f with every evaluation running over its whole coefficient vector,
    exact-zero top included, rather than over its trimmed series: the
    same map with series set to coeffs, so detect, tower, project_T,
    derivative_matrix and _sup_distance take the code path of a map whose
    series was never trimmed."""
    g = UnimodalMap(f.coeffs)
    object.__setattr__(g, "series", g.coeffs)
    return g


class UncheckedMap:
    """A coefficient vector with what detect and project_T read of a
    UnimodalMap (coeffs, series and phi, as the map sets them up) and no
    validation: T and detect at vectors that make no map, such as
    finite-difference probes off the normalized slice and perturbed maps
    whose orbits leave [-1, 1]."""

    def __init__(self, coeffs):
        self.coeffs = np.array(coeffs, dtype=float)
        self.series = trimmed(self.coeffs)

    def phi(self, u):
        return eval_phi(self.series, u=u)


# ---------------------------------------------------------------------------
# the general numpy routines, as the package once called them


def slope_products(s: np.ndarray) -> np.ndarray:
    """dk[j] = s[0] ... s[j-1], dk[0] = 1, by np.cumprod along the first
    axis: renorm._orbit_chain's dk before it was built row by row."""
    return np.cumprod(np.concatenate([np.ones_like(s[:1]), s[:-1]]), axis=0)


def hulls_by_reduction(zs: np.ndarray) -> np.ndarray:
    """Intervals [min, max] over the last axis of an orbit stack: shape
    zs.shape[:-1] + (2,), by two reductions and np.stack."""
    return np.stack([zs.min(axis=-1), zs.max(axis=-1)], axis=-1)


def left_to_right_by_take(intervals: np.ndarray):
    """(order, gaps) of intervals (..., q, 2), any number of leading axes:
    order sorts them by left end along the second-to-last axis, gaps[...,
    k] is the space between the k-th and (k+1)-th in that order."""
    order = np.argsort(intervals[..., 0], axis=-1)
    srt = np.take_along_axis(intervals, order[..., None], axis=-2)
    return order, srt[..., 1:, 0] - srt[..., :-1, 1]


def mean_log_ratio(loglens: list, s: float, lo: int, hi: int) -> float:
    """Mean of log(S_{k+1}/S_k) over k = lo..hi-1 at exponent s, from the
    sums of every level of loglens, sliced to the window afterwards."""
    logs = [float(np.log(np.sum(np.exp(s * ll)))) for ll in loglens]
    return float(np.mean(np.diff(logs[lo - 1:hi])))


def write_csv_by_fmt(path, header, rows) -> Path:
    """reporting.write_csv with every value printed by its own fmt call."""
    path = Path(path)
    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def padded_by_pad(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """basis.padded by np.pad."""
    return np.pad(coeffs, (0, degree + 1 - len(coeffs)))


def eval_rows_by_repeat(rows, t) -> np.ndarray:
    """basis.eval_rows with its planes built by np.repeat and np.tile."""
    t = np.asarray(t, dtype=float)
    coeffs = np.zeros((len(rows), max(len(r) for r in rows)))
    for i, r in enumerate(rows):
        coeffs[i, :len(r)] = r
    planes = np.repeat(coeffs.T, t.size, axis=1)
    return clenshaw(planes, np.tile(t, len(rows))).reshape(len(rows), t.size)
