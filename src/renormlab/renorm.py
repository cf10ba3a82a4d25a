"""Period-p renormalization of unimodal maps and the interval towers it builds.

Rf(x) = f^p(lam x) / lam with lam = f^p(0), taken at the smallest p >= 2 for
which the central interval J = [-|lam|, |lam|] is invariant under f^p and the
first-return pieces Delta_i = f^i(J), i = 0..p-1, are pairwise disjoint.  The
spatial order of those pieces is the combinatorial type theta.  The k-th
renormalization is f^{p_k}(lam_k x)/lam_k itself, lam_k = f^{p_k}(0), whose
critical orbit is every p_k-th step of f's over lam_k, so the nested tower
of intervals f^i(J_k), carrying the attractor's fine structure, is one orbit.

Both tests, and the tower, read one orbit: the critical orbit z_i = f^i(0).
f is even and a * a == lam * lam in floating point, so the orbit of the
endpoint a = |lam| is z from step p on, f^i(a) = z_{p+i} for i >= 1, bit
for bit.  f is monotone on each side of 0 (validate requires phi' < 0), so
a piece Delta_i, i >= 1, that is disjoint from Delta_0 = J misses the
critical point; by induction f^i is monotone on each half of J and Delta_i
is exactly the span of z_i and z_{p+i}.  The disjointness check, which
includes Delta_0, therefore certifies these pieces, and with them that f^p
is unimodal on J and that its reach on J is max(|z_p|, |z_{2p}|)
(Milnor-Thurston monotonicity on laps).

The period test is written twice, on the same rounded piece ends:
_test_period compares every two pieces of every row of an orbit stack at
once, for scan_periods over parameter grids, and _test_one sorts the pieces
of the Python-float orbit of one map, for detect and the tower levels, where
numpy's per-call cost on one-row arrays would be most of the work.  They
agree bit for bit on verdicts and ranks (see _test_period); only _test_one
says why a period fails and returns the pieces, which detect reports.

Every orbit of a map is _orbit, one routine for both number types: Python
floats for the scalar orbits of detect and the towers, float64 arrays for
the many points of DT(f) (_orbit_chain) and of T(f)'s projection
(project_T).  Each runs over the map's series, f.series, its coefficients
without their exact-zero top (basis.trimmed), and sets the Clenshaw pass
up once per orbit (_step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .errors import (CombinatoricsMismatch, DegenerateScaling, InvalidMap,
                     NotRenormalizable, OverlapError, TruncationLoss)
from .maps import UnimodalMap

LAMBDA_FLOOR = 1e-8
INVARIANCE_TOL = 1e-12
NESTING_TOL = 1e-10
PROJECTION_CAP = 1e-10
DEFAULT_DEGREE = 24
P_MAX = 16

THETA_DOUBLING = (0, 1)
THETA_TRIPLING = (1, 2, 0)


@dataclass(frozen=True)
class RenormStep:
    """Combinatorial data of one renormalization: period, scaling, pieces."""

    p: int
    lam: float                      # f^p(0), signed
    perm: tuple[int, ...]           # perm[i] = spatial rank of Delta_i
    intervals: np.ndarray           # (p, 2) hulls of f^i(J) in time order

    def __post_init__(self):
        arr = np.array(self.intervals, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "intervals", arr)
        object.__setattr__(self, "perm", tuple(int(r) for r in self.perm))


def _step(c):
    """The step z -> phi(z^2) for the coefficients c: the operations of
    f.phi, on Python floats or elementwise on float64 arrays, with the
    Clenshaw pass set up once for every step taken (basis.clenshaw_of)."""
    phi = _basis.clenshaw_of(c)
    return lambda z: phi(2.0 * (z * z) - 1.0)


def _orbit(c, z, n: int) -> list:
    """[z, f(z), ..., f^n(z)] by _step, the one orbit of a map: on Python
    floats for a coefficient list c, elementwise on float64 arrays for
    c = f.series and an array z, rounding the same operations either way.
    It works on phi directly, unclamped, so an orbit is smooth in the
    coefficients, also at vectors near a map that make no map."""
    step = _step(c)
    zs = [z]
    for _ in range(n):
        z = step(z)
        zs.append(z)
    return zs


def slopes(f: UnimodalMap, z) -> np.ndarray:
    """f'(z) = 2 z phi'(z^2), unclamped like _orbit."""
    z = np.asarray(z, dtype=float)
    return 2.0 * z * f.phi_deriv(z * z)


def _orbit_chain(f: UnimodalMap, z0: np.ndarray, p: int):
    """(z, s, chain, dk), p rows each: the orbit z_0..z_{p-1} of z0
    (_orbit, stacked along a new first axis), its slopes s_i = f'(z_i),
    chain[j] = Df^j(z_{p-j}) and dk[j] = Df^j(z_0), j = 0..p-1, each
    multiplied left to right from 1; the one product of slopes along an
    orbit, in p Clenshaw passes (p - 1 steps and one slope pass).  dk is
    built row by row, dk[j] = dk[j-1] s_{j-1}: the products np.cumprod
    takes along the first axis, in the same order, without its strided
    accumulate.  The p-th step and Df^p(z_0) = dk[p-1] s_{p-1} are left
    to the callers that read them."""
    z = np.stack(_orbit(f.series, z0, p - 1))
    s = slopes(f, z)
    chain = np.ones_like(z)
    for k in range(1, p):
        chain[p - k:] *= s[k]
    dk = np.ones_like(z)
    for j in range(1, p):  # dk[j, ...] is a view even where rows are 0-d
        np.multiply(dk[j - 1], s[j - 1], out=dk[j, ...])
    return z, s, chain, dk


def derivative_branches(f: UnimodalMap, step: RenormStep, x: np.ndarray):
    """(w, y, dy), the substitution terms of DT(f) at the points x, from
    the orbit z of lam x to step p - 1: rows j = 0..p-1 of
    w_j = Df^j(z_{p-j})/lam, y_j = z_{p-j-1} and
    dy_j = lam Df^{p-j-1}(lam x); p Clenshaw passes."""
    z, _, chain, dk = _orbit_chain(f, step.lam * x, step.p)
    return chain / step.lam, z[::-1], step.lam * dk[::-1]


def derivative_terms(f: UnimodalMap, step: RenormStep, x: np.ndarray):
    """(w, y, tail, nodes, coeffs): all of DT(f) at the 1-d points x,
    DT(f) v = sum_j w_j v(y_j) + tail sigma(v), off one orbit, that of
    lam x with the critical point 0.0 appended as a last column, in p + 1
    Clenshaw passes.  w and y are derivative_branches'; the weight of the
    rank-one term, tail = (x Df^p(lam x) - z_p/lam)/lam, takes the orbit's
    p-th step on the columns of x; (nodes, coeffs), off the last column,
    are sigma(v) = sum_j Df^j(f^{p-j}(0)) v(f^{p-j-1}(0)), lam = f^p(0)'s
    first-order change under f -> f + v (an empty x gives these alone)."""
    p, lam, n = step.p, step.lam, x.size
    z, s, chain, dk = _orbit_chain(f, np.append(lam * x, 0.0), p)
    zp = _step(f.series)(z[-1, :n])
    tail = (x * (dk[-1, :n] * s[-1, :n]) - zp / lam) / lam
    return (chain[:, :n] / lam, z[::-1, :n], tail,
            z[::-1, n], chain[:, n])


def _left_to_right(intervals: np.ndarray):
    """(order, gaps) of intervals (q, 2): order sorts them by left end,
    gaps[k] is the space between the k-th and (k+1)-th in that order."""
    order = np.argsort(intervals[:, 0])
    srt = intervals[order]
    return order, srt[1:, 0] - srt[:-1, 1]


def spatial_permutation(intervals: np.ndarray) -> tuple[int, ...]:
    """perm[i] = rank of interval i when sorted left to right.

    Raises OverlapError when the intervals are not pairwise disjoint."""
    intervals = np.asarray(intervals, dtype=float)
    order, gaps = _left_to_right(intervals)
    if np.any(gaps <= 0.0):
        w = int(np.argmin(gaps))
        a, b = order[w], order[w + 1]
        raise OverlapError(
            f"pieces {a} and {b} overlap by {-gaps[w]:.3e}: "
            f"{intervals[a].tolist()} vs {intervals[b].tolist()}")
    return tuple(int(r) for r in np.argsort(order))


def _pair_hulls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intervals [min, max] of the pairs (a[i], b[i]): shape a.shape +
    (2,), the ends written by np.minimum and np.maximum into one array,
    the ufuncs that a min and a max over a length-2 axis apply."""
    out = np.empty(a.shape + (2,))
    np.minimum(a, b, out=out[..., 0])
    np.maximum(a, b, out=out[..., 1])
    return out


def _test_period(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The admissibility tests of period p, on every row at once: (ok,
    ranks), ok[i] whether row i passes them all, ranks[i] the spatial rank
    of each of its pieces where it does.

    z is the critical orbit per row, z[i] = f^i(0) for i = 0..2p, where
    lam = z[p] is already checked nondegenerate by the caller; the endpoint
    a = |lam| has the orbit z[p:] (module docstring), whose row 0, lam, is
    never read as a point of it.  The tests: |lam| not within LAMBDA_FLOOR
    of 1; J = [-a, a] invariant under f^p, read from the reach
    max(|z[p]|, |z[2p]|); z finite from step 1 to step 2p; the pieces
    pairwise disjoint, with Delta_0 = J and Delta_i, 1 <= i < p, the hull
    of z[i] and z[p + i], built on the rows that pass the first three.
    The last test certifies the first two: disjointness from Delta_0 makes
    f^i monotone on each half of J, so the hulls and reach are exact and
    f^p is unimodal on J.  With no sort, pieces i != j are apart when
    lo[j] > hi[i] or lo[i] > hi[j]; as lo <= hi, at most one holds, so all
    are apart when p(p - 1)/2 of the p^2 tests lo[j] > hi[i] pass, and
    piece i's rank counts the j with lo[j] < lo[i].  As a - b > 0.0 exactly
    when a > b for finite floats, and tied left ends fail, this is
    _test_one's sort by left end with every gap > 0.0, bit for bit.
    """
    a = np.abs(z[p])
    ok = ((a < 1.0 - LAMBDA_FLOOR)
          & (np.maximum(a, np.abs(z[2 * p])) <= a + INVARIANCE_TOL)
          & np.isfinite(z[1:2 * p + 1]).all(axis=0))
    ranks = np.zeros((a.size, p), dtype=int)
    rows = np.nonzero(ok)[0]
    if rows.size:
        # the surviving rows' left and right piece ends, (p, rows) each
        lo, hi = np.empty((2, p, rows.size))
        hi[0] = a[rows]
        lo[0] = -hi[0]
        tip_i, ends_i = z[1:p, rows], z[p + 1:2 * p, rows]
        np.minimum(tip_i, ends_i, out=lo[1:])
        np.maximum(tip_i, ends_i, out=hi[1:])
        right = lo[None, :] > hi[:, None]
        ok[rows[right.sum(axis=(0, 1)) < p * (p - 1) // 2]] = False
        ranks[rows] = (lo[:, None] < lo[None, :]).sum(axis=0).T
    return ok, ranks


def _test_one(z: list, p: int):
    """_test_period on the Python-float critical orbit of one map: (reason,
    pieces, ranks), reason None when p is admissible, else why it failed.

    The tests and the rounded operations are _test_period's, run one at a
    time so the first that fails names the reason; a hull end is
    np.minimum's or np.maximum's, which keep the second operand on a tie.
    The finiteness test runs before any piece is built, so the pieces are
    finite floats, which Python orders as numpy does."""
    lam = z[p]
    a = abs(lam)
    if a >= 1.0 - LAMBDA_FLOOR:
        return f"|lam| = {a:.6f} too close to 1", None, None
    reach = max(a, abs(z[2 * p]))
    if reach > a + INVARIANCE_TOL:
        return (f"J not invariant: |f^{p}| reaches {reach:.6e} > {a:.6e}",
                None, None)
    if not all(map(math.isfinite, z[1:2 * p + 1])):
        return f"orbit not finite up to f^{p}", None, None
    pieces = [(-a, a)] + [(t if t < e else e, t if t > e else e)
                          for t, e in zip(z[1:p], z[p + 1:2 * p])]
    order = sorted(range(p), key=lambda i: pieces[i][0])
    ok = all(pieces[j][0] - pieces[i][1] > 0.0
             for i, j in zip(order, order[1:]))
    ranks = [0] * p
    for rank, i in enumerate(order):
        ranks[i] = rank
    if not ok:
        try:
            spatial_permutation(pieces)
        except OverlapError as exc:
            return f"pieces overlap: {exc}", None, None
    return None, pieces, ranks


def _first_period(c: list, tip: list, P: int, lam: float) -> RenormStep:
    """detect on g(x) = f^P(lam x)/lam, lam = f^P(0), f with coefficients c
    (g is f at P = 1, lam = 1.0), from g^j(0) = f^{jP}(0)/lam.  tip, f's
    critical orbit as far as known, is extended in place to step 4P, as
    far as the pieces of period 2 reach; past 4P only the stride is kept,
    so refuting every p holds 2 P_MAX + 1 samples, not 2 P_MAX P steps.
    Returns g's step, in g's coordinates."""
    tip += _orbit(c, tip[-1], 4 * P + 1 - len(tip))[1:]
    z = [t / lam for t in tip[:4 * P + 1:P]]
    x = tip[4 * P]
    step = _step(c)
    reasons: dict[int, str] = {}
    for p in range(2, P_MAX + 1):
        for _ in range(2 * p + 1 - len(z)):
            for _ in range(P):
                x = step(x)
            z.append(x / lam)
        if abs(z[p]) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {z[p]:.3e} vanishes to working precision", p=p)
        reason, pieces, ranks = _test_one(z, p)
        if reason is not None:
            reasons[p] = reason
            continue
        return RenormStep(p=p, lam=z[p], perm=ranks, intervals=pieces)
    raise NotRenormalizable(
        f"no admissible period up to {P_MAX}", reasons=reasons)


def detect(f: UnimodalMap) -> RenormStep:
    """Smallest admissible renormalization period and its combinatorics.

    Scans p = 2..P_MAX.  For each candidate the scaling lam = f^p(0) must be
    nondegenerate, J = [-|lam|, |lam|] invariant under f^p, the critical
    orbit finite to step 2p, and the pieces f^i(J) pairwise disjoint, all
    read from the critical orbit, extended to step 2p per candidate
    (disjointness certifies that f^p is unimodal on J).  The orbit and the
    tests run on Python floats (_first_period, _test_one), bit for bit what
    the batched _test_period finds on a one-row stack.  The first reason
    each candidate fails is kept and reported on NotRenormalizable.
    A UnimodalMap is valid by construction, so nothing of f is checked
    again; detect reads only f.series.
    """
    return _first_period(f.series.tolist(), [0.0], 1, 1.0)


def scan_periods(z: np.ndarray, q: int) -> dict:
    """What detect's scan finds at period p, p = 2..q, for every column
    of the critical orbits z[k, i] = f_i^k(0), k = 0..2q or more, at once
    (FamilyLevel.orbit): entry p is (degenerate, rows, ok, ranks);
    degenerate and rows split the rows where no period below p is
    degenerate or admissible by whether lam = z[p] vanishes (detect raises
    there); (ok, ranks) is _test_period of p on rows.  Rows admissible at p
    drop out before p + 1; entry p reads z to step 2p only, the same for
    every q >= p."""
    rows = np.arange(z.shape[1])
    out = {}
    for p in range(2, q + 1):
        small = np.abs(z[p, rows]) <= LAMBDA_FLOOR
        degenerate, rows = rows[small], rows[~small]
        ok, ranks = _test_period(z[:2 * p + 1, rows], p)
        out[p] = degenerate, rows, ok, ranks
        rows = rows[~ok]
    return out


@dataclass(frozen=True)
class Renormalized:
    """Renormalize output; unpacks as (map, step) with the projection
    residual riding along."""

    map: UnimodalMap
    step: RenormStep
    projection_residual: float

    def __iter__(self):
        return iter((self.map, self.step))


def project_T(f: UnimodalMap, step: RenormStep,
              degree: int) -> tuple[np.ndarray, float]:
    """(coeffs, residual) of phi_{Tf}(u) = f^{p-1}(phi(lam^2 u)) / lam.

    Least-squares projection by basis.project_function; the constant
    term is left as fitted, so Tf(0) = 1 holds only to roundoff."""
    lam, p = step.lam, step.p

    def phi_tf(u):
        return _orbit(f.series, f.phi((lam * lam) * u), p - 1)[-1] / lam

    return _basis.project_function(phi_tf, degree)


def renormalize(f: UnimodalMap, step: RenormStep,
                degree: int | None = None) -> Renormalized:
    """Rf projected back onto the coefficient space of phi.

    phi_{Rf}(u) = f^{p-1}(phi(lam^2 u)) / lam, projected by project_T.  The
    fit residual must stay under PROJECTION_CAP or TruncationLoss is raised;
    the constant coefficient is then shifted so Rf(0) = 1 holds to within one
    rounding.
    """
    target = degree if degree is not None else max(f.degree, DEFAULT_DEGREE)
    coeffs, residual = project_T(f, step, target)
    if residual >= PROJECTION_CAP:
        raise TruncationLoss(
            f"projection residual {residual:.3e} exceeds {PROJECTION_CAP:.1e} "
            f"at degree {target}", residual=residual)
    coeffs = _basis.normalized_constant(coeffs)
    return Renormalized(UnimodalMap(coeffs), step, residual)


def renormalize_with(f: UnimodalMap, theta: tuple[int, ...],
                     degree: int | None = None) -> Renormalized:
    """Renormalize, insisting on combinatorial type theta."""
    step = detect(f)
    if step.perm != tuple(theta):
        raise CombinatoricsMismatch(
            f"observed type {step.perm}, wanted {tuple(theta)}")
    return renormalize(f, step=step, degree=degree)


@dataclass(frozen=True)
class IntervalTower:
    """Nested interval families Delta_{i,k}, i = 0..p_k-1, k = 1..depth.

    levels[k-1] is a (p_k, 2) array in time order i; periods and scalings are
    p_k and lam_k = f^{p_k}(0).  Synthetic towers (kind != "map") carry no
    scalings.  A construction that stops early records where and why.
    """

    levels: tuple[np.ndarray, ...]
    periods: tuple[int, ...]
    scalings: tuple[float, ...] | None
    truncated_at: int | None = None
    note: str | None = None
    kind: str = "map"

    def __post_init__(self):
        frozen = []
        for lv in self.levels:
            arr = np.array(lv, dtype=float).reshape(-1, 2)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "levels", tuple(frozen))
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        if self.scalings is not None:
            object.__setattr__(self, "scalings",
                               tuple(float(s) for s in self.scalings))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> np.ndarray:
        """Level k intervals, k = 1..depth."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"level {k} outside 1..{self.depth}")
        return self.levels[k - 1]

    def lengths(self, k: int) -> np.ndarray:
        lv = self.level(k)
        return lv[:, 1] - lv[:, 0]


def _check_level_disjoint(intervals: np.ndarray, k: int) -> None:
    """OverlapError unless the pieces of level k are pairwise disjoint,
    every gap between neighbours in left-to-right order (_left_to_right)
    positive; nan gaps pass, as in spatial_permutation, which runs only to
    word a failure, with the level in front."""
    if not np.all(_left_to_right(intervals)[1] > 0.0):
        try:
            spatial_permutation(intervals)
        except OverlapError as exc:
            raise OverlapError(f"level {k} {exc}") from None


def _check_nesting(child: np.ndarray, parent: np.ndarray, k: int) -> None:
    """Every child piece lies inside some parent piece, up to NESTING_TOL;
    else OverlapError names the first escaping child in time order.

    Per child, a binary search finds the parents that pass the left test, a
    prefix of them sorted by left end; the child passes the right test
    against one of them iff against their running max right end (x + tol
    rounds monotonically).  Memory is linear; nan ends hold nothing."""
    by_left = np.argsort(parent[:, 0])
    lefts = parent[by_left, 0] - NESTING_TOL
    last = np.searchsorted(lefts, child[:, 0], side="right") - 1
    reach = np.fmax.accumulate(parent[by_left, 1])[last] + NESTING_TOL
    escaped = np.flatnonzero(~((lefts[last] <= child[:, 0])
                               & (child[:, 1] <= reach)))
    if escaped.size:
        left, right = child[escaped[0]]
        raise OverlapError(
            f"level {k} piece [{left}, {right}] escapes level {k - 1}")


def tower(f: UnimodalMap, depth: int) -> IntervalTower:
    """Delta_{i,k} = f^i([-|lam_k|, |lam_k|]), k = 1..depth, read off one
    Python-float critical orbit z_i = f^i(0) of f; no level is projected.

    p_k is p_{k-1} times detect's period of f's own (k-1)-th
    renormalization, whose critical orbit is z_{j p_{k-1}}/lam_{k-1}
    (_first_period; p_0 = 1, lam_0 = 1).  lam_k = z_{p_k}, Delta_{0,k} =
    [-|lam_k|, |lam_k|], Delta_{i,k} = hull(z_i, z_{p_k+i}), i >= 1, all
    of a level's at once (_pair_hulls): about 2 p_depth steps.  A level k
    with no admissible period up to P_MAX truncates the tower, after
    2 P_MAX p_{k-1} steps; a failed disjointness or nesting certificate
    raises OverlapError.  They certify the float
    orbit's hulls, not f's: its roundoff, which nothing bounds, grows about
    delta-fold per level (1.2 relative at level 20 of c_inf, read as p_20 =
    3 2^19, not 2^20), so levels that deep are not certified."""
    if depth < 1:
        raise InvalidMap("tower depth must be >= 1")
    levels, periods, scalings = [], [], []
    p_cum, lam, c, tip = 1, 1.0, f.series.tolist(), [0.0]
    truncated_at, note = None, None
    for k in range(1, depth + 1):
        try:
            p_cum *= _first_period(c, tip, p_cum, lam).p
        except (NotRenormalizable, DegenerateScaling) as exc:
            truncated_at, note = k, f"{type(exc).__name__}: {exc}"
            break
        tip += _orbit(c, tip[-1], 2 * p_cum + 1 - len(tip))[1:]
        lam = tip[p_cum]
        z = np.array(tip)
        pieces = _pair_hulls(z[:p_cum], z[p_cum:2 * p_cum])
        pieces[0] = -abs(lam), abs(lam)
        _check_level_disjoint(pieces, k)
        if levels:
            _check_nesting(pieces, levels[-1], k)
        levels.append(pieces)
        periods.append(p_cum)
        scalings.append(lam)
    return IntervalTower(levels=tuple(levels), periods=tuple(periods),
                         scalings=tuple(scalings), truncated_at=truncated_at,
                         note=note, kind="map")


def tower_header(tw: IntervalTower) -> dict:
    """JSON-ready per-level metadata."""
    return {
        "kind": tw.kind,
        "depth": tw.depth,
        "periods": list(tw.periods),
        "scalings": None if tw.scalings is None else list(tw.scalings),
        "truncated_at": tw.truncated_at,
        "note": tw.note,
    }


def tower_rows(tw: IntervalTower):
    """CSV rows (level, index, left, right, length)."""
    for k in range(1, tw.depth + 1):
        for i, (left, right) in enumerate(tw.level(k).tolist()):
            yield k, i, left, right, right - left
