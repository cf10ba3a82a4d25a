"""Period-p renormalization of unimodal maps and the interval towers it builds.

Rf(x) = f^p(lam x) / lam with lam = f^p(0), taken at the smallest p >= 2 for
which the central interval J = [-|lam|, |lam|] is invariant under f^p, f^p is
unimodal on J, and the first-return pieces Delta_i = f^i(J), i = 0..p-1, are
pairwise disjoint.  The spatial order of those pieces is the combinatorial
type theta.  Iterating the construction produces a nested tower of interval
families whose geometry carries the fine structure of the attractor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .errors import (CombinatoricsMismatch, DegenerateScaling, InvalidMap,
                     NotRenormalizable, OverlapError, TruncationLoss)
from .maps import MapStack, UnimodalMap, validate

LAMBDA_FLOOR = 1e-8
INVARIANCE_TOL = 1e-12
PROJECTION_CAP = 1e-10
DEFAULT_DEGREE = 24

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


def _sample_symmetric(a, grid: int) -> np.ndarray:
    """Points of [-a, a] for each entry of a: the grid with both endpoints,
    then the tip 0 appended last (no test below depends on point order
    beyond the grid's own)."""
    a = np.asarray(a, dtype=float)
    xs = np.linspace(-a, a, grid, axis=-1)
    return np.concatenate([xs, np.zeros(a.shape + (1,))], axis=-1)


def orbit_stack(f: UnimodalMap, z0, n: int) -> np.ndarray:
    """Z[i] = f^i(z0) for i = 0..n, stacked along a new first axis.

    Works on phi directly so orbits of slightly denormalized maps (derivative
    probes) extrapolate smoothly instead of hitting the eval clamp."""
    z = np.asarray(z0, dtype=float)
    zs = [z]
    for _ in range(n):
        z = f.phi(z * z)
        zs.append(z)
    return np.stack(zs)


def slopes(f: UnimodalMap, z) -> np.ndarray:
    """f'(z) = 2 z phi'(z^2), unclamped like orbit_stack."""
    z = np.asarray(z, dtype=float)
    return 2.0 * z * f.phi_deriv(z * z, 1)


def iterate_derivative(f: UnimodalMap, z0, k: int):
    """(f^k(z0), Df^k(z0)) by forward iteration of the chain rule."""
    z = np.asarray(z0, dtype=float)
    dz = np.ones_like(z)
    for _ in range(k):
        dz = dz * slopes(f, z)
        z = f.phi(z * z)
    return z, dz


def _left_to_right(intervals: np.ndarray):
    """(order, gaps) of intervals (..., q, 2): order sorts them by left end,
    gaps[..., k] is the space between the k-th and (k+1)-th in that order."""
    order = np.argsort(intervals[..., 0], axis=-1)
    srt = np.take_along_axis(intervals, order[..., None], axis=-2)
    return order, srt[..., 1:, 0] - srt[..., :-1, 1]


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


def _hulls(zs: np.ndarray) -> np.ndarray:
    """Intervals [min, max] over the last axis of an orbit stack: shape
    zs.shape[:-1] + (2,)."""
    return np.stack([zs.min(axis=-1), zs.max(axis=-1)], axis=-1)


def _sign_changes(s: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis between consecutive nonzero
    entries (zeros skipped), per row."""
    pos = np.arange(s.shape[-1])
    last = np.maximum.accumulate(np.where(s != 0.0, pos, 0), axis=-1)
    prev = np.take_along_axis(s, last[..., :-1], axis=-1)
    nxt = s[..., 1:]
    return np.count_nonzero((nxt != 0.0) & (prev != 0.0) & (nxt != prev),
                            axis=-1)


# first test a candidate period fails, in the order they run
_NEAR_ONE, _NOT_INVARIANT, _NOT_UNIMODAL, _OVERLAP = 1, 2, 3, 4


@dataclass(frozen=True)
class _Trial:
    """Candidate period p tested on every row of a map stack."""

    p: int
    lam: np.ndarray       # (n,) f^p(0)
    fail: np.ndarray      # (n,) 0 for an admissible row, else the test code
    reach: np.ndarray     # (n,) max |f^p| on J
    flips: np.ndarray     # (n,) sign changes of (f^p)' on J
    pieces: np.ndarray    # (n, p, 2) hulls of f^i(J), time order
    ranks: np.ndarray     # (n, p) spatial rank of each piece

    def reason(self, i: int) -> str:
        """Why row i (a failed one) failed, in detect's words."""
        code, p, a = self.fail[i], self.p, abs(self.lam[i])
        if code == _NEAR_ONE:
            return f"|lam| = {a:.6f} too close to 1"
        if code == _NOT_INVARIANT:
            return (f"J not invariant: |f^{p}| reaches "
                    f"{self.reach[i]:.6e} > {a:.6e}")
        if code == _NOT_UNIMODAL:
            return (f"f^{p} not unimodal on J: {self.flips[i]} derivative "
                    "sign changes")
        try:
            spatial_permutation(self.pieces[i])
        except OverlapError as exc:
            return f"pieces overlap: {exc}"


def _test_period(f: MapStack, lam: np.ndarray, p: int, grid: int) -> _Trial:
    """The admissibility tests of period p, on every row of f at once.

    lam = f^p(0) per row, already checked nondegenerate by the caller.  In
    order: |lam| not within LAMBDA_FLOOR of 1; J = [-|lam|, |lam|] invariant
    under f^p; (f^p)' changes sign exactly once on J; the pieces f^i(J),
    i < p, pairwise disjoint.  Each test runs only on the rows that passed
    the ones before it.
    """
    n = lam.size
    a = np.abs(lam)
    t = _Trial(p=p, lam=lam,
               fail=np.where(a >= 1.0 - LAMBDA_FLOOR, _NEAR_ONE, 0),
               reach=np.zeros(n), flips=np.zeros(n, dtype=int),
               pieces=np.zeros((n, p, 2)), ranks=np.zeros((n, p), dtype=int))
    rows = np.nonzero(t.fail == 0)[0]
    if rows.size:
        zs = orbit_stack(f[rows], _sample_symmetric(a[rows], grid), p)
        t.reach[rows] = np.max(np.abs(zs[p]), axis=-1)
        bad = t.reach[rows] > a[rows] + INVARIANCE_TOL
        t.fail[rows[bad]] = _NOT_INVARIANT
        rows, zs = rows[~bad], zs[:, ~bad]
    if rows.size:
        t.flips[rows] = _sign_changes(
            np.sign(np.prod(slopes(f[rows], zs[:p]), axis=0)))
        bad = t.flips[rows] != 1
        t.fail[rows[bad]] = _NOT_UNIMODAL
        rows, zs = rows[~bad], zs[:, ~bad]
    if rows.size:
        t.pieces[rows] = np.swapaxes(_hulls(zs[:p]), 0, 1)
        order, gaps = _left_to_right(t.pieces[rows])
        t.fail[rows[np.any(gaps <= 0.0, axis=-1)]] = _OVERLAP
        t.ranks[rows] = np.argsort(order, axis=-1)
    return t


def detect(f: UnimodalMap, p_max: int = 16, grid: int = 64,
           validate_input: bool = True) -> RenormStep:
    """Smallest admissible renormalization period and its combinatorics.

    Scans p = 2..p_max.  For each candidate the scaling lam = f^p(0) must be
    nondegenerate, J = [-|lam|, |lam|] invariant under f^p, f^p unimodal on J,
    and the pieces f^i(J) pairwise disjoint.  The first reason each candidate
    fails is kept and reported on NotRenormalizable.

    A map built with check=True was validated on construction, so only
    unchecked maps get the structural pre-check, and validate_input=False
    skips it for them too; derivative probes evaluate T at maps that are off
    the normalized slice by construction.
    """
    if validate_input and not f.check:
        if not validate(f).ok:
            raise InvalidMap("detect requires a structurally valid map")
    row = f.stack()
    reasons: dict[int, str] = {}
    z = f.phi(0.0)
    for p in range(2, p_max + 1):
        z = f.phi(z * z)
        lam = float(z)
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        trial = _test_period(row, np.array([lam]), p, grid)
        if trial.fail[0]:
            reasons[p] = trial.reason(0)
            continue
        return RenormStep(p=p, lam=lam, perm=trial.ranks[0],
                          intervals=trial.pieces[0])
    raise NotRenormalizable(
        f"no admissible period up to {p_max}", reasons=reasons)


def scan_periods(f: MapStack, q: int, grid: int):
    """What detect(p_max=q) finds at period q, for every row of f at once.

    Returns (lam, degenerate, rows, trial): lam[i] = f_i^q(0); degenerate
    and rows split the rows where no period p < q is degenerate or
    admissible by whether lam vanishes at q (detect raises there), and
    trial tests period q on rows.
    """
    lam_path = orbit_stack(f, np.zeros((len(f), 1)), q)[..., 0]
    degenerate = rows = np.arange(len(f) if q >= 2 else 0)
    for p in range(2, q + 1):
        small = np.abs(lam_path[p, rows]) <= LAMBDA_FLOOR
        degenerate, rows = rows[small], rows[~small]
        if p < q:
            trial = _test_period(f[rows], lam_path[p, rows], p, grid)
            rows = rows[trial.fail != 0]
    return (lam_path[q], degenerate, rows,
            _test_period(f[rows], lam_path[q, rows], q, grid))


def renormalize_type(f: MapStack, theta: tuple[int, ...], degree: int,
                     grid: int) -> tuple[np.ndarray, MapStack]:
    """detect(p_max=len(theta)) and renormalize, insisting on type theta,
    for every row of f at once.

    Row i survives when no period p < q = len(theta) is degenerate or
    admissible, p = q is nondegenerate and admissible with spatial ranks
    exactly theta, the projection residual stays under PROJECTION_CAP and
    the renormalized map is structurally valid.  Returns (survived, R of the
    survivors): one least-squares solve fits all their projections.
    """
    q = len(theta)
    lam, _, rows, trial = scan_periods(f, q, grid)
    hit = (trial.fail == 0) & np.all(trial.ranks == theta, axis=-1)
    rows = rows[hit]
    survived = np.zeros(len(f), dtype=bool)
    if not rows.size:
        return survived, MapStack(np.zeros((0, degree + 1)), f.basis)
    step = RenormStep(p=q, lam=lam[rows, None], perm=theta,
                      intervals=trial.pieces[hit])
    coeffs, residual = project_T(f[rows], step, degree)
    kept = MapStack(_basis.normalized_constant(coeffs, f.basis), f.basis)
    ok = ~(residual >= PROJECTION_CAP) & validate(kept).ok
    survived[rows[ok]] = True
    return survived, kept[ok]


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
    term is left as fitted, so Tf(0) = 1 holds only to roundoff.  For a
    MapStack, step.lam is the column (n, 1) of scalings and every row is
    projected by one solve."""
    lam, p = step.lam, step.p

    def phi_tf(u):
        return orbit_stack(f, f.phi((lam * lam) * u), p - 1)[-1] / lam

    return _basis.project_function(phi_tf, degree, f.basis)


def renormalize(f: UnimodalMap, step: RenormStep | None = None,
                degree: int | None = None) -> Renormalized:
    """Rf projected back onto the coefficient space of phi.

    phi_{Rf}(u) = f^{p-1}(phi(lam^2 u)) / lam, projected by project_T.  The
    fit residual must stay under PROJECTION_CAP or TruncationLoss is raised;
    the constant coefficient is then shifted so Rf(0) = 1 holds to within one
    rounding.
    """
    if step is None:
        step = detect(f)
    target = degree if degree is not None else max(f.degree, DEFAULT_DEGREE)
    coeffs, residual = project_T(f, step, target)
    if residual >= PROJECTION_CAP:
        raise TruncationLoss(
            f"projection residual {residual:.3e} exceeds {PROJECTION_CAP:.1e} "
            f"at degree {target}", residual=residual)
    coeffs = _basis.normalized_constant(coeffs, f.basis)
    return Renormalized(UnimodalMap(coeffs, f.basis), step, residual)


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
    the cumulative p_k and lam_k.  Synthetic towers (kind != "map") carry no
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
    try:
        spatial_permutation(intervals)
    except OverlapError as exc:
        raise OverlapError(f"level {k} {exc}") from None


def _check_nesting(child: np.ndarray, parent: np.ndarray, k: int,
                   tol: float = 1e-10) -> None:
    """Every child piece lies inside some parent piece, up to tol; else
    OverlapError names the first escaping child in time order."""
    inside = ((parent[:, 0] - tol <= child[:, None, 0])
              & (child[:, None, 1] <= parent[:, 1] + tol))
    escaped = np.flatnonzero(~np.any(inside, axis=1))
    if escaped.size:
        left, right = child[escaped[0]]
        raise OverlapError(
            f"level {k} piece [{left}, {right}] escapes level {k - 1}")


def tower(f: UnimodalMap, depth: int) -> IntervalTower:
    """Iterate detect/renormalize, tracking Delta_{i,k} = f^i([-|lam_k|, |lam_k|]).

    lam_k and p_k multiply up over the levels.  Delta_{0,k} = [-a_k, a_k],
    a_k = |lam_k|; for i >= 1, Delta_{i,k} is the hull of f^i(0) (one tip
    orbit, extended as p_k grows) and f^i(a_k): about 2 p_depth scalar
    steps.  The level's disjointness check certifies the hulls: a piece
    disjoint from Delta_{0,k} misses the critical point, so by induction f^i
    is monotone on each half of [-a_k, a_k].  On failure at some level the
    tower built so far is returned with a truncation marker.
    """
    if depth < 1:
        raise InvalidMap("tower depth must be >= 1")
    levels: list[np.ndarray] = []
    periods: list[int] = []
    scalings: list[float] = []
    g = f
    p_cum, lam_cum = 1, 1.0
    truncated_at, note = None, None
    tip = orbit_stack(f, 0.0, 0)
    for k in range(1, depth + 1):
        try:
            ren = renormalize(g)
        except (NotRenormalizable, DegenerateScaling, TruncationLoss,
                InvalidMap) as exc:
            truncated_at, note = k, f"{type(exc).__name__}: {exc}"
            break
        p_cum *= ren.step.p
        lam_cum *= ren.step.lam
        a = abs(lam_cum)
        tip = np.concatenate(
            [tip, orbit_stack(f, tip[-1], p_cum - tip.size)[1:]])
        pieces = _hulls(np.stack([tip, orbit_stack(f, a, p_cum - 1)], -1))
        pieces[0] = -a, a
        _check_level_disjoint(pieces, k)
        if levels:
            _check_nesting(pieces, levels[-1], k)
        levels.append(pieces)
        periods.append(p_cum)
        scalings.append(lam_cum)
        g = ren.map
    return IntervalTower(levels=tuple(levels), periods=tuple(periods),
                         scalings=tuple(scalings), truncated_at=truncated_at,
                         note=note, kind="map")


def central_dominance(tw: IntervalTower) -> float:
    """min over levels of |Delta_{0,k}| / max_i |Delta_{i,k}|."""
    floor = np.inf
    for k in range(1, tw.depth + 1):
        lens = tw.lengths(k)
        floor = min(floor, float(lens[0] / np.max(lens)))
    return float(floor)


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
        for i, (left, right) in enumerate(tw.level(k)):
            yield k, i, float(left), float(right), float(right - left)
