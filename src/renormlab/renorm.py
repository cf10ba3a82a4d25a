"""Period-p renormalization of unimodal maps and the interval towers it builds.

Rf(x) = f^p(lam x) / lam with lam = f^p(0), taken at the smallest p >= 2 for
which the central interval J = [-|lam|, |lam|] is invariant under f^p and the
first-return pieces Delta_i = f^i(J), i = 0..p-1, are pairwise disjoint.  The
spatial order of those pieces is the combinatorial type theta.  Iterating the
construction produces a nested tower of interval families whose geometry
carries the fine structure of the attractor.

Both tests read two orbits, of the tip 0 and of the endpoint a = |lam| (f is
even, so -a follows a after one step).  f is monotone on each side of 0
(validate requires phi' < 0), so a piece Delta_i, i >= 1, that is disjoint
from Delta_0 = J misses the critical point; by induction f^i is monotone on
each half of J and Delta_i is exactly the span of f^i(0) and f^i(a).  The
disjointness check, which includes Delta_0, therefore certifies the two-orbit
pieces, and with them that f^p is unimodal on J and that its reach on J is
max(|f^p(0)|, |f^p(a)|) (Milnor-Thurston monotonicity on laps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .errors import (CombinatoricsMismatch, DegenerateScaling, InvalidMap,
                     NotRenormalizable, OverlapError, TruncationLoss)
from .maps import UnimodalMap, validate

LAMBDA_FLOOR = 1e-8
INVARIANCE_TOL = 1e-12
NESTING_TOL = 1e-10
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
    return 2.0 * z * f.phi_deriv(z * z)


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


# first test a candidate period fails, in the order they run
_NEAR_ONE, _NOT_INVARIANT, _OVERLAP = 1, 2, 3


@dataclass(frozen=True)
class _Trial:
    """Candidate period p tested on every row of a pair of orbit stacks."""

    p: int
    lam: np.ndarray       # (n,) f^p(0)
    fail: np.ndarray      # (n,) 0 for an admissible row, else the test code
    reach: np.ndarray     # (n,) max(|f^p(0)|, |f^p(a)|), a = |lam|
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
        try:
            spatial_permutation(self.pieces[i])
        except OverlapError as exc:
            return f"pieces overlap: {exc}"


def _test_period(tip: np.ndarray, ends: np.ndarray, p: int) -> _Trial:
    """The admissibility tests of period p, on every row at once.

    tip and ends are the orbits of the tip and of the endpoint, per row for
    i = 0..p: tip[i] = f^i(0) and ends[i] = f^i(a), a = |lam|, where
    lam = tip[p] is already checked nondegenerate by the caller.  In order:
    |lam| not within LAMBDA_FLOOR of 1; J = [-a, a] invariant under f^p,
    read from the reach max(|f^p(0)|, |f^p(a)|); the pieces pairwise
    disjoint, with Delta_0 = J and Delta_i, 1 <= i < p, the hull of f^i(0)
    and f^i(a).  A row fails at the first test it does not pass; only rows
    that pass the first two get pieces.  The last test certifies the first
    two: disjointness from Delta_0 makes f^i monotone on each half of J
    (module docstring), so the two-orbit hulls and reach are exact and f^p
    is unimodal on J.
    """
    lam = tip[p]
    n = lam.size
    a = np.abs(lam)
    t = _Trial(p=p, lam=lam,
               fail=np.where(a >= 1.0 - LAMBDA_FLOOR, _NEAR_ONE, 0),
               reach=np.maximum(a, np.abs(ends[p])),
               pieces=np.zeros((n, p, 2)), ranks=np.zeros((n, p), dtype=int))
    t.fail[(t.fail == 0) & (t.reach > a + INVARIANCE_TOL)] = _NOT_INVARIANT
    rows = np.nonzero(t.fail == 0)[0]
    if rows.size:
        pieces = _hulls(np.stack([tip[:p, rows], ends[:p, rows]], axis=-1))
        pieces[0] = np.stack([-a[rows], a[rows]], axis=-1)
        t.pieces[rows] = np.swapaxes(pieces, 0, 1)
        order, gaps = _left_to_right(t.pieces[rows])
        t.fail[rows[np.any(gaps <= 0.0, axis=-1)]] = _OVERLAP
        t.ranks[rows] = np.argsort(order, axis=-1)
    return t


def detect(f: UnimodalMap, p_max: int = 16,
           validate_input: bool = True) -> RenormStep:
    """Smallest admissible renormalization period and its combinatorics.

    Scans p = 2..p_max.  For each candidate the scaling lam = f^p(0) must be
    nondegenerate, J = [-|lam|, |lam|] invariant under f^p, and the pieces
    f^i(J) pairwise disjoint, all read from the orbits of the tip and of
    |lam| (_test_period; disjointness certifies that f^p is unimodal on J).
    The first reason each candidate fails is kept and reported on
    NotRenormalizable.

    A map built with check=True was validated on construction, so only
    unchecked maps get the structural pre-check, and validate_input=False
    skips it for them too; derivative probes evaluate T at maps that are off
    the normalized slice by construction.
    """
    if validate_input and not f.check:
        if not validate(f).ok:
            raise InvalidMap("detect requires a structurally valid map")
    reasons: dict[int, str] = {}
    tip = [0.0, float(f.phi(0.0))]
    for p in range(2, p_max + 1):
        z = tip[-1]
        tip.append(float(f.phi(z * z)))
        lam = tip[p]
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        ends = orbit_stack(f, abs(lam), p)
        trial = _test_period(np.array(tip)[:, None], ends[:, None], p)
        if trial.fail[0]:
            reasons[p] = trial.reason(0)
            continue
        return RenormStep(p=p, lam=lam, perm=trial.ranks[0],
                          intervals=trial.pieces[0])
    raise NotRenormalizable(
        f"no admissible period up to {p_max}", reasons=reasons)


def scan_periods(f, q: int):
    """What detect(p_max=q) finds at period q, for every row of f at once.

    f is a row view: len(f) rows, f[rows] selects some, and f.phi(u)
    evaluates row i at u[i] with u broadcasting against (n, 1), so the
    orbits run on it unchanged (families.FamilyLevel).  Returns (lam,
    degenerate, rows, trial): lam[i] = f_i^q(0); degenerate and rows split
    the rows where no period p < q is degenerate or admissible by whether
    lam vanishes at q (detect raises there), and trial tests period q on
    rows.  One tip orbit to step q serves every candidate; each candidate
    adds only the endpoint orbit.
    """
    lam_path = orbit_stack(f, np.zeros((len(f), 1)), q)[..., 0]
    degenerate = rows = np.arange(len(f) if q >= 2 else 0)

    def trial(p):
        ends = orbit_stack(f[rows], np.abs(lam_path[p, rows, None]), p)
        return _test_period(lam_path[:p + 1, rows], ends[..., 0], p)

    for p in range(2, q + 1):
        small = np.abs(lam_path[p, rows]) <= LAMBDA_FLOOR
        degenerate, rows = rows[small], rows[~small]
        if p < q:
            rows = rows[trial(p).fail != 0]
    return lam_path[q], degenerate, rows, trial(q)


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


def _check_nesting(child: np.ndarray, parent: np.ndarray, k: int) -> None:
    """Every child piece lies inside some parent piece, up to NESTING_TOL;
    else OverlapError names the first escaping child in time order."""
    inside = ((parent[:, 0] - NESTING_TOL <= child[:, None, 0])
              & (child[:, None, 1] <= parent[:, 1] + NESTING_TOL))
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
