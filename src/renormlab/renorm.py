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
from .maps import UnimodalMap, validate

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


def _sample_symmetric(a: float, grid: int) -> np.ndarray:
    """Points of [-a, a] including both endpoints and the tip at 0."""
    xs = np.linspace(-a, a, grid)
    return np.union1d(xs, [0.0])


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


def spatial_permutation(intervals: np.ndarray) -> tuple[int, ...]:
    """perm[i] = rank of interval i when sorted left to right.

    Raises OverlapError when the intervals are not pairwise disjoint."""
    intervals = np.asarray(intervals, dtype=float)
    order = np.argsort(intervals[:, 0])
    gaps = intervals[order[1:], 0] - intervals[order[:-1], 1]
    if np.any(gaps <= 0.0):
        w = int(np.argmin(gaps))
        a, b = order[w], order[w + 1]
        raise OverlapError(
            f"pieces {a} and {b} overlap by {-gaps[w]:.3e}: "
            f"{intervals[a].tolist()} vs {intervals[b].tolist()}")
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = np.arange(len(order))
    return tuple(int(r) for r in ranks)


def _hulls(zs: np.ndarray) -> np.ndarray:
    """(len(zs), 2) intervals [min, max] of each row of an orbit stack."""
    return np.stack([zs.min(axis=1), zs.max(axis=1)], axis=1)


def detect(f: UnimodalMap, p_max: int = 16, grid: int = 64,
           validate_input: bool = True) -> RenormStep:
    """Smallest admissible renormalization period and its combinatorics.

    Scans p = 2..p_max.  For each candidate the scaling lam = f^p(0) must be
    nondegenerate, J = [-|lam|, |lam|] invariant under f^p, f^p unimodal on J,
    and the pieces f^i(J) pairwise disjoint.  The first reason each candidate
    fails is kept and reported on NotRenormalizable.

    validate_input=False skips the structural pre-check; derivative probes
    evaluate T at maps that are off the normalized slice by construction.
    """
    if validate_input:
        diag = validate(f)
        if not diag.ok:
            raise InvalidMap("detect requires a structurally valid map")
    reasons: dict[int, str] = {}
    lam_path = orbit_stack(f, 0.0, p_max)
    for p in range(2, p_max + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        if abs(lam) >= 1.0 - LAMBDA_FLOOR:
            reasons[p] = f"|lam| = {abs(lam):.6f} too close to 1"
            continue
        a = abs(lam)
        zs = orbit_stack(f, _sample_symmetric(a, grid), p)
        reach = np.max(np.abs(zs[p]))
        if reach > a + INVARIANCE_TOL:
            reasons[p] = (f"J not invariant: |f^{p}| reaches "
                          f"{reach:.6e} > {a:.6e}")
            continue
        signs = np.sign(np.prod(slopes(f, zs[:p]), axis=0))
        signs = signs[signs != 0.0]
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        if flips != 1:
            reasons[p] = f"f^{p} not unimodal on J: {flips} derivative sign changes"
            continue
        pieces = _hulls(zs[:p])
        try:
            perm = spatial_permutation(pieces)
        except OverlapError as exc:
            reasons[p] = f"pieces overlap: {exc}"
            continue
        return RenormStep(p=p, lam=lam, perm=perm, intervals=pieces)
    raise NotRenormalizable(
        f"no admissible period up to {p_max}", reasons=reasons)


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

    Least-squares projection on oversampled Chebyshev nodes; the constant
    term is left as fitted, so Tf(0) = 1 holds only to roundoff."""
    lam, p = step.lam, step.p

    def phi_tf(u):
        return orbit_stack(f, f.phi((lam * lam) * u), p - 1)[-1] / lam

    return _basis.project_function(phi_tf, degree, f.basis)


def renormalize(f: UnimodalMap, step: RenormStep | None = None,
                degree: int | None = None,
                residual_cap: float = PROJECTION_CAP) -> Renormalized:
    """Rf projected back onto the coefficient space of phi.

    phi_{Rf}(u) = f^{p-1}(phi(lam^2 u)) / lam, sampled on oversampled
    Chebyshev nodes and least-squares fitted.  The fit residual must stay
    under residual_cap or TruncationLoss is raised; the constant coefficient
    is then shifted so Rf(0) = 1 holds exactly rather than to roundoff.
    """
    if step is None:
        step = detect(f)
    target = degree if degree is not None else max(f.degree, DEFAULT_DEGREE)
    coeffs, residual = project_T(f, step, target)
    if residual >= residual_cap:
        raise TruncationLoss(
            f"projection residual {residual:.3e} exceeds {residual_cap:.1e} "
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
    for left, right in child:
        inside = (parent[:, 0] - tol <= left) & (right <= parent[:, 1] + tol)
        if not bool(np.any(inside)):
            raise OverlapError(
                f"level {k} piece [{left}, {right}] escapes level {k - 1}")


def tower(f: UnimodalMap, depth: int, grid: int = 64) -> IntervalTower:
    """Iterate detect/renormalize, tracking Delta_{i,k} = f^i([-|lam_k|, |lam_k|]).

    lam_k and p_k multiply up over the levels; the hulls are followed with a
    symmetric sample of the central interval (tips and endpoints included, so
    the hulls are exact for these dynamics up to roundoff).  On failure at
    some level the tower built so far is returned with a truncation marker.
    """
    if depth < 1:
        raise InvalidMap("tower depth must be >= 1")
    levels: list[np.ndarray] = []
    periods: list[int] = []
    scalings: list[float] = []
    g = f
    p_cum, lam_cum = 1, 1.0
    truncated_at, note = None, None
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
        pieces = _hulls(orbit_stack(f, _sample_symmetric(a, grid), p_cum - 1))
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
