"""Geometry of interval towers: ratio bounds, decay sums, Hausdorff dimension.

Everything here consumes an IntervalTower and is agnostic to where it came
from (a map, a parameter sweep, or a synthetic construction).  Lengths below
LENGTH_FLOOR are treated as lost to rounding: levels containing one terminate
the usable depth and are excluded from every fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyLevel, NoBracket
from .renorm import IntervalTower, _check_level_disjoint, _check_nesting
from .roots import brent

LENGTH_FLOOR = 1e-13
# gap components shorter than this fraction of the parent are endpoint
# artifacts (children of a map tower touch their parent at critical-orbit
# points, and hull rounding can leave a sliver where the touch is exact)
GAP_ARTIFACT_REL = 1e-9
NEAR_DEGENERATE_TAU = 1e-3


def usable_depth(tower: IntervalTower) -> int:
    """Deepest level whose shortest interval still resolves in floating point."""
    k = 0
    for lv in range(1, tower.depth + 1):
        if tower.lengths(lv).min() < LENGTH_FLOOR:
            break
        k = lv
    return k


# ---------------------------------------------------------------------------
# bounded geometry


@dataclass(frozen=True)
class GeometryReport:
    tau: float
    levels_checked: int
    child_ratios: tuple[np.ndarray, ...]
    gap_ratios: tuple[np.ndarray, ...]
    near_degenerate: bool

    def all_interior(self) -> bool:
        return self.tau > 0.0


def _children_of(parent: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Rows of `level` whose midpoint lies in `parent`, clipped to it."""
    mids = 0.5 * (level[:, 0] + level[:, 1])
    inside = (mids >= parent[0]) & (mids <= parent[1])
    kids = level[inside].copy()
    kids[:, 0] = np.maximum(kids[:, 0], parent[0])
    kids[:, 1] = np.minimum(kids[:, 1], parent[1])
    return kids[np.argsort(kids[:, 0])]


def _gap_components(parent: np.ndarray, kids: np.ndarray) -> np.ndarray:
    """Lengths of the connected components of parent minus its children."""
    gaps = []
    cursor = parent[0]
    for a, b in kids:
        if a > cursor:
            gaps.append(a - cursor)
        cursor = max(cursor, b)
    if parent[1] > cursor:
        gaps.append(parent[1] - cursor)
    return np.asarray(gaps, dtype=float)


def bounded_geometry(tower: IntervalTower) -> GeometryReport:
    """Child/parent and gap/parent length ratios across adjacent levels.

    tau is the largest margin such that every ratio lies in (tau, 1-tau);
    zero-length gap components (touching children) are not components and do
    not enter.  Raises EmptyLevel if fewer than two levels are available.
    """
    kmax = usable_depth(tower)
    if kmax < 2:
        raise EmptyLevel(f"need two usable levels, have {kmax}")
    child_ratios = []
    gap_ratios = []
    tau = 0.5
    for k in range(1, kmax):
        parents = tower.level(k)
        kids_level = tower.level(k + 1)
        cr = []
        gr = []
        for parent in parents:
            plen = parent[1] - parent[0]
            if plen < LENGTH_FLOOR:
                raise EmptyLevel(f"level {k} has a degenerate interval")
            kids = _children_of(parent, kids_level)
            if len(kids) == 0:
                raise EmptyLevel(f"no level-{k + 1} children inside a "
                                 f"level-{k} interval")
            cr.extend((kids[:, 1] - kids[:, 0]) / plen)
            gaps = _gap_components(parent, kids)
            gaps = gaps[gaps > GAP_ARTIFACT_REL * plen]
            gr.extend(gaps / plen)
        cr = np.asarray(cr)
        gr = np.asarray(gr)
        child_ratios.append(cr)
        gap_ratios.append(gr)
        for arr in (cr, gr):
            if arr.size:
                tau = min(tau, np.min(np.minimum(arr, 1.0 - arr)))
    tau = max(0.0, float(tau))
    return GeometryReport(
        tau=tau,
        levels_checked=kmax,
        child_ratios=tuple(child_ratios),
        gap_ratios=tuple(gap_ratios),
        near_degenerate=tau <= NEAR_DEGENERATE_TAU,
    )


def largest_interval_constant(tower: IntervalTower) -> np.ndarray:
    """Per-level max_i |Delta_i| / |Delta_0|, one entry per usable level."""
    kmax = usable_depth(tower)
    if kmax < 1:
        raise EmptyLevel("tower has no usable levels")
    out = np.empty(kmax)
    for k in range(1, kmax + 1):
        lens = tower.lengths(k)
        out[k - 1] = lens.max() / lens[0]
    return out


# ---------------------------------------------------------------------------
# decay sums


@dataclass(frozen=True)
class DecayFit:
    exponent_t: float
    sums: np.ndarray
    mu: float
    c0: float
    fit_levels: tuple[int, int]

    def __post_init__(self):
        arr = np.asarray(self.sums, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "sums", arr)


def _cyclic_sum(lengths: np.ndarray, t: float) -> float:
    return float(np.sum(lengths**t / np.roll(lengths, -1)))


def spectral_sum(tower: IntervalTower, t: float) -> DecayFit:
    """Per-level sums S_k = sum_i |Delta_i|^t / |Delta_{i+1}| (cyclic index).

    mu is the geometric mean of S_{k+1}/S_k over levels >= 2 (the first level
    is transient and left to the constant c0).
    """
    if not t > 1.0:
        raise DomainError(f"exponent t must exceed 1, got {t}")
    kmax = usable_depth(tower)
    if kmax < 3:
        raise EmptyLevel(f"need three usable levels, have {kmax}")
    sums = np.array([_cyclic_sum(tower.lengths(k), t)
                     for k in range(1, kmax + 1)])
    lo, hi = 2, kmax
    mu = float((sums[hi - 1] / sums[lo - 1]) ** (1.0 / (hi - lo)))
    ks = np.arange(lo, hi + 1)
    c0 = float(np.exp(np.mean(np.log(sums[lo - 1:hi]) - ks * np.log(mu))))
    return DecayFit(exponent_t=float(t), sums=sums, mu=mu, c0=c0,
                    fit_levels=(lo, hi))


def partition_sum(tower: IntervalTower, s: float) -> np.ndarray:
    """Covering sums sum_j |Delta_{j,k}|^s for k = 1..usable depth."""
    if not 0.0 < s <= 1.0:
        raise DomainError(f"exponent s must lie in (0, 1], got {s}")
    kmax = usable_depth(tower)
    if kmax < 1:
        raise EmptyLevel("tower has no usable levels")
    return np.array([float(np.sum(tower.lengths(k)**s))
                     for k in range(1, kmax + 1)])


# ---------------------------------------------------------------------------
# dimension


@dataclass(frozen=True)
class DimensionReport:
    s_estimate: float
    sums: np.ndarray
    eta: float
    stability: float
    fit_levels: tuple[int, int]

    def __post_init__(self):
        arr = np.asarray(self.sums, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "sums", arr)


def _log_length_levels(tower: IntervalTower, kmax: int) -> list[np.ndarray]:
    return [np.log(tower.lengths(k)) for k in range(1, kmax + 1)]


def _mean_log_ratio(loglens: list[np.ndarray], s: float,
                    lo: int, hi: int) -> float:
    """Mean of log(S_{k+1}/S_k) over k = lo..hi-1 at exponent s."""
    logs = [float(np.log(np.sum(np.exp(s * ll)))) for ll in loglens]
    return float(np.mean(np.diff(logs[lo - 1:hi])))


def _root_exponent(loglens, lo_k: int, hi_k: int, bracket) -> float:
    """Zero in s of _mean_log_ratio over levels lo_k..hi_k, by brent to
    float resolution; NoBracket if the ratio keeps its sign on bracket."""
    def ratio(s):
        return _mean_log_ratio(loglens, s, lo_k, hi_k)

    a, b = bracket
    ra, rb = ratio(a), ratio(b)
    if ra * rb > 0.0:
        raise NoBracket(f"partition-sum ratio does not change sign on "
                        f"({a}, {b}): r({a}) = {ra:.3g}, r({b}) = {rb:.3g}")
    return brent(ratio, a, b)


def hausdorff_dimension(tower: IntervalTower,
                        bracket: tuple[float, float] = (0.01, 0.99),
                        kmin: int | None = None) -> DimensionReport:
    """Critical exponent of the per-level covering sums.

    The fitted quantity is the mean log-ratio of consecutive partition sums
    over levels kmin..K, smooth and decreasing in the exponent s; its zero
    in bracket, found by roots.brent to float resolution, is the dimension
    estimate.  Stability is the difference between the estimates on
    windows [kmin..K-1] and [kmin+1..K].
    """
    kmax = usable_depth(tower)
    if kmin is None:
        if kmax < 5:
            raise EmptyLevel(f"need five usable levels, have {kmax}")
        kmin = 3 if kmax >= 6 else 2
    elif kmax < kmin + 2:
        raise EmptyLevel(f"need {kmin + 2} usable levels for kmin = {kmin}, "
                         f"have {kmax}")
    if kmin < 1 or kmin > kmax - 2:
        raise DomainError(f"kmin = {kmin} leaves no fit window in 1..{kmax}")
    loglens = _log_length_levels(tower, kmax)
    s_est = _root_exponent(loglens, kmin, kmax, bracket)
    s_lo = _root_exponent(loglens, kmin, kmax - 1, bracket)
    s_hi = _root_exponent(loglens, kmin + 1, kmax, bracket)
    sums = partition_sum(tower, s_est)
    eta = float(np.exp(_mean_log_ratio(loglens, s_est, kmin, kmax)))
    return DimensionReport(
        s_estimate=float(s_est),
        sums=sums,
        eta=eta,
        stability=float(abs(s_hi - s_lo)),
        fit_levels=(kmin, kmax),
    )


# ---------------------------------------------------------------------------
# synthetic towers (test oracles and surrogates)


def self_similar_tower(branching: int, ratio: float, depth: int,
                       length0: float = 1.0) -> IntervalTower:
    """Exactly self-similar tower on [0, length0].

    Each interval spawns `branching` children of `ratio` times its length,
    flush with its endpoints and separated by equal gaps.  Closed forms:
    spectral_sum's S_k = branching^k * (length0 * ratio^k)^(t-1) so the
    fitted mu is branching * ratio^(t-1); the dimension is
    log(branching) / log(1/ratio).
    """
    if branching < 2:
        raise DomainError(f"branching must be >= 2, got {branching}")
    if not 0.0 < ratio * branching < 1.0:
        raise DomainError(f"need 0 < branching * ratio < 1, got "
                          f"{branching * ratio}")
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    levels = []
    current = np.array([[0.0, length0]])
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
