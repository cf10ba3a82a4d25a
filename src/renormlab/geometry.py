"""Geometry of interval towers: ratio bounds, decay sums, Hausdorff dimension.

Everything here consumes an IntervalTower and is agnostic to where it came
from (a map, a parameter sweep, or a synthetic construction).  Lengths below
LENGTH_FLOOR, and nan lengths, count as lost to rounding: levels containing
one terminate the usable depth and are excluded from every fit.  A level
with no piece terminates it too, so each entry point raises EmptyLevel
on it (partition_sum returns the levels before it) rather than reducing
over nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .errors import DomainError, EmptyLevel
from .renorm import IntervalTower
from .roots import brent

LENGTH_FLOOR = 1e-13
# gap components shorter than this fraction of the parent are endpoint
# artifacts (children of a map tower touch their parent at critical-orbit
# points, and hull rounding can leave a sliver where the touch is exact)
GAP_ARTIFACT_REL = 1e-9
NEAR_DEGENERATE_TAU = 1e-3


def usable_depth(tower: IntervalTower) -> int:
    """Deepest k with levels 1..k nonempty and every length on them >=
    LENGTH_FLOOR (no nan); a level with no piece ends the usable depth."""
    k = 0
    for lv in range(1, tower.depth + 1):
        lengths = tower.lengths(lv)
        if not (lengths.size and lengths.min() >= LENGTH_FLOOR):
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


def _level_ratios(parents: np.ndarray, level: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """(child_ratios, gap_ratios) of level k + 1 inside level k.

    A child belongs to each parent that holds its midpoint and is clipped
    to it.  A parent's children are a run of the midpoints sorted once,
    found by binary search on its two ends (none when right < left or an
    end is nan), so memory is linear in the levels and the (parent, child)
    pairs.  The pairs, sorted by (parent, left end, child), are walked once,
    parent by parent in time order, for the components of each parent minus
    its children.  A gap component shorter than GAP_ARTIFACT_REL of the
    parent is dropped.  Raises EmptyLevel for the first parent, in time
    order, that is degenerate or has no child."""
    plen = parents[:, 1] - parents[:, 0]
    mids = 0.5 * (level[:, 0] + level[:, 1])
    by_mid = np.argsort(mids)
    start = np.searchsorted(mids[by_mid], parents[:, 0], side="left")
    stop = np.searchsorted(mids[by_mid], parents[:, 1], side="right")
    counts = np.where(parents[:, 1] >= parents[:, 0], stop - start, 0)
    owner = np.repeat(np.arange(len(parents)), counts)
    kid = by_mid[np.arange(owner.size)
                 + np.repeat(start - np.cumsum(counts) + counts, counts)]
    bad = (plen < LENGTH_FLOOR) | (counts == 0)
    if np.any(bad):
        first = int(np.argmax(bad))
        if plen[first] < LENGTH_FLOOR:
            raise EmptyLevel(f"level {k} has a degenerate interval")
        raise EmptyLevel(f"no level-{k + 1} children inside a "
                         f"level-{k} interval")
    left = np.maximum(level[kid, 0], parents[owner, 0])
    right = np.minimum(level[kid, 1], parents[owner, 1])
    order = np.lexsort((kid, left, owner))
    left, right = left[order], right[order]
    child_ratios = (right - left) / plen[owner[order]]
    kids = zip(left.tolist(), right.tolist())
    gaps = []
    for (lo, hi), count, length in zip(parents.tolist(), counts.tolist(),
                                       plen.tolist()):
        comps, cursor = [], lo
        for a, b in islice(kids, count):
            if a > cursor:
                comps.append(a - cursor)
            cursor = max(cursor, b)
        if hi > cursor:
            comps.append(hi - cursor)
        gaps += [g / length for g in comps if g > GAP_ARTIFACT_REL * length]
    return child_ratios, np.asarray(gaps, dtype=float)


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
        cr, gr = _level_ratios(tower.level(k), tower.level(k + 1), k)
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


def _mean_log_ratio(loglens: list[np.ndarray], s: float) -> float:
    """Mean of log(S_{k+1}/S_k) over consecutive levels of loglens, the
    log lengths of a fit window's levels, at exponent s."""
    logs = [float(np.log(np.sum(np.exp(s * ll)))) for ll in loglens]
    return float(np.mean(np.diff(logs)))


def hausdorff_dimension(tower: IntervalTower,
                        bracket: tuple[float, float] = (0.01, 0.99),
                        kmin: int | None = None) -> DimensionReport:
    """Critical exponent of the per-level covering sums.

    The fitted quantity is the mean log-ratio of consecutive partition sums
    over levels kmin..K, smooth and decreasing in the exponent s; its zero
    in bracket, found by roots.brent to float resolution (NoBracket where
    bracket holds none), is the dimension estimate.  Stability is the
    difference between the estimates on windows [kmin..K-1] and [kmin+1..K].
    """
    kmax = usable_depth(tower)
    if kmin is None:
        if kmax < 5:
            raise EmptyLevel(f"need five usable levels, have {kmax}")
        kmin = 3 if kmax >= 6 else 2
    elif kmax < kmin + 2:
        raise EmptyLevel(f"need {kmin + 2} usable levels for kmin = {kmin}, "
                         f"have {kmax}")
    if kmin < 1:
        raise DomainError(f"kmin = {kmin} leaves no fit window in 1..{kmax}")
    loglens = _log_length_levels(tower, kmax)
    s_est, s_lo, s_hi = (
        brent(partial(_mean_log_ratio, loglens[lo - 1:hi]), *bracket)
        for lo, hi in ((kmin, kmax), (kmin, kmax - 1), (kmin + 1, kmax)))
    sums = partition_sum(tower, s_est)
    eta = float(np.exp(_mean_log_ratio(loglens[kmin - 1:kmax], s_est)))
    return DimensionReport(
        s_estimate=float(s_est),
        sums=sums,
        eta=eta,
        stability=float(abs(s_hi - s_lo)),
        fit_levels=(kmin, kmax),
    )
