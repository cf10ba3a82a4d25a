"""One-parameter family analysis: windows, cascades, parameter Cantor sets.

Everything in parameter space runs on bisection against robust predicates
(sign of the critical-orbit value, or a combinatorial classification of the
renormalization type); the objectives oscillate far too wildly for Newton.
Windows of a renormalization type are located by scanning a grid, taking the
longest run where the classification holds, and bisecting both edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BracketNotFound, DomainError, RenormlabError,
                     SingleItinerary, WindowNotFound)
from .geometry import DimensionReport, hausdorff_dimension
from .maps import QuadraticFamily, validate
from .renorm import IntervalTower, detect, renormalize, renormalize_type

SCAN_GRID = 2000
EDGE_TOL = 1e-8
WINDOW_DEGREE = 16
WINDOW_GRIDS = (129, 513, 2049)
DEPTH_CAP = 10
DEFAULT_BRACKET = (0.3, 2.0)


# ---------------------------------------------------------------------------
# superstable parameters and cascades


def _bisect_root(h, lo: float, hi: float, iters: int = 80) -> float:
    flo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = h(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _proper_divisors(q: int) -> list[int]:
    return [d for d in range(1, q) if q % d == 0]


def _superstable_in(fam: QuadraticFamily, q: int, lo: float, hi: float,
                    grid: int) -> float | None:
    """Leftmost primitive root of f_c^q(0) in (lo, hi), or None."""
    cs = np.linspace(lo, hi, grid)
    h = fam.critical_value_map(cs, q)
    flips = np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[0]
    scalar = lambda q_: (lambda c: float(fam.critical_value_map(
        np.array([c]), q_)[0]))
    for i in flips:
        c = _bisect_root(scalar(q), cs[i], cs[i + 1])
        primitive = all(abs(scalar(d)(c)) > 1e-9 for d in _proper_divisors(q))
        if primitive:
            return c
    return None


def superstable_parameters(fam: QuadraticFamily, periods,
                           c_range: tuple[float, float] = (0.4, 2.0),
                           grid: int = SCAN_GRID) -> np.ndarray:
    """Parameters where the critical orbit is periodic with the given periods,
    taken left to right along the family.

    Consecutive doubling periods reuse the previous gap to predict the next
    scan window (the gaps contract geometrically, so a uniform grid over the
    whole remaining range would miss the deep members).
    """
    periods = [int(q) for q in periods]
    if any(q < 2 for q in periods):
        raise DomainError("superstable periods start at 2")
    out: list[float] = []
    cursor = c_range[0]
    prev_gap = None
    for n, q in enumerate(periods):
        c = None
        doubling = n >= 1 and q == 2 * periods[n - 1]
        if doubling and prev_gap is not None:
            c = _superstable_in(fam, q, cursor + 0.05 * prev_gap,
                                min(cursor + 2.5 * prev_gap, c_range[1]), 200)
        if c is None:
            eps = 1e-9 * max(1.0, abs(cursor))
            c = _superstable_in(fam, q, cursor + eps, c_range[1], grid)
        if c is None:
            raise BracketNotFound(f"no primitive period-{q} critical orbit "
                                  f"in ({cursor:.6g}, {c_range[1]})")
        if out:
            prev_gap = c - out[-1]
        out.append(c)
        cursor = c
    return np.asarray(out)


@dataclass(frozen=True)
class CascadeReport:
    params: np.ndarray
    ratios: np.ndarray
    delta_estimate: float
    c_infinity: float

    def __post_init__(self):
        for name in ("params", "ratios"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def cascade(fam: QuadraticFamily, n_max: int) -> CascadeReport:
    """Superstable doubling cascade c_1 < c_2 < ... for periods 2^n and the
    scaling-ratio limit.

    ratios[n] = (c_{n+1}-c_n)/(c_{n+2}-c_{n+1}); the limit estimate is an
    Aitken extrapolation of the last ratios, and c_infinity extrapolates the
    geometric tail beyond the last parameter.
    """
    if n_max < 4:
        raise DomainError(f"need n_max >= 4, got {n_max}")
    params = superstable_parameters(fam, [2**n for n in range(1, n_max + 1)])
    gaps = np.diff(params)
    ratios = gaps[:-1] / gaps[1:]
    if len(ratios) >= 3:
        r = ratios[-3:]
        denom = r[2] - 2 * r[1] + r[0]
        if abs(denom) > 1e-12 * abs(r[2]):
            delta = float(r[2] - (r[2] - r[1]) ** 2 / denom)
        else:
            delta = float(r[2])
    else:
        delta = float(ratios[-1])
    c_inf = float(params[-1] + gaps[-1] / (delta - 1.0))
    return CascadeReport(params=params, ratios=ratios, delta_estimate=delta,
                         c_infinity=c_inf)


# ---------------------------------------------------------------------------
# renormalization windows


@dataclass(frozen=True)
class Window:
    """A half window: interval runs from about superstable_c, where
    lam = f^p(0) = 0, to the right edge, not from the saddle-node where the
    tuning window starts (p = 3: (1.7548776, 1.7903275) against the tuning
    window from 1.75; doubling: (0.99999930, 1.5436890), superstable_c 1)."""

    p: int
    theta: tuple[int, ...]
    interval: tuple[float, float]
    superstable_c: float


def _classify(fam: QuadraticFamily, c: float, p: int):
    """(matches_p, theta_or_None); degenerate scaling counts as inside.

    Periods above p are not scanned: they could only give False."""
    try:
        g = fam.member(c)
        step = detect(g, p_max=p, grid=32)
    except RenormlabError as err:
        deg_p = getattr(err, "p", None)
        if deg_p == p:
            return True, None
        return False, None
    return step.p == p, step.perm


def find_windows(fam: QuadraticFamily, p: int,
                 c_range: tuple[float, float],
                 grid: int = SCAN_GRID) -> list[Window]:
    """Maximal parameter runs where the first renormalization has period p
    and constant permutation, refined at both edges.

    The superstable parameter inside each window is the root of f_c^p(0).
    Left of it J = [-|lam|, |lam|] is not invariant, so each run is a half
    window [about superstable_c, right edge]; see Window.
    """
    if grid < 100:
        raise DomainError(f"grid must be >= 100, got {grid}")
    cs = np.linspace(c_range[0], c_range[1], grid)
    marks = []
    thetas = []
    for c in cs:
        ok, theta = _classify(fam, float(c), p)
        marks.append(ok)
        thetas.append(theta)
    windows = []
    i = 0
    while i < grid:
        if not marks[i]:
            i += 1
            continue
        j = i
        theta = None
        while j < grid and marks[j]:
            if thetas[j] is not None:
                if theta is None:
                    theta = thetas[j]
                elif thetas[j] != theta:
                    break
            j += 1
        if theta is not None:
            def inside(c, th=theta):
                ok, got = _classify(fam, c, p)
                return ok and (got is None or got == th)
            lo = cs[i]
            if i > 0:
                lo = _bisect_edge(inside, cs[i - 1], cs[i])
            hi = cs[j - 1]
            if j < grid:
                hi = _bisect_edge(inside, cs[j], cs[j - 1])
            c_ss = _superstable_in(fam, p, lo, hi, 400)
            if c_ss is not None:
                windows.append(Window(p=p, theta=tuple(theta),
                                      interval=(float(lo), float(hi)),
                                      superstable_c=float(c_ss)))
        i = j
    return windows


def _bisect_edge(inside, c_out: float, c_in: float,
                 tol: float = EDGE_TOL) -> float:
    while abs(c_in - c_out) > tol:
        mid = 0.5 * (c_in + c_out)
        if mid == c_in or mid == c_out:
            break
        if inside(mid):
            c_in = mid
        else:
            c_out = mid
    return c_in


# ---------------------------------------------------------------------------
# nested windows and the parameter Cantor set


def _itinerary_ok(fam: QuadraticFamily, c: float, prefix) -> bool:
    """Does f_c realize the first len(prefix) renormalization types?

    Each level scans periods only up to len(theta): any other period fails."""
    try:
        g = fam.member(c)
        for theta in prefix:
            step = detect(g, p_max=len(theta), grid=32)
            if step.p != len(theta) or step.perm != tuple(theta):
                return False
            g, _ = renormalize(g, step, degree=WINDOW_DEGREE)
    except RenormlabError:
        return False
    return True


def classify(fam: QuadraticFamily, cs, prefix) -> np.ndarray:
    """_itinerary_ok at every parameter of cs, as one boolean array.

    The members form one coefficient stack and each level renormalizes all
    surviving rows together (renorm.renormalize_type), so the cost is one
    pass per level, not one per parameter.  Parameters outside the family's
    domain, and members that fail validation, come out False.
    """
    cs = np.asarray(cs, dtype=float)
    inside, g = fam.members(cs)
    rows = np.nonzero(inside)[0]
    valid = validate(g).ok
    rows, g = rows[valid], g[valid]
    for theta in prefix:
        if not rows.size:
            break
        hit, g = renormalize_type(g, tuple(theta), WINDOW_DEGREE, grid=32)
        rows = rows[hit]
    ok = np.zeros(cs.shape, dtype=bool)
    ok[rows] = True
    return ok


def _window_for_prefix(fam: QuadraticFamily, prefix,
                       bracket: tuple[float, float]) -> tuple[float, float]:
    """Longest parameter run in `bracket` realizing `prefix`, edges refined."""
    lo, hi = bracket
    for grid in WINDOW_GRIDS:
        cs = np.linspace(lo, hi, grid)
        ok = classify(fam, cs, prefix)
        if not ok.any():
            continue
        padded = np.r_[False, ok, False]
        starts = np.nonzero(padded[1:].astype(int)
                            - padded[:-1].astype(int) == 1)[0]
        ends = np.nonzero(padded[1:].astype(int)
                          - padded[:-1].astype(int) == -1)[0]
        best = int(np.argmax(ends - starts))
        i, j = starts[best], ends[best] - 1
        inside = lambda c: _itinerary_ok(fam, c, prefix)
        tol = min(EDGE_TOL, 1e-3 * (cs[j] - cs[i] + cs[1] - cs[0]))
        a = cs[i] if i == 0 else _bisect_edge(inside, cs[i - 1], cs[i], tol)
        b = cs[j] if j == grid - 1 else _bisect_edge(inside, cs[j + 1],
                                                     cs[j], tol)
        return float(a), float(b)
    raise WindowNotFound(f"no window for a depth-{len(prefix)} itinerary "
                         f"inside ({lo:.8g}, {hi:.8g})", depth=len(prefix))


@dataclass(frozen=True)
class ParameterBracket:
    c: float
    bracket: tuple[float, float]
    widths: tuple[float, ...]
    depth: int


def infinitely_renormalizable_parameter(fam: QuadraticFamily, thetas,
                                        depth: int,
                                        bracket: tuple[float, float]
                                        = DEFAULT_BRACKET) -> ParameterBracket:
    """Nested-window chase for the parameter whose renormalization types
    follow `thetas` cyclically, to the given depth.

    Returns the final window midpoint with its bracket; widths records the
    window at every depth (they are strictly nested).
    """
    thetas = [tuple(t) for t in thetas]
    if not thetas:
        raise DomainError("need at least one renormalization type")
    if depth < 1 or depth > DEPTH_CAP:
        raise DomainError(f"depth must lie in 1..{DEPTH_CAP}, got {depth}")
    prefix = [thetas[k % len(thetas)] for k in range(depth)]
    lo, hi = bracket
    widths = []
    for d in range(1, depth + 1):
        lo, hi = _window_for_prefix(fam, prefix[:d], (lo, hi))
        widths.append(hi - lo)
    return ParameterBracket(c=0.5 * (lo + hi), bracket=(float(lo), float(hi)),
                            widths=tuple(widths), depth=depth)


def parameter_window_tower(fam: QuadraticFamily, Theta, depth: int,
                           bracket: tuple[float, float] = DEFAULT_BRACKET,
                           ) -> IntervalTower:
    """Tower of all nested type-itinerary windows over Theta^k, k <= depth.

    Level 1 is the hull of the first-generation windows; level k+1 holds the
    |Theta|^k windows of all length-k itineraries, in increasing order.
    """
    Theta = [tuple(t) for t in Theta]
    if len(Theta) < 2:
        raise SingleItinerary("need at least two renormalization types "
                              "for a parameter Cantor set")
    if depth < 1 or depth > 6:
        raise DomainError(f"depth must lie in 1..6, got {depth}")
    frontier: list[tuple[tuple, tuple[float, float]]] = [((), bracket)]
    levels = []
    for _ in range(depth):
        nxt = []
        for prefix, brk in frontier:
            for theta in Theta:
                child = prefix + (theta,)
                win = _window_for_prefix(fam, list(child), brk)
                nxt.append((child, win))
        nxt.sort(key=lambda t: t[1][0])
        levels.append(np.array([w for _, w in nxt]))
        frontier = nxt
    root = np.array([[levels[0][0, 0], levels[0][-1, 1]]])
    periods = (1,) + tuple(len(Theta)**k for k in range(1, depth + 1))
    return IntervalTower(levels=(root,) + tuple(levels), periods=periods,
                         scalings=None, note="parameter windows",
                         kind="parameter")


def parameter_cantor_dimension(fam: QuadraticFamily, Theta, depth: int,
                               bracket: tuple[float, float] = DEFAULT_BRACKET,
                               ) -> DimensionReport:
    """Hausdorff dimension of the bounded-type parameter set, from the
    covering sums of the nested window tower."""
    tw = parameter_window_tower(fam, Theta, depth, bracket)
    return hausdorff_dimension(tw, kmin=2)
