"""One-parameter family analysis: windows, cascades, parameter Cantor sets.

Parameter space is searched in two stages.  A combinatorial classification
of a whole parameter grid, in one batched pass, picks the run of parameters
with the requested renormalization types: classify_period (is the first
renormalization period p, and of which type) for find_windows, classify
(an itinerary of types, one pass per level) for the nested-window chase.
Both test the exact renormalizations of the family (FamilyLevel): the
level after periods p_1, ..., p_k is g(x) = f_c^P(Lam x)/Lam with
P = p_1 ... p_k and Lam = f_c^P(0) (Collet-Eckmann), whose critical orbit
is every P-th step of f_c's over Lam: no level is projected.  The window tower
classifies each grid once for all the children of a window
(_child_windows): one walk of the parent itinerary per grid, and one
period scan up to the longest child type (renorm.scan_periods) tests every
type; a child with no run on a grid falls back to the next grid alone.
The edges of the run are then roots of scalar critical-orbit equations,
solved in Python floats by roots.brent (_bisect_edge).  brent tries the
grid cell where the classification flips and refuses it if the equation
does not bracket a root there; only then is the equation evaluated on the
whole grid and the nearest bracketing cell solved.  With P the product of
the periods of the itinerary (P = p in find_windows) and lam = f_c^P(0):

- the left edge is the superstable parameter, the root of f_c^P(0)
  (Derrida-Gervois-Pomeau; by Milnor-Thurston monotonicity one root per
  parent window);
- the right edge is where J = [-|lam|, |lam|] stops being invariant, the
  root of |f_c^P(0)| - |f_c^2P(0)|: with g^k(x) = f^(kP')(Lam x)/Lam on
  the parent level, the deepest level's test |g^p(lam)| <= |lam| reads
  |f^2P(0)| <= |f^P(0)| in the family; one critical orbit to step 2P
  gives both terms.

Superstable parameters and the doubling cascade are roots of f_c^q(0)
solved by the same brent.  The edges do not move with the scan grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from .errors import (BracketNotFound, DomainError, NoBracket,
                     SingleItinerary, WindowNotFound)
from .geometry import DimensionReport, hausdorff_dimension
from .maps import QuadraticFamily
from .renorm import IntervalTower, scan_periods
from .roots import brackets, brent, sign_changes

SCAN_GRID = 2000
WINDOW_GRIDS = (129, 513, 2049)
DEPTH_CAP = 10
CASCADE_N_CAP = 14
DEFAULT_BRACKET = (0.3, 2.0)


def _ordered(c_range) -> tuple[float, float]:
    """c_range as (lo, hi); DomainError unless lo < hi, which nan fails."""
    lo, hi = c_range
    if not lo < hi:
        raise DomainError(f"need lo < hi, got {tuple(c_range)}")
    return lo, hi


def _types(thetas) -> list[tuple[int, ...]]:
    """Tuples of thetas; DomainError unless each permutes 0..p-1, p >= 2."""
    thetas = [tuple(t) for t in thetas]
    for theta in thetas:
        if len(theta) < 2 or sorted(theta) != list(range(len(theta))):
            raise DomainError(f"{theta} is not a renormalization type: "
                              f"a permutation of 0..p-1, p >= 2")
    return thetas


# ---------------------------------------------------------------------------
# superstable parameters and cascades


def _bisect_edge(h, cs, k: int, depth: int = 0) -> float:
    """Root of h nearest the cell (cs[k], cs[k+1]) of the increasing grid
    cs: the edge of a window whose classification flips in that cell.

    h maps a float to a float and an array to an array, rounding alike.
    brent tries the flip cell first and refuses it (NoBracket) unless h
    brackets a root there.  Only then does one array evaluation find the
    cells of cs that bracket a root (roots.sign_changes); the one nearest
    cell k (the left one on a tie) is solved by brent.  The flip cell is
    the nearest cell when it brackets a root, so both ways pick the same
    cell and return the same float.  An edge that lies cells away from the
    flip, on either side, is still found, but never one outside cs; with no
    sign change on cs, WindowNotFound carrying depth."""
    try:
        return brent(h, cs[k], cs[k + 1])
    except NoBracket:
        cells = sign_changes(h(np.asarray(cs, dtype=float)))
    if not cells.size:
        raise WindowNotFound(f"the edge equation does not change sign on "
                             f"[{cs[0]:.17g}, {cs[-1]:.17g}]", depth=depth)
    m = cells[np.argmin(np.abs(cells - k))]
    return brent(h, cs[m], cs[m + 1])


def _edge_equations(fam: QuadraticFamily, P: int):
    """(left, right) edge equations of a window of total period P (see the
    module docstring); right is positive where J is invariant.  right runs
    one critical orbit to step 2P, reading f_c^P(0) on the way."""
    def left(c):
        return fam.critical_value_map(c, P)

    def right(c):
        lam = fam.critical_value_map(c, P)
        return abs(lam) - abs(fam.iterate(c, lam, P))
    return left, right


def _superstable_in(fam: QuadraticFamily, q: int, lo: float, hi: float,
                    grid: int) -> float | None:
    """Leftmost primitive root of f_c^q(0) in [lo, hi], or None: a walk of
    the grid in Python floats solves each cell where f_c^q(0) brackets a
    root (roots.brackets; a root on a grid point counts) and stops at one
    whose orbit misses 0 at every proper divisor, a few cells into a
    doubling window, where an array pass over the grid would be wasted."""
    cs = np.linspace(lo, hi, grid).tolist()
    hs = (fam.critical_value_map(c, q) for c in cs)
    for (a, b), ends in zip(pairwise(cs), pairwise(hs)):
        if brackets(*ends):
            c = brent(lambda c: fam.critical_value_map(c, q), a, b)
            x, k = 0.0, 0
            for d in (d for d in range(1, q) if q % d == 0):
                x, k = fam.iterate(c, x, d - k), d
                if not abs(x) > 1e-9:
                    break
            else:
                return c
    return None


def superstable_parameters(fam: QuadraticFamily, periods,
                           c_range: tuple[float, float] = (0.4, 2.0)
                           ) -> np.ndarray:
    """Parameters where the critical orbit is periodic with the given periods,
    taken left to right along the family.

    Consecutive doubling periods reuse the previous gap to predict the next
    scan window (the gaps contract geometrically, so a uniform grid over the
    whole remaining range would miss the deep members); a scan stops a few
    cells in, so it walks Python floats (_superstable_in).  c_range needs
    lo < hi, else DomainError."""
    periods = [int(q) for q in periods]
    if any(q < 2 for q in periods):
        raise DomainError("superstable periods start at 2")
    cursor, end = _ordered(c_range)
    out: list[float] = []
    prev_gap = None
    for n, q in enumerate(periods):
        c = None
        doubling = n >= 1 and q == 2 * periods[n - 1]
        if doubling and prev_gap is not None:
            c = _superstable_in(fam, q, cursor + 0.05 * prev_gap,
                                min(cursor + 2.5 * prev_gap, end), 200)
        if c is None:
            eps = 1e-9 * max(1.0, abs(cursor))
            c = _superstable_in(fam, q, cursor + eps, end, SCAN_GRID)
        if c is None:
            raise BracketNotFound(f"no primitive period-{q} critical orbit "
                                  f"in ({cursor:.6g}, {end})")
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
    geometric tail beyond the last parameter.  n_max runs 4..CASCADE_N_CAP:
    past 14 the float roots resolve the shrinking gaps ever worse
    (delta_estimate is off by 8.1e-8 relative at n = 14, 1.4e-4 at 18),
    while each level doubles the time.
    """
    if not 4 <= n_max <= CASCADE_N_CAP:
        raise DomainError(
            f"n_max must lie in 4..{CASCADE_N_CAP}, got {n_max}")
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
    """A half window: interval runs from superstable_c, where
    lam = f^p(0) = 0, to the right edge, where J = [-|lam|, |lam|] stops
    being invariant, not from the saddle-node where the tuning window
    starts (p = 3: (1.7548777, 1.7903275) against the tuning window from
    1.75; doubling: (1.0, 1.5436890127)).  superstable_c == interval[0]."""

    p: int
    theta: tuple[int, ...]
    interval: tuple[float, float]
    superstable_c: float


@dataclass(frozen=True)
class FamilyLevel:
    """Rows of one exact renormalization level of fam: row i is g(x) =
    f_c^P(lam x)/lam, c = c[i], kept as every P-th step of f_c's critical
    orbit, z[j, i] = f_c^(jP)(0): lam = z[1], and g's critical orbit is
    z/lam, the tower's rule.  Level 0 is P = 1, the members f_c."""

    fam: QuadraticFamily
    c: np.ndarray
    P: int
    z: np.ndarray

    def extended(self, n: int) -> "FamilyLevel":
        """The level with z run on to z[n], P steps of f_c at a time from
        its last entry, if short of it."""
        z = list(self.z)
        while len(z) <= n:
            z.append(self.fam.iterate(self.c, z[-1], self.P))
        return replace(self, z=np.array(z))

    @property
    def orbit(self) -> np.ndarray:
        """g^j(0) = z[j]/z[1] as far as z reaches."""
        return self.z / self.z[1]

    def renormalize_each(self, thetas) -> list:
        """[(hit, level) for theta in thetas]: hit indexes the rows whose
        first renormalization has type theta (detect's period len(theta)
        with ranks exactly theta), level holds them renormalized once more
        (P times len(theta)).  One scan_periods up to the longest theta q
        runs z on once, to z[2q]; a child of period p keeps every p-th z."""
        q = max(len(t) for t in thetas)
        g = self.extended(2 * q)
        scan = scan_periods(g.orbit, q)
        out = []
        for theta in thetas:
            _, live, ok, ranks = scan[len(theta)]
            hit = live[ok & np.all(ranks == theta, axis=-1)]
            out.append((hit, replace(g, c=g.c[hit], P=g.P * len(theta),
                                     z=g.z[::len(theta), hit])))
        return out


def _level_zero(fam: QuadraticFamily, cs: np.ndarray):
    """(rows, level 0): the indices of the parameters of cs inside the
    family's domain, in order, and their members as a FamilyLevel."""
    rows = np.nonzero((fam.C_MIN < cs) & (cs <= fam.C_MAX))[0]
    return rows, FamilyLevel(fam, cs[rows], 1, np.zeros((1, rows.size)))


def classify_period(fam: QuadraticFamily, cs,
                    p: int) -> tuple[np.ndarray, np.ndarray]:
    """(marks, ranks) at every parameter of cs, in one batched pass:
    marks[i] says the first renormalization of f_c has period p (a
    degenerate scaling at p counts), ranks[i] holds the type where p is
    admissible and -1 elsewhere.  Parameters outside the family's domain
    are unmarked."""
    if p < 2:
        raise DomainError(f"got p = {p}: renormalization periods start at 2")
    cs = np.asarray(cs, dtype=float)
    rows, g = _level_zero(fam, cs)
    degenerate, live, ok, ranks = scan_periods(g.extended(2 * p).orbit, p)[p]
    marks = np.zeros(cs.shape, dtype=bool)
    marks[rows[degenerate]] = marks[rows[live[ok]]] = True
    types = np.full(cs.shape + (p,), -1)
    types[rows[live[ok]]] = ranks[ok]
    return marks, types


def _classify(fam: QuadraticFamily, c: float, p: int):
    """classify_period at one parameter: (matches_p, theta or None).  No
    package code calls it; it stays because perfbench/layers.py wraps this
    name, and `run.py --trace 1` raises if it is missing."""
    (mark,), (rank,) = classify_period(fam, [c], p)
    return bool(mark), tuple(rank.tolist()) if rank[0] >= 0 else None


def find_windows(fam: QuadraticFamily, p: int,
                 c_range: tuple[float, float],
                 grid: int = SCAN_GRID) -> list[Window]:
    """Maximal parameter runs where the first renormalization has period p
    and constant type, as half windows (see Window).  One classify_period
    call over the grid picks the runs; each edge is then the root of its
    critical-orbit equation (see the module docstring), solved by
    _bisect_edge from the cell where the classification flips and never
    past c_range.  A run that starts at the first grid point has its
    superstable parameter outside c_range and is left out; one that reaches
    the last grid point is cut there."""
    if grid < 100:
        raise DomainError(f"grid must be >= 100, got {grid}")
    cs = np.linspace(*_ordered(c_range), grid)
    marks, ranks = classify_period(fam, cs, p)
    left, right = _edge_equations(fam, p)
    thetas = [tuple(r) if r[0] >= 0 else None for r in ranks.tolist()]
    windows, i = [], 0
    while i < grid:
        # the run from i: marked, and every measured type equal to the first
        j, theta = i, None
        while j < grid and marks[j]:
            if thetas[j] is not None and theta not in (None, thetas[j]):
                break
            theta = theta or thetas[j]
            j += 1
        if theta is not None and i > 0:
            lo = _bisect_edge(left, cs, i - 1)
            hi = float(cs[-1]) if j == grid else _bisect_edge(right, cs, j - 1)
            windows.append(Window(p=p, theta=theta, interval=(lo, hi),
                                  superstable_c=lo))
        i = max(j, i + 1)
    return windows


# ---------------------------------------------------------------------------
# nested windows and the parameter Cantor set


def _itinerary_ok(fam: QuadraticFamily, c: float, prefix) -> bool:
    """classify at one parameter.  No package code calls it; it stays
    because perfbench/layers.py wraps this name, and `run.py --trace 1`
    raises if it is missing."""
    return bool(classify(fam, [c], prefix)[0])


def _prefix_rows(fam: QuadraticFamily, cs: np.ndarray, prefix):
    """(rows, level): the indices of the parameters of cs that realize
    prefix, in order, and their level after it, one renormalize_each per
    type.  The walk stops at the first level that no row reaches."""
    rows, g = _level_zero(fam, cs)
    for theta in prefix:
        if not rows.size:
            break
        hit, g = g.renormalize_each([theta])[0]
        rows = rows[hit]
    return rows, g


def classify(fam: QuadraticFamily, cs, prefix) -> np.ndarray:
    """Does f_c realize the first len(prefix) renormalization types?  One
    boolean per parameter of cs.

    Each level tests all surviving parameters together on the exact
    renormalization of the family (FamilyLevel.renormalize_each): one pass
    per level, not one per parameter, and no level past the prefix.
    Parameters outside the family's domain come out False.
    """
    cs = np.asarray(cs, dtype=float)
    rows, _ = _prefix_rows(fam, cs, _types(prefix))
    ok = np.zeros(cs.shape, dtype=bool)
    ok[rows] = True
    return ok


def _classify_children(fam: QuadraticFamily, cs: np.ndarray, parent,
                       Theta) -> np.ndarray:
    """Row k is classify(fam, cs, parent + [Theta[k]]), bit for bit: the
    parent is walked once, and every type is tested from one period scan
    of the parent's level (FamilyLevel.renormalize_each)."""
    rows, g = _prefix_rows(fam, cs, parent)
    oks = np.zeros((len(Theta), cs.size), dtype=bool)
    if rows.size:
        for ok, (hit, _) in zip(oks, g.renormalize_each(Theta)):
            ok[rows[hit]] = True
    return oks


def _child_windows(fam: QuadraticFamily, parent, Theta,
                   bracket: tuple[float, float]) -> list[tuple[float, float]]:
    """[_window_for_prefix(fam, parent + [theta], bracket) for theta in
    Theta], with one classification of each grid for all the children
    still without a run (_classify_children).  Each child takes the first
    of WINDOW_GRIDS that holds a run for it, so a child with none on a grid
    falls back to the next one alone.  The edges are then solved child by
    child, in the order and with the calls of the one-child case."""
    lo, hi = bracket
    runs: list = [None] * len(Theta)
    for grid in WINDOW_GRIDS:
        todo = [k for k, run in enumerate(runs) if run is None]
        if not todo:
            break
        cs = np.linspace(lo, hi, grid)
        oks = _classify_children(fam, cs, parent, [Theta[k] for k in todo])
        for k, ok in zip(todo, oks):
            if ok.any():
                runs[k] = cs, ok
    depth = len(parent) + 1
    P = math.prod(len(t) for t in parent)
    windows = []
    for theta, run in zip(Theta, runs):
        if run is None:
            raise WindowNotFound(f"no window for a depth-{depth} itinerary "
                                 f"inside ({lo:.8g}, {hi:.8g})", depth=depth)
        cs, ok = run
        left, right = _edge_equations(fam, P * len(theta))
        edges = np.nonzero(np.diff(np.r_[0, ok, 0]))[0]
        starts, ends = edges[::2], edges[1::2]
        best = int(np.argmax(ends - starts))
        i, j = starts[best], ends[best] - 1
        a = cs[i] if i == 0 else _bisect_edge(left, cs, i - 1, depth)
        b = cs[j] if j == cs.size - 1 else _bisect_edge(right, cs, j, depth)
        windows.append((float(a), float(b)))
    return windows


def _window_for_prefix(fam: QuadraticFamily, prefix,
                       bracket: tuple[float, float]) -> tuple[float, float]:
    """Longest parameter run in `bracket` realizing `prefix`, at the first
    of WINDOW_GRIDS that has one; each edge is the root of its
    critical-orbit equation, with P the product of the periods of prefix,
    solved from the cell where the classification flips and never past
    the bracket.  An edge at the bracket end stays there.  The one-child
    case of _child_windows."""
    return _child_windows(fam, prefix[:-1], prefix[-1:], bracket)[0]


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
    window at every depth (they are strictly nested).  A window with no
    float inside it raises WindowNotFound carrying its depth.
    """
    thetas = _types(thetas)
    if not thetas:
        raise DomainError("need at least one renormalization type")
    if depth < 1 or depth > DEPTH_CAP:
        raise DomainError(f"depth must lie in 1..{DEPTH_CAP}, got {depth}")
    prefix = [thetas[k % len(thetas)] for k in range(depth)]
    lo, hi = _ordered(bracket)
    widths = []
    for d in range(1, depth + 1):
        lo, hi = _window_for_prefix(fam, prefix[:d], (lo, hi))
        if math.nextafter(lo, math.inf) >= hi:
            raise WindowNotFound(f"the depth-{d} window [{lo!r}, {hi!r}] "
                                 f"holds no float inside it", depth=d)
        widths.append(hi - lo)
    return ParameterBracket(c=0.5 * (lo + hi), bracket=(float(lo), float(hi)),
                            widths=tuple(widths), depth=depth)


def parameter_window_tower(fam: QuadraticFamily, Theta, depth: int,
                           bracket: tuple[float, float] = DEFAULT_BRACKET,
                           ) -> IntervalTower:
    """Tower of all nested type-itinerary windows over Theta^k, k <= depth.

    Level 1 is the hull of the first-generation windows; level k+1 holds the
    |Theta|^k windows of all length-k itineraries, in increasing order.
    The types must be distinct (a repeat would count its windows twice).
    """
    Theta = _types(Theta)
    if len(set(Theta)) < 2:
        raise SingleItinerary("need two distinct renormalization types")
    if len(set(Theta)) < len(Theta):
        raise DomainError(f"renormalization types repeat in {Theta}")
    if depth < 1 or depth > 6:
        raise DomainError(f"depth must lie in 1..6, got {depth}")
    bracket = _ordered(bracket)
    frontier: list[tuple[tuple, tuple[float, float]]] = [((), bracket)]
    levels = []
    for _ in range(depth):
        nxt = []
        for prefix, brk in frontier:
            wins = _child_windows(fam, prefix, Theta, brk)
            nxt += [(prefix + (theta,), w) for theta, w in zip(Theta, wins)]
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
