"""One-parameter family analysis: windows, cascades, parameter Cantor sets.

Parameter space is searched in two stages.  A combinatorial classification
of a whole parameter grid, in one batched pass, picks the run of parameters
with the requested renormalization types: classify_period (is the first
renormalization period p, and of which type) for find_windows, classify
(an itinerary of types, one pass per level) for the nested-window chase.
Both test the exact renormalizations of the family (FamilyLevel): the
level after periods p_1, ..., p_k is g(x) = f_c^P(Lam x)/Lam with
P = p_1 ... p_k and Lam = f_c^P(0) (Collet-Eckmann), so no level is
projected onto a basis and no degree is involved.
The edges of the run are then roots of scalar critical-orbit equations,
solved in Python floats by roots.brent in the grid cell where the
classification flips, or the nearest cell where the equation changes sign
(_bisect_edge).  With P the product of the periods of the
itinerary (P = p in find_windows) and lam = f_c^P(0):

- the left edge is the superstable parameter, the root of f_c^P(0)
  (Derrida-Gervois-Pomeau; by Milnor-Thurston monotonicity one root per
  parent window);
- the right edge is where J = [-|lam|, |lam|] stops being invariant, the
  root of |f_c^P(0)| - |f_c^2P(0)|: with g^k(x) = f^(kP')(Lam x)/Lam on
  the parent level, the deepest level's test |g^p(lam)| <= |lam| reads
  |f^2P(0)| <= |f^P(0)| in the family.

Superstable parameters and the doubling cascade are roots of f_c^q(0)
solved by the same brent.  The edges do not move with the scan grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BracketNotFound, DomainError, SingleItinerary,
                     WindowNotFound)
from .geometry import DimensionReport, hausdorff_dimension
from .maps import QuadraticFamily
from .renorm import IntervalTower, scan_periods
from .roots import brent

SCAN_GRID = 2000
WINDOW_GRIDS = (129, 513, 2049)
DEPTH_CAP = 10
DEFAULT_BRACKET = (0.3, 2.0)


# ---------------------------------------------------------------------------
# superstable parameters and cascades


def _bisect_edge(h, cs, k: int, depth: int = 0) -> float:
    """Root of h nearest the cell (cs[k], cs[k+1]) of the increasing grid
    cs: the edge of a window whose classification flips in that cell.

    h maps a float to a float and an array to an array, rounding alike.
    One array evaluation finds the cells of cs where h changes sign; the
    one nearest cell k (the left one on a tie) is solved by brent.  So an
    edge that lies cells away from the flip, on either side, is still
    found, but never one outside cs; with no sign change on cs,
    WindowNotFound carrying depth."""
    cs = np.asarray(cs, dtype=float)
    sign = np.sign(h(cs))
    cells = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    if not cells.size:
        raise WindowNotFound(f"the edge equation does not change sign on "
                             f"[{cs[0]:.17g}, {cs[-1]:.17g}]", depth=depth)
    m = cells[np.argmin(np.abs(cells - k))]
    return brent(h, cs[m], cs[m + 1])


def _edge_equations(fam: QuadraticFamily, P: int):
    """(left, right) edge equations of a window of total period P (see the
    module docstring); right is positive where J is invariant."""
    def left(c):
        return fam.critical_value_map(c, P)

    def right(c):
        return (abs(fam.critical_value_map(c, P))
                - abs(fam.critical_value_map(c, 2 * P)))
    return left, right


def _proper_divisors(q: int) -> list[int]:
    return [d for d in range(1, q) if q % d == 0]


def _superstable_in(fam: QuadraticFamily, q: int, lo: float, hi: float,
                    grid: int) -> float | None:
    """Leftmost primitive root of f_c^q(0) in (lo, hi), or None."""
    cs = np.linspace(lo, hi, grid)
    h = fam.critical_value_map(cs, q)
    flips = np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[0]
    for i in flips:
        c = brent(lambda c: fam.critical_value_map(c, q), cs[i], cs[i + 1])
        if all(abs(fam.critical_value_map(c, d)) > 1e-9
               for d in _proper_divisors(q)):
            return c
    return None


def superstable_parameters(fam: QuadraticFamily, periods,
                           c_range: tuple[float, float] = (0.4, 2.0)
                           ) -> np.ndarray:
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
            c = _superstable_in(fam, q, cursor + eps, c_range[1], SCAN_GRID)
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
    """Rows of one exact renormalization level of 1 - c x^2: row i is
    g(x) = f_c^P(lam x)/lam with c = c[i], lam = lam[i] = f_c^P(0), as the
    row view renorm.scan_periods runs on.  Level 0 is P = 1, lam = 1, the
    members f_c themselves."""

    c: np.ndarray
    P: int
    lam: np.ndarray

    def __len__(self) -> int:
        return self.c.size

    def __getitem__(self, rows) -> "FamilyLevel":
        return replace(self, c=self.c[rows], lam=self.lam[rows])

    def phi(self, u):
        """g(x) = phi(x^2): phi(u) = f_c^(P-1)(1 - c lam^2 u)/lam, row i
        at u[i], u broadcasting against (n, 1)."""
        c, lam = self.c[:, None], self.lam[:, None]
        x = 1.0 - c * (lam * lam) * u
        for _ in range(self.P - 1):
            x = 1.0 - c * x * x
        return x / lam

    def renormalize(self, theta) -> tuple[np.ndarray, "FamilyLevel"]:
        """(hit, level): hit indexes the rows whose first renormalization
        has type theta (what detect(p_max=len(theta)) finds, with spatial
        ranks exactly theta), and level holds those rows renormalized once
        more: P times p = len(theta), lam times their g^p(0)."""
        lam, _, live, trial = scan_periods(self, len(theta))
        hit = live[(trial.fail == 0) & np.all(trial.ranks == theta, axis=-1)]
        return hit, replace(self, c=self.c[hit], P=self.P * len(theta),
                            lam=self.lam[hit] * lam[hit])


def _level_zero(fam: QuadraticFamily, cs: np.ndarray):
    """(rows, level 0): the indices of the parameters of cs inside the
    family's domain, in order, and their members as a FamilyLevel."""
    rows = np.nonzero((fam.c_min < cs) & (cs <= fam.c_max))[0]
    return rows, FamilyLevel(c=cs[rows], P=1, lam=np.ones(rows.size))


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
    _, degenerate, live, trial = scan_periods(g, p)
    ok = trial.fail == 0
    marks = np.zeros(cs.shape, dtype=bool)
    marks[rows[degenerate]] = marks[rows[live[ok]]] = True
    ranks = np.full(cs.shape + (p,), -1)
    ranks[rows[live[ok]]] = trial.ranks[ok]
    return marks, ranks


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
    cs = np.linspace(c_range[0], c_range[1], grid)
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


def classify(fam: QuadraticFamily, cs, prefix) -> np.ndarray:
    """Does f_c realize the first len(prefix) renormalization types?  One
    boolean per parameter of cs.

    Each level tests all surviving parameters together on the exact
    renormalization of the family (FamilyLevel.renormalize), so the cost is
    one pass per level, not one per parameter, and no level past the prefix
    is built.  Parameters outside the family's domain come out False.
    """
    cs = np.asarray(cs, dtype=float)
    rows, g = _level_zero(fam, cs)
    for theta in prefix:
        if not rows.size:
            break
        hit, g = g.renormalize(tuple(theta))
        rows = rows[hit]
    ok = np.zeros(cs.shape, dtype=bool)
    ok[rows] = True
    return ok


def _window_for_prefix(fam: QuadraticFamily, prefix,
                       bracket: tuple[float, float]) -> tuple[float, float]:
    """Longest parameter run in `bracket` realizing `prefix`, at the first
    of WINDOW_GRIDS that has one; each edge is the root of its
    critical-orbit equation, with P the product of the periods of prefix,
    solved from the cell where the classification flips and never past
    the bracket.  An edge at the bracket end stays there."""
    lo, hi = bracket
    left, right = _edge_equations(fam, math.prod(len(t) for t in prefix))
    for grid in WINDOW_GRIDS:
        cs = np.linspace(lo, hi, grid)
        ok = classify(fam, cs, prefix)
        if not ok.any():
            continue
        edges = np.nonzero(np.diff(np.r_[0, ok, 0]))[0]
        starts, ends = edges[::2], edges[1::2]
        best = int(np.argmax(ends - starts))
        i, j = starts[best], ends[best] - 1
        depth = len(prefix)
        a = cs[i] if i == 0 else _bisect_edge(left, cs, i - 1, depth)
        b = cs[j] if j == grid - 1 else _bisect_edge(right, cs, j, depth)
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
