import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renormlab import families as F
from renormlab.errors import (BracketNotFound, DomainError, RenormlabError,
                              SingleItinerary, WindowNotFound)
from renormlab.maps import QuadraticFamily
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, detect,
                              renormalize)
from renormlab.roots import brent
from conftest import C_INF
from oracles import superstable_in

DELTA = 4.6692016091


def analytic_period3_superstable():
    # real root of c^3 - 2c^2 + c - 1, from f^3(0) = 0 for f = 1 - c x^2
    roots = np.roots([1.0, -2.0, 1.0, -1.0])
    return float(roots[np.abs(roots.imag) < 1e-12].real[0])


def test_superstable_doubling_parameters(quadratic):
    ps = F.superstable_parameters(quadratic, [2, 4, 8])
    assert ps[0] == pytest.approx(1.0, abs=1e-12)
    assert ps[1] == pytest.approx(1.310702641337, abs=1e-9)
    assert ps[2] == pytest.approx(1.381547484432, abs=1e-9)


def test_superstable_period_three_matches_cubic_root(quadratic):
    got = F.superstable_parameters(quadratic, [3], c_range=(1.5, 1.9))[0]
    assert abs(got - analytic_period3_superstable()) < 1e-10


def test_superstable_orbit_really_closes(quadratic):
    for q, c in [(4, 1.310702641337), (8, 1.381547484432)]:
        f = quadratic.member(c)
        x = 0.0
        for _ in range(q):
            x = f(x)
        assert abs(x) < 1e-8


def test_superstable_root_on_a_grid_point_is_found(quadratic):
    # f_c^2(0) = 1 - c vanishes at c = 1, the middle point of 3 grid points,
    # and inside a cell of 4
    assert F._superstable_in(quadratic, 2, 0.5, 1.5, 3) == 1.0
    assert F._superstable_in(quadratic, 2, 0.5, 1.5, 4) == 1.0


@settings(max_examples=200, deadline=None)
@given(q=st.integers(2, 64),
       window=st.lists(st.floats(0.3, 2.0), min_size=2, max_size=2,
                       unique=True).map(sorted),
       grid=st.integers(3, 300))
@example(q=2, window=[0.5, 1.5], grid=3)    # the root on a grid point
@example(q=2, window=[1.0, 1.5], grid=3)    # the root on the first point
@example(q=4, window=[0.5, 1.5], grid=7)    # c = 1 is a root, not primitive
@example(q=7, window=[0.4, 0.9], grid=300)  # no root
def test_superstable_scan_is_the_array_reference(q, window, grid):
    """The left-to-right scan in Python floats against the array pass over
    the whole grid (oracles.superstable_in): the same root as float bytes,
    or None from both."""
    fam = QuadraticFamily()
    got = F._superstable_in(fam, q, *window, grid)
    want = superstable_in(fam, q, *window, grid)
    if want is None:
        assert got is None
    else:
        assert type(got) is float
        assert got.hex() == float(want).hex()


def test_cascade_is_the_cascade_of_the_array_reference(quadratic,
                                                       monkeypatch):
    got = F.cascade(quadratic, 10).params
    monkeypatch.setattr(F, "_superstable_in", superstable_in)
    assert got.tobytes() == F.cascade(quadratic, 10).params.tobytes()


@pytest.mark.parametrize("c_range", [(2.0, 0.4), (1.5, 1.5),
                                     (math.nan, 2.0)])
def test_a_reversed_superstable_range_is_a_domain_error(quadratic, c_range):
    # the range is refused before any scan: (2.0, 0.4) would otherwise
    # find the period-2 root before failing on the period-4 one
    with pytest.raises(DomainError, match="lo < hi"):
        F.superstable_parameters(quadratic, [2, 4], c_range=c_range)


def test_cascade_refuses_levels_past_its_cap(quadratic):
    assert F.CASCADE_N_CAP == 14
    assert len(F.cascade(quadratic, 14).params) == 14
    with pytest.raises(DomainError, match="4..14, got 15"):
        F.cascade(quadratic, 15)


def test_missing_period_raises(quadratic):
    with pytest.raises(BracketNotFound):
        F.superstable_parameters(quadratic, [7], c_range=(0.4, 0.9))


def test_cascade_constants(quadratic):
    rep = F.cascade(quadratic, 10)
    assert len(rep.params) == 10
    assert np.all(np.diff(rep.params) > 0)
    assert np.all(np.diff(rep.ratios) > 0)
    assert rep.ratios[0] == pytest.approx(4.3857, abs=2e-3)
    assert rep.delta_estimate == pytest.approx(DELTA, abs=1e-5)
    assert rep.c_infinity == pytest.approx(C_INF, abs=1e-10)


def test_doubling_window(quadratic):
    wins = F.find_windows(quadratic, 2, (0.8, 1.6), grid=400)
    assert len(wins) == 1
    w = wins[0]
    assert w.p == 2 and w.theta == THETA_DOUBLING
    assert w.interval[0] == pytest.approx(1.0, abs=1e-15)
    assert w.interval[1] == pytest.approx(1.5436890127, abs=1e-10)
    assert w.superstable_c == pytest.approx(1.0, abs=1e-9)


def test_period_three_window(quadratic):
    wins = F.find_windows(quadratic, 3, (1.6, 1.9), grid=400)
    assert len(wins) == 1
    w = wins[0]
    assert w.p == 3 and w.theta == THETA_TRIPLING
    assert w.interval[0] <= w.superstable_c <= w.interval[1]
    assert w.superstable_c == pytest.approx(analytic_period3_superstable(),
                                            abs=1e-6)
    assert w.interval[1] == pytest.approx(1.7903, abs=1e-3)


def test_window_interior_classifies_consistently(quadratic):
    wins = F.find_windows(quadratic, 3, (1.6, 1.9), grid=400)
    lo, hi = wins[0].interval
    for c in np.linspace(lo + 1e-4, hi - 1e-4, 5):
        step = detect(quadratic.member(float(c)))
        assert step.p == 3 and step.perm == THETA_TRIPLING


def test_empty_range_has_no_windows(quadratic):
    assert F.find_windows(quadratic, 3, (0.5, 0.9), grid=150) == []


def test_doubling_brackets_shrink_onto_the_accumulation_point(quadratic):
    br = F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 5)
    assert br.depth == 5
    assert br.bracket[0] < C_INF < br.bracket[1]
    assert br.bracket[0] < br.c < br.bracket[1]
    assert np.all(np.diff(br.widths) < 0)
    assert 0.15 < br.widths[-1] / br.widths[-2] < 0.30


def test_tripling_accumulation_parameter(quadratic):
    br = F.infinitely_renormalizable_parameter(quadratic, [THETA_TRIPLING], 3)
    assert br.bracket[0] < 1.7864402541 < br.bracket[1]


def test_alternating_itinerary_parameter(quadratic):
    br = F.infinitely_renormalizable_parameter(
        quadratic, [THETA_DOUBLING, THETA_TRIPLING], 3)
    assert br.bracket[0] < 1.4831709573 < br.bracket[1]
    assert br.bracket[1] - br.bracket[0] < 0.01


def test_parameter_tower_shape(quadratic):
    tw = F.parameter_window_tower(quadratic,
                                  [THETA_DOUBLING, THETA_TRIPLING], 2)
    assert tw.kind == "parameter"
    assert tw.periods == (1, 2, 4)
    assert [len(lvl) for lvl in tw.levels] == [1, 2, 4]
    for k in (2, 3):
        parents = tw.level(k - 1)
        for a, b in tw.level(k):
            inside = np.any((parents[:, 0] <= a + 1e-12)
                            & (b - 1e-12 <= parents[:, 1]))
            assert inside


def _window_per_child(fam, prefix, bracket):
    """The window of one itinerary, classified on its own: the first of
    WINDOW_GRIDS whose classify(prefix) holds a run, and the longest run's
    edges from the flip cells."""
    lo, hi = bracket
    depth = len(prefix)
    left, right = F._edge_equations(fam, math.prod(len(t) for t in prefix))
    for grid in F.WINDOW_GRIDS:
        cs = np.linspace(lo, hi, grid)
        ok = F.classify(fam, cs, prefix)
        if not ok.any():
            continue
        edges = np.nonzero(np.diff(np.r_[0, ok, 0]))[0]
        starts, ends = edges[::2], edges[1::2]
        best = int(np.argmax(ends - starts))
        i, j = starts[best], ends[best] - 1
        a = cs[i] if i == 0 else F._bisect_edge(left, cs, i - 1, depth)
        b = cs[j] if j == grid - 1 else F._bisect_edge(right, cs, j, depth)
        return float(a), float(b)
    raise WindowNotFound(f"no window for a depth-{depth} itinerary "
                         f"inside ({lo:.8g}, {hi:.8g})", depth=depth)


def _tower_levels_per_child(fam, Theta, depth, bracket=F.DEFAULT_BRACKET):
    """parameter_window_tower's levels below the root, one classification
    per child window (_window_per_child)."""
    frontier, levels = [((), bracket)], []
    for _ in range(depth):
        nxt = [(prefix + (theta,),
                _window_per_child(fam, list(prefix + (theta,)), brk))
               for prefix, brk in frontier for theta in Theta]
        nxt.sort(key=lambda t: t[1][0])
        levels.append(np.array([w for _, w in nxt]))
        frontier = nxt
    return levels


def _assert_tower_is_per_child(fam, Theta, depth):
    tw = F.parameter_window_tower(fam, Theta, depth)
    want = _tower_levels_per_child(fam, Theta, depth)
    assert len(tw.levels) == depth + 1
    assert tw.levels[0].tobytes() == np.array(
        [[want[0][0, 0], want[0][-1, 1]]]).tobytes()
    for got, ref in zip(tw.levels[1:], want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_window_tower_is_the_per_child_loop_as_bytes(quadratic, depth):
    _assert_tower_is_per_child(quadratic, [THETA_DOUBLING, THETA_TRIPLING],
                               depth)


def test_three_type_window_tower_is_the_per_child_loop_as_bytes(quadratic):
    # periods 2, 3 and 4: one scan to period 4 serves all three types
    _assert_tower_is_per_child(
        quadratic, [THETA_DOUBLING, THETA_TRIPLING, (2, 3, 0, 1)], 3)


def test_a_child_without_a_run_falls_back_alone(quadratic, monkeypatch):
    """On a 5-point first grid over (0.3, 2.0) only the doubling child has
    a run (at 1.15); the tripling child alone is classified again on the
    next grid, and the windows are the per-child ones."""
    monkeypatch.setattr(F, "WINDOW_GRIDS", (5, 129, 513, 2049))
    shared, calls = F._classify_children, []

    def recorded(fam, cs, parent, Theta):
        calls.append((len(parent), cs.size, list(Theta)))
        return shared(fam, cs, parent, Theta)

    monkeypatch.setattr(F, "_classify_children", recorded)
    for depth in (1, 2, 3):
        _assert_tower_is_per_child(
            quadratic, [THETA_DOUBLING, THETA_TRIPLING], depth)
    assert calls[:2] == [(0, 5, [THETA_DOUBLING, THETA_TRIPLING]),
                         (0, 129, [THETA_TRIPLING])]
    assert any(size > 5 and len(Theta) == 1 for n, size, Theta in calls
               if n > 0)


def test_window_for_prefix_is_the_per_child_window(quadratic):
    brackets = {(): F.DEFAULT_BRACKET}
    Theta = [THETA_DOUBLING, THETA_TRIPLING, (2, 3, 0, 1)]
    for prefix in [p for d in (1, 2) for p in itertools.product(Theta,
                                                                repeat=d)]:
        win = F._window_for_prefix(quadratic, list(prefix),
                                   brackets[prefix[:-1]])
        ref = _window_per_child(quadratic, list(prefix),
                                brackets[prefix[:-1]])
        assert [w.hex() for w in win] == [w.hex() for w in ref]
        brackets[prefix] = win


def test_a_tower_child_without_a_window_raises_like_the_per_child_loop(
        quadratic):
    # (1, 3, 0, 2) is no period-4 type of the quadratic family
    Theta = [THETA_DOUBLING, THETA_TRIPLING, (1, 3, 0, 2)]
    with pytest.raises(WindowNotFound) as ref:
        _tower_levels_per_child(quadratic, Theta, 2)
    with pytest.raises(WindowNotFound) as err:
        F.parameter_window_tower(quadratic, Theta, 2)
    assert (str(err.value), err.value.depth) == (str(ref.value),
                                                 ref.value.depth)


def test_single_type_rejected(quadratic):
    with pytest.raises(SingleItinerary):
        F.parameter_window_tower(quadratic, [THETA_DOUBLING], 2)


def test_one_distinct_type_repeated_is_a_single_itinerary(quadratic):
    # two copies of one type made a tower whose every window came twice
    with pytest.raises(SingleItinerary, match="two distinct"):
        F.parameter_window_tower(quadratic, [THETA_DOUBLING] * 2, 3)


def test_repeated_type_rejected(quadratic):
    # (doubling, tripling, tripling) counted each tripling window twice
    Theta = [THETA_DOUBLING, THETA_TRIPLING, THETA_TRIPLING]
    with pytest.raises(DomainError, match="repeat"):
        F.parameter_window_tower(quadratic, Theta, 3)
    with pytest.raises(DomainError, match="repeat"):
        F.parameter_cantor_dimension(quadratic, Theta, 3)


def test_itinerary_without_window_reports_depth(quadratic):
    with pytest.raises(WindowNotFound) as err:
        F.infinitely_renormalizable_parameter(quadratic, [THETA_TRIPLING], 2,
                                              bracket=(0.3, 1.0))
    assert err.value.depth == 1


def test_a_window_with_no_float_inside_is_refused(quadratic):
    """(D,T,T,T,T) narrows to 8.1e-14 at depth 9 and to a single float at
    depth 10, where the chase used to return the zero-width bracket."""
    thetas = [THETA_DOUBLING] + [THETA_TRIPLING] * 4
    br = F.infinitely_renormalizable_parameter(quadratic, thetas, 9)
    assert br.bracket[0] < br.c < br.bracket[1]
    assert 0.0 < br.widths[-1] < 1e-12
    with pytest.raises(WindowNotFound, match="depth-10 window") as err:
        F.infinitely_renormalizable_parameter(quadratic, thetas, 10)
    assert err.value.depth == 10


def test_depth_limits(quadratic):
    with pytest.raises(DomainError):
        F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 0)
    with pytest.raises(DomainError):
        F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 11)


@pytest.mark.parametrize("build", [F.parameter_window_tower,
                                   F.parameter_cantor_dimension])
@pytest.mark.parametrize("depth", [0, 7])
def test_window_tower_depth_limits(quadratic, build, depth):
    with pytest.raises(DomainError, match="depth must lie in 1..6"):
        build(quadratic, [THETA_DOUBLING, THETA_TRIPLING], depth)


@pytest.mark.parametrize("theta", [(), (0,), (1,), (0, 0), (1, 2),
                                   (0, 2, 2)])
def test_a_malformed_type_is_a_domain_error(quadratic, theta, monkeypatch):
    # () raised IndexError, and (0,) scanned every grid before it raised
    # WindowNotFound; now no period scan runs
    def no_scan(*args, **kwargs):
        raise AssertionError("a malformed type reached the period scan")

    monkeypatch.setattr(F, "scan_periods", no_scan)
    with pytest.raises(DomainError, match="not a renormalization type"):
        F.infinitely_renormalizable_parameter(quadratic, [theta], 2)
    with pytest.raises(DomainError, match="not a renormalization type"):
        F.parameter_window_tower(quadratic, [THETA_DOUBLING, theta], 1)


@pytest.mark.parametrize("call", [
    lambda fam: F.classify(fam, [2.5], [()]),
    lambda fam: F.infinitely_renormalizable_parameter(fam, [()], 2,
                                                      bracket=(2.5, 3.0)),
    lambda fam: F.parameter_window_tower(fam, [(0, 1), (0,)], 1,
                                         bracket=(2.5, 3.0))],
    ids=["classify", "chase", "tower"])
def test_a_malformed_type_is_refused_where_no_row_is_in_the_domain(
        quadratic, call):
    # with no grid point in the domain (0, 2] no level has rows, so the
    # types are checked before any row is filtered
    with pytest.raises(DomainError, match="not a renormalization type"):
        call(quadratic)


@pytest.mark.parametrize("c_range", [(1.9, 1.6), (1.7, 1.7),
                                     (math.nan, 1.9), (1.6, math.nan)])
def test_a_reversed_range_is_a_domain_error(quadratic, c_range):
    # (1.9, 1.6) gave a p = 3 window whose right edge lay left of its left
    # edge, and the chase in (2.0, 0.3) found no depth-2 window
    with pytest.raises(DomainError, match="lo < hi"):
        F.find_windows(quadratic, 3, c_range)
    with pytest.raises(DomainError, match="lo < hi"):
        F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 2,
                                              bracket=c_range)
    with pytest.raises(DomainError, match="lo < hi"):
        F.parameter_window_tower(quadratic, [THETA_DOUBLING, THETA_TRIPLING],
                                 1, bracket=c_range)


def test_period_five_has_two_windows(quadratic):
    wins = F.find_windows(quadratic, 5, (1.6, 2.0), grid=512)
    assert [w.theta for w in wins] == [(1, 4, 0, 2, 3), (2, 4, 0, 1, 3)]
    for w, c_ss in zip(wins, (1.6254137251, 1.8607825222)):
        assert w.p == 5
        assert w.superstable_c == pytest.approx(c_ss, abs=1e-9)
        assert w.interval[0] <= w.superstable_c <= w.interval[1]


def test_period_five_window_near_the_end_of_the_family(quadratic):
    # its superstable parameter lies a few 1e-9 left of where the
    # classification starts, in the same grid cell
    wins = F.find_windows(quadratic, 5, (1.985, 1.986), grid=2000)
    assert [w.theta for w in wins] == [(3, 4, 0, 1, 2)]
    assert wins[0].superstable_c == pytest.approx(1.98542425305, abs=1e-10)


def test_period_seven_has_four_windows(quadratic):
    wins = F.find_windows(quadratic, 7, (1.6, 2.0), grid=2000)
    assert [w.superstable_c for w in wins] == pytest.approx(
        [1.67406609147, 1.83231520275, 1.92714770936, 1.97717958701],
        abs=1e-10)
    for w in wins:
        assert w.p == 7 and w.interval[0] < w.interval[1]


@pytest.mark.parametrize("p", [1, 0, -3])
def test_windows_periods_start_at_two(quadratic, p):
    with pytest.raises(DomainError, match="periods start at 2"):
        F.find_windows(quadratic, p, (0.8, 2.0), grid=200)


def test_edge_root_of_a_continuous_function_to_a_few_ulps():
    root = F._bisect_edge(np.cos, [1.0, 2.0], 0)
    assert abs(root - math.pi / 2) <= 4 * math.ulp(math.pi / 2)
    calls = []

    def cubic(c):
        calls.append(c)
        return c**3 - 2 * c**2 + c - 1

    c3 = float(mp.findroot(cubic, mp.mpf(1.75)))
    calls.clear()
    assert abs(F._bisect_edge(cubic, [1.6, 1.9], 0) - c3) <= 4 * math.ulp(c3)
    # interpolation, not bisection, which needs about 50 halvings of 0.3;
    # brent alone evaluates the flip cell's ends, once each, and no array
    assert all(np.ndim(c) == 0 for c in calls)
    assert calls[:2] == [1.6, 1.9] and len(calls) == 10
    assert calls.count(1.6) == calls.count(1.9) == 1


@pytest.mark.parametrize("lo, hi", [
    (1.0, 2.0),
    (1.7864402555636192, math.nextafter(1.7864402555636192, 2.0))])
def test_edge_root_stops_at_float_resolution(lo, hi):
    # the sign flips between two adjacent floats, so no float is a root
    step = 1.7864402555636192
    calls = []

    def h(c):
        calls.append(c)
        if len(calls) > 300:
            raise RuntimeError("root search does not terminate")
        out = np.where(np.asarray(c) > step, 1.0, -1.0)
        return out if out.ndim else float(out)

    root = F._bisect_edge(h, [lo, hi], 0)
    assert root in (step, math.nextafter(step, 2.0))


def _bisect_edge_scanned(h, cs, k, depth=0):
    """_bisect_edge without the flip-cell shortcut: one array evaluation of
    h on cs, then brent on the cell with a sign change nearest cell k (the
    left one on a tie)."""
    cs = np.asarray(cs, dtype=float)
    sign = np.sign(h(cs))
    cells = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    if not cells.size:
        raise WindowNotFound("no sign change", depth=depth)
    m = cells[np.argmin(np.abs(cells - k))]
    return brent(h, cs[m], cs[m + 1])


@pytest.mark.parametrize("k, root", [(0, 1.25), (2, 1.25), (4, 1.25),
                                     (5, 1.75), (7, 1.75), (9, 1.75)])
def test_edge_root_widens_to_the_nearest_sign_change(k, root):
    # sign changes in cells 2 and 7 only; cell k is widened on both sides
    # until it meets one
    cs = np.linspace(1.0, 2.0, 11)
    h = lambda c: (c - 1.25) * (c - 1.75)
    edge = F._bisect_edge(h, cs, k)
    assert abs(edge - root) <= 4 * math.ulp(root)
    assert edge.hex() == _bisect_edge_scanned(h, cs, k).hex()


def test_edge_root_without_sign_change_raises_with_depth():
    # the only root, 2.5, lies outside the grid, which is the limit
    cs = np.linspace(1.0, 2.0, 11)
    with pytest.raises(WindowNotFound) as err:
        F._bisect_edge(lambda c: c - 2.5, cs, 9, depth=3)
    assert err.value.depth == 3


def test_window_edges_are_the_scanned_roots(quadratic, monkeypatch):
    """Every edge of the depth-3 parameter tower and of three find_windows
    scans, solved with and without the flip-cell shortcut: the same
    float."""
    shortcut, edges = F._bisect_edge, []

    def both(h, cs, k, depth=0):
        edge = shortcut(h, cs, k, depth)
        assert edge.hex() == _bisect_edge_scanned(h, cs, k, depth).hex()
        edges.append(edge)
        return edge

    monkeypatch.setattr(F, "_bisect_edge", both)
    F.parameter_window_tower(quadratic, [THETA_DOUBLING, THETA_TRIPLING], 3)
    for p, c_range in [(2, (0.8, 1.6)), (3, (1.6, 1.9)), (5, (1.6, 2.0))]:
        F.find_windows(quadratic, p, c_range, grid=512)
    assert len(edges) == 2 * (2 + 4 + 8) + 2 * (1 + 1 + 2)


def _two_roots(c):
    return (c - 1.25) * (c - 1.75)


def _root_on_a_grid_point(c):
    return c - 1.5


@pytest.mark.parametrize("h, cs, k, arrays, root", [
    (_two_roots, np.linspace(1.0, 2.0, 11), 2, 0, 1.25),
    (_two_roots, np.linspace(1.0, 2.0, 11), 7, 0, 1.75),
    (_two_roots, np.linspace(1.0, 2.0, 11), 0, 1, 1.25),
    (_two_roots, np.linspace(1.0, 2.0, 11), 5, 1, 1.75),
    # a zero at either end of the flip cell brackets the root
    (_root_on_a_grid_point, [1.0, 1.5, 2.0], 0, 0, 1.5),
    (_root_on_a_grid_point, [1.0, 1.5, 2.0], 1, 0, 1.5)],
    ids=["flip-2", "flip-7", "off-0", "off-5", "zero-right", "zero-left"])
def test_edge_root_scans_the_grid_only_off_the_flip_cell(h, cs, k, arrays,
                                                         root):
    calls = []

    def counted(c):
        calls.append(np.ndim(c) > 0)
        return h(c)

    assert abs(F._bisect_edge(counted, cs, k) - root) <= 4 * math.ulp(root)
    assert sum(calls) == arrays


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.0, 2.0), P=st.integers(1, 60))
def test_right_edge_equation_is_the_two_orbits_from_zero(c, P):
    """The right edge equation runs one critical orbit on from f_c^P(0)
    to f_c^2P(0); the values are |f_c^P(0)| - |f_c^2P(0)| with both
    orbits run from 0, as bytes, on a float and on an array."""
    fam = QuadraticFamily()
    _, right = F._edge_equations(fam, P)
    got = right(c)
    assert type(got) is float
    assert got.hex() == (abs(fam.critical_value_map(c, P))
                         - abs(fam.critical_value_map(c, 2 * P))).hex()
    cs = np.array([c, 2.0 - c, 0.5 * c, 1.401155189, 1.7548776662466927])
    want = (np.abs(fam.critical_value_map(cs, P))
            - np.abs(fam.critical_value_map(cs, 2 * P)))
    assert right(cs).tobytes() == want.tobytes()


def _orbit_from_scratch(cs, n):
    """f_c^k(0), k = 0..n, for every c of cs, by 1.0 - c * x * x."""
    x = np.zeros_like(cs)
    zs = [x]
    for _ in range(n):
        x = 1.0 - cs * x * x
        zs.append(x)
    return np.stack(zs)


def _assert_level_is_the_family_orbit(fam, g):
    """Every row of g.z is every P-th step of f_c's critical orbit run
    from 0, as bytes, and g's lam, z[1], is critical_value_map(c, P), the
    left edge equation's value, on the array and on each float alike.
    Returns the rows."""
    n = len(g.z) - 1
    assert g.z.ndim == 2 and g.z.shape[1] == g.c.size and n >= 1
    want = _orbit_from_scratch(g.c, n * g.P)[::g.P]
    assert g.z.tobytes() == want.tobytes()
    left, _ = F._edge_equations(fam, g.P)
    assert g.z[1].tobytes() == fam.critical_value_map(g.c, g.P).tobytes()
    assert g.z[1].tobytes() == left(g.c).tobytes()
    for c, lam in zip(g.c.tolist(), g.z[1].tolist()):
        assert left(c).hex() == lam.hex()
    return g.c.size


def test_family_levels_hold_the_family_orbit_on_nested_chase_grids(
        quadratic):
    """Down the (doubling, tripling) chase to depth 4, on the grids of its
    brackets: each level of the walk, each child of the last level's one
    scan, and each level run on further keep f_c's critical orbit from
    scratch, with no step recomputed differently.  A level keeps only the
    steps it reads: a level of one scan up to its own period p holds
    three, f_c^0(0), f_c^pP'(0) and f_c^2pP'(0)."""
    prefix = [THETA_DOUBLING, THETA_TRIPLING] * 2
    bracket, rows = F.DEFAULT_BRACKET, 0
    for depth in range(1, 5):
        cs = np.linspace(*bracket, 513)
        _, g = F._level_zero(quadratic, cs)
        for theta in prefix[:depth]:
            _, g = g.renormalize_each([theta])[0]
            assert len(g.z) == 3 and len(g.extended(5).z) == 6
            rows += _assert_level_is_the_family_orbit(quadratic, g)
            rows += _assert_level_is_the_family_orbit(quadratic,
                                                      g.extended(5))
        for _, child in g.renormalize_each([THETA_DOUBLING, THETA_TRIPLING]):
            rows += _assert_level_is_the_family_orbit(quadratic, child)
        bracket = F._window_for_prefix(quadratic, prefix[:depth], bracket)
    assert rows > 0


def _mp_orbit(c, q):
    x = mp.mpf(0)
    for _ in range(q):
        x = 1 - c * x * x
    return x


def _mp_root_offset(h, edge: float, reach: float = 1e-9) -> float:
    """|root - edge| for the root of h (40 digits) within reach of the
    float edge, by bisection; fails if h keeps its sign across the reach."""
    with mp.workdps(40):
        a, b = mp.mpf(edge) - reach, mp.mpf(edge) + reach
        ha = h(a)
        assert ha * h(b) < 0, f"no root within {reach} of {edge!r}"
        for _ in range(80):
            mid = (a + b) / 2
            hm = h(mid)
            if (hm < 0) == (ha < 0):
                a, ha = mid, hm
            else:
                b = mid
        return float(abs((a + b) / 2 - mp.mpf(edge)))


def _assert_edges_are_roots(interval, P):
    left, right = interval
    assert _mp_root_offset(lambda c: _mp_orbit(c, P), left) < 1e-12
    assert _mp_root_offset(lambda c: abs(_mp_orbit(c, P))
                           - abs(_mp_orbit(c, 2 * P)), right) < 1e-12


def test_chase_edges_match_mpmath_roots(quadratic):
    brackets = {(): F.DEFAULT_BRACKET}
    for depth in (1, 2, 3):
        for prefix in itertools.product([THETA_DOUBLING, THETA_TRIPLING],
                                        repeat=depth):
            win = F._window_for_prefix(quadratic, list(prefix),
                                       brackets[prefix[:-1]])
            brackets[prefix] = win
            _assert_edges_are_roots(win, math.prod(len(t) for t in prefix))


@pytest.mark.parametrize("p, c_range, grid", [
    (2, (0.8, 1.6), 400), (3, (1.6, 1.9), 400), (5, (1.6, 2.0), 512)])
def test_find_windows_edges_match_mpmath_roots(quadratic, p, c_range, grid):
    wins = F.find_windows(quadratic, p, c_range, grid=grid)
    assert wins
    for w in wins:
        assert w.superstable_c == w.interval[0]
        _assert_edges_are_roots(w.interval, p)


def reference_classify(fam, c, p):
    """The scalar first-period classification: (matches_p, theta_or_None)
    from detect, read up to period p: a degenerate scaling at p counts as
    inside, a step or a degenerate scaling past p as outside."""
    try:
        step = detect(fam.member(c))
    except RenormlabError as err:
        return getattr(err, "p", None) == p, None
    if step.p > p:
        return False, None
    return step.p == p, step.perm


@st.composite
def window_grids(draw):
    """Uniform draws over the scan bracket plus sorted clusters at the
    period-3 window's edges, one of them within reach of the degenerate
    scaling at the superstable parameter."""
    cs = draw(st.lists(st.floats(0.3, 2.0), max_size=12))
    for centre, spread in ((1.7549, 2e-3), (1.7903, 2e-3),
                           (analytic_period3_superstable(), 2e-8)):
        offsets = draw(st.lists(st.floats(-spread, spread), max_size=6))
        cs += sorted(centre + o for o in offsets)
    return np.array(cs)


@given(cs=window_grids(), p=st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=40, deadline=None)
def test_classify_period_matches_the_scalar_classification(cs, p):
    fam = QuadraticFamily()
    marks, ranks = F.classify_period(fam, cs, p)
    assert marks.dtype == bool and ranks.shape == cs.shape + (p,)
    for c, mark, rank in zip(cs, marks, ranks):
        want_mark, want_theta = reference_classify(fam, float(c), p)
        assert mark == want_mark
        got_theta = tuple(rank.tolist()) if rank[0] >= 0 else None
        assert got_theta == (want_theta if want_mark else None)


def test_degenerate_scaling_counts_as_inside(quadratic):
    c = analytic_period3_superstable()
    assert reference_classify(quadratic, c, 3) == (True, None)
    marks, ranks = F.classify_period(quadratic, [c], 3)
    assert marks.tolist() == [True] and ranks.tolist() == [[-1, -1, -1]]


def reference_itinerary_ok(fam, c, prefix):
    """The per-point predicate with the full period scan p = 2..16, on
    degree-16 projections; a level is projected only when the prefix asks
    about the next one."""
    try:
        g = fam.member(c)
        for k, theta in enumerate(prefix):
            if k:
                g = renormalize(g, step, degree=16).map
            step = detect(g)
            if step.p != len(theta) or step.perm != tuple(theta):
                return False
    except RenormlabError:
        return False
    return True


def test_classify_does_not_project_past_the_prefix(quadratic):
    # c lies 3.6e-7 inside the (doubling, tripling) window, but the degree-16
    # projection of its second level loses 1.2e-10 > PROJECTION_CAP; a
    # depth-2 prefix never asks about that level
    c, prefix = 1.476015, [THETA_DOUBLING, THETA_TRIPLING]
    lo, hi = F._window_for_prefix(quadratic, prefix,
                                  (1.0, 1.5436890126920764))
    assert lo < c < hi
    assert F.classify(quadratic, [c], prefix).tolist() == [True]
    assert reference_itinerary_ok(quadratic, c, prefix)


@st.composite
def parameter_grids(draw):
    """Uniform draws over the scan bracket plus sorted clusters at the
    doubling and tripling accumulation points, where windows nest."""
    cs = draw(st.lists(st.floats(0.3, 2.0), max_size=12))
    for centre in (1.401, 1.786):
        offsets = draw(st.lists(st.floats(-2e-3, 2e-3), max_size=6))
        cs += sorted(centre + o for o in offsets)
    return np.array(cs)


@given(cs=parameter_grids(),
       prefix=st.lists(st.sampled_from([THETA_DOUBLING, THETA_TRIPLING]),
                       min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_classify_matches_the_per_point_predicate(cs, prefix):
    fam = QuadraticFamily()
    got = F.classify(fam, cs, prefix)
    want = [reference_itinerary_ok(fam, float(c), prefix) for c in cs]
    assert got.dtype == bool and got.shape == cs.shape
    assert got.tolist() == want


def test_classify_outside_the_domain_is_false(quadratic):
    cs = np.array([-1.0, 0.0, 1.2, 2.0 + 1e-9, 3.0])
    assert F.classify(quadratic, cs, [THETA_DOUBLING]).tolist() == [
        False, False, True, False, False]
    marks, ranks = F.classify_period(quadratic, cs, 2)
    assert marks.tolist() == [False, False, True, False, False]
    assert ranks[marks].tolist() == [list(THETA_DOUBLING)]
    assert np.all(ranks[~marks] == -1)


def test_classify_empty_grid(quadratic):
    ok = F.classify(quadratic, np.array([]), [THETA_DOUBLING, THETA_TRIPLING])
    assert ok.shape == (0,) and ok.dtype == bool
    marks, ranks = F.classify_period(quadratic, np.array([]), 3)
    assert marks.shape == (0,) and marks.dtype == bool
    assert ranks.shape == (0, 3)
