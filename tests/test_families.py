import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import families as F
from renormlab.errors import (BracketNotFound, DomainError, RenormlabError,
                              SingleItinerary, WindowNotFound)
from renormlab.maps import QuadraticFamily
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, detect,
                              renormalize)
from conftest import C_INF

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


def test_single_type_rejected(quadratic):
    with pytest.raises(SingleItinerary):
        F.parameter_window_tower(quadratic, [THETA_DOUBLING], 2)


def test_itinerary_without_window_reports_depth(quadratic):
    with pytest.raises(WindowNotFound) as err:
        F.infinitely_renormalizable_parameter(quadratic, [THETA_TRIPLING], 2,
                                              bracket=(0.3, 1.0))
    assert err.value.depth == 1


def test_depth_limits(quadratic):
    with pytest.raises(DomainError):
        F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 0)
    with pytest.raises(DomainError):
        F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 11)


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
        calls.append(np.ndim(c) == 0)
        return c**3 - 2 * c**2 + c - 1

    c3 = float(mp.findroot(cubic, mp.mpf(1.75)))
    calls.clear()
    assert abs(F._bisect_edge(cubic, [1.6, 1.9], 0) - c3) <= 4 * math.ulp(c3)
    # interpolation, not bisection, which needs about 50 halvings of 0.3
    assert sum(calls) <= 15


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


@pytest.mark.parametrize("k, root", [(0, 1.25), (2, 1.25), (4, 1.25),
                                     (5, 1.75), (7, 1.75), (9, 1.75)])
def test_edge_root_widens_to_the_nearest_sign_change(k, root):
    # sign changes in cells 2 and 7 only; cell k is widened on both sides
    # until it meets one
    cs = np.linspace(1.0, 2.0, 11)
    h = lambda c: (c - 1.25) * (c - 1.75)
    assert abs(F._bisect_edge(h, cs, k) - root) <= 4 * math.ulp(root)


def test_edge_root_without_sign_change_raises_with_depth():
    # the only root, 2.5, lies outside the grid, which is the limit
    cs = np.linspace(1.0, 2.0, 11)
    with pytest.raises(WindowNotFound) as err:
        F._bisect_edge(lambda c: c - 2.5, cs, 9, depth=3)
    assert err.value.depth == 3


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
    from detect up to period p; a degenerate scaling at p counts as
    inside."""
    try:
        g = fam.member(c)
        step = detect(g, p_max=p)
    except RenormlabError as err:
        return getattr(err, "p", None) == p, None
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
    """The per-point predicate with the full period scan p = 2..16."""
    try:
        g = fam.member(c)
        for theta in prefix:
            step = detect(g)
            if step.p != len(theta) or step.perm != tuple(theta):
                return False
            g = renormalize(g, step, degree=F.WINDOW_DEGREE).map
    except RenormlabError:
        return False
    return True


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
