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
    assert w.interval[0] == pytest.approx(1.0, abs=1e-5)
    assert w.interval[1] == pytest.approx(1.5437, abs=1e-3)
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


def test_bisect_edge_stops_at_float_resolution():
    # tol below the float spacing: the midpoint rounds onto an endpoint
    c_in = 1.7864402555636192
    c_out = float(np.nextafter(c_in, 0.0))
    calls = []

    def inside(c):
        calls.append(c)
        if len(calls) > 200:
            raise RuntimeError("bisection does not terminate")
        return True

    assert F._bisect_edge(inside, c_out, c_in, tol=1e-20) == c_in


def reference_itinerary_ok(fam, c, prefix):
    """The per-point predicate with the full period scan p = 2..16."""
    try:
        g = fam.member(c)
        for theta in prefix:
            step = detect(g, grid=32)
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


def test_classify_empty_grid(quadratic):
    ok = F.classify(quadratic, np.array([]), [THETA_DOUBLING, THETA_TRIPLING])
    assert ok.shape == (0,) and ok.dtype == bool
