import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import geometry as G
from renormlab.errors import DomainError, EmptyLevel, NoBracket
from renormlab.renorm import IntervalTower
from renormlab.roots import brent

from oracles import mean_log_ratio, middle_thirds_tower, self_similar_tower

LOG2_LOG3 = np.log(2.0) / np.log(3.0)


# --- synthetic towers with known answers --------------------------------

def test_middle_thirds_geometry():
    tw = middle_thirds_tower(10)
    rep = G.bounded_geometry(tw)
    assert abs(rep.tau - 1.0 / 3.0) < 1e-9
    assert rep.all_interior()
    assert not rep.near_degenerate


def test_middle_thirds_dimension():
    tw = middle_thirds_tower(10)
    dim = G.hausdorff_dimension(tw)
    assert abs(dim.s_estimate - LOG2_LOG3) < 1e-6
    assert abs(dim.eta - 1.0) < 1e-6
    assert dim.stability < 1e-9


def test_self_similar_partition_exponent():
    tw = self_similar_tower(3, 0.2, 8)
    dim = G.hausdorff_dimension(tw)
    assert abs(dim.s_estimate - np.log(3) / np.log(5)) < 1e-6


def test_dimension_resolves_to_float_precision():
    # the root is solved to float resolution, not to a bisection tolerance
    mt = G.hausdorff_dimension(middle_thirds_tower(10))
    assert abs(mt.s_estimate - LOG2_LOG3) < 1e-12
    ss = G.hausdorff_dimension(self_similar_tower(3, 0.2, 8))
    assert abs(ss.s_estimate - np.log(3) / np.log(5)) < 1e-12


def test_self_similar_sum_ratio_closed_form():
    tw = self_similar_tower(3, 0.2, 8)
    fit = G.spectral_sum(tw, 2.5)
    assert abs(fit.mu - 3 * 0.2**1.5) < 1e-10


@settings(max_examples=40, deadline=None)
@given(branching=st.integers(2, 4),
       ratio=st.floats(0.05, 0.24),
       t=st.floats(1.2, 4.0))
def test_sum_ratio_closed_form_property(branching, ratio, t):
    tw = self_similar_tower(branching, ratio, 6)
    fit = G.spectral_sum(tw, t)
    assert abs(fit.mu - branching * ratio ** (t - 1.0)) < 1e-8


def test_near_degenerate_tower_is_flagged():
    levels = (np.array([[0.0, 1.0]]), np.array([[0.0, 0.9995]]))
    tw = IntervalTower(levels=levels, periods=(1, 1), scalings=None,
                       kind="synthetic")
    rep = G.bounded_geometry(tw)
    assert rep.tau <= 1e-3
    assert rep.near_degenerate


def test_usable_depth_stops_at_length_floor():
    tw = self_similar_tower(2, 0.01, 8)
    assert len(tw.levels) == 8
    assert G.usable_depth(tw) == 6


def test_a_nan_length_ends_the_usable_depth():
    # one nan right end at level 5; nan < LENGTH_FLOOR is False, so a
    # floor test written as `< LENGTH_FLOOR` counts the level as resolved
    tw = self_similar_tower(2, 1.0 / 3.0, 7)
    levels = [lv.copy() for lv in tw.levels]
    levels[4][0, 1] = np.nan
    tw = IntervalTower(levels=tuple(levels), periods=tw.periods,
                       scalings=None, kind="synthetic")
    assert G.usable_depth(tw) == 4
    with pytest.raises(EmptyLevel, match="have 4"):
        G.hausdorff_dimension(tw)
    dim = G.hausdorff_dimension(tw, kmin=2)
    assert dim.fit_levels == (2, 4)
    assert abs(dim.s_estimate - LOG2_LOG3) < 1e-14


# a level with no piece: every entry point reads the levels before it
EMPTY_AT_2 = IntervalTower(levels=(np.array([[0.0, 1.0]]), np.empty((0, 2))),
                           periods=(1, 2), scalings=None, kind="synthetic")


def test_an_empty_level_ends_the_usable_depth():
    assert G.usable_depth(EMPTY_AT_2) == 1
    empty_first = IntervalTower(levels=(np.empty((0, 2)),), periods=(1,),
                                scalings=None, kind="synthetic")
    assert G.usable_depth(empty_first) == 0


def test_bounded_geometry_refuses_an_empty_level():
    with pytest.raises(EmptyLevel, match="need two usable levels, have 1"):
        G.bounded_geometry(EMPTY_AT_2)


def test_hausdorff_dimension_refuses_an_empty_level():
    with pytest.raises(EmptyLevel, match="need five usable levels, have 1"):
        G.hausdorff_dimension(EMPTY_AT_2)
    with pytest.raises(EmptyLevel, match="need 3 usable levels"):
        G.hausdorff_dimension(EMPTY_AT_2, kmin=1)


def test_spectral_sum_refuses_an_empty_level():
    with pytest.raises(EmptyLevel, match="need three usable levels, have 1"):
        G.spectral_sum(EMPTY_AT_2, 3.0)


def test_partition_sum_stops_before_an_empty_level():
    sums = G.partition_sum(EMPTY_AT_2, 0.5)
    assert sums.tolist() == [1.0]


_log_levels = st.lists(
    st.lists(st.floats(min_value=-40.0, max_value=0.0), min_size=1,
             max_size=8).map(np.array), min_size=2, max_size=10)


@given(loglens=_log_levels, s=st.floats(min_value=0.01, max_value=0.99),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_window_mean_log_ratio_is_the_full_one_sliced(loglens, s, data):
    """_mean_log_ratio over a window's levels gives, as bytes, the mean
    over every level's sum sliced to the window afterwards."""
    hi = data.draw(st.integers(min_value=2, max_value=len(loglens)))
    lo = data.draw(st.integers(min_value=1, max_value=hi - 1))
    got = G._mean_log_ratio(loglens[lo - 1:hi], s)
    want = mean_log_ratio(loglens, s, lo, hi)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_hausdorff_dimension_is_the_fit_over_every_level_sliced(tower_9):
    """The estimate, eta and stability on the fixed-point tower, as bytes,
    are those of brent on the mean over every level sliced to each window."""
    rep = G.hausdorff_dimension(tower_9)
    kmin, kmax = rep.fit_levels
    loglens = [np.log(tower_9.lengths(k)) for k in range(1, kmax + 1)]
    s_est, s_lo, s_hi = (
        brent(partial(mean_log_ratio, loglens, lo=lo, hi=hi), 0.01, 0.99)
        for lo, hi in ((kmin, kmax), (kmin, kmax - 1), (kmin + 1, kmax)))
    eta = float(np.exp(mean_log_ratio(loglens, s_est, kmin, kmax)))
    assert (rep.s_estimate, rep.eta, rep.stability) == (
        s_est, eta, abs(s_hi - s_lo))


# --- towers from the period-doubling fixed point ------------------------

def test_fixed_point_tower_has_bounded_geometry(tower_8):
    rep = G.bounded_geometry(tower_8)
    assert rep.tau >= 0.1
    assert rep.all_interior()
    assert not rep.near_degenerate
    assert rep.levels_checked >= 8


def test_fixed_point_largest_interval_is_the_first(tower_8):
    # max_i |Delta_i| / |Delta_0| on every usable level
    kmax = G.usable_depth(tower_8)
    assert kmax >= 1
    lic = [tower_8.lengths(k).max() / tower_8.lengths(k)[0]
           for k in range(1, kmax + 1)]
    assert np.allclose(lic, 1.0, atol=1e-12)


def test_fixed_point_cubic_sums_contract(tower_8):
    fit = G.spectral_sum(tower_8, 3.0)
    assert len(fit.sums) == G.usable_depth(tower_8)
    assert fit.mu == pytest.approx(0.39979, abs=2e-3)
    ratios = fit.sums[1:] / fit.sums[:-1]
    assert np.all(ratios[1:] < 1.0)


def test_fixed_point_subunit_exponent_grows_slower_than_delta(tower_8):
    fit = G.spectral_sum(tower_8, 1.9)
    assert 1.0 < fit.mu < 4.6692


def test_fixed_point_dimension_window(tower_9):
    dim = G.hausdorff_dimension(tower_9)
    assert 0.4 < dim.s_estimate < 0.7
    assert dim.stability < 0.02
    assert 0.9 < dim.eta < 1.1


# --- monotonicity of the partition sums ---------------------------------

@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.05, 0.95), step=st.floats(0.01, 0.04))
def test_partition_sums_decrease_in_exponent(tower_8, s, step):
    lo = G.partition_sum(tower_8, s)
    hi = G.partition_sum(tower_8, s + step)
    assert np.all(lo >= hi - 1e-12)


# --- rejection paths ------------------------------------------------------

def test_sum_exponent_must_exceed_one(tower_8):
    with pytest.raises(DomainError):
        G.spectral_sum(tower_8, 1.0)


def test_partition_exponent_range(tower_8):
    with pytest.raises(DomainError):
        G.partition_sum(tower_8, 0.0)
    with pytest.raises(DomainError):
        G.partition_sum(tower_8, 1.5)


def test_shallow_tower_rejected_for_dimension():
    with pytest.raises(EmptyLevel):
        G.hausdorff_dimension(middle_thirds_tower(3))


def test_one_usable_level_has_a_partition_sum():
    tw = self_similar_tower(2, 1.0 / 3.0, 1)
    assert G.usable_depth(tw) == 1
    (total,) = G.partition_sum(tw, LOG2_LOG3)
    assert abs(total - 1.0) < 1e-15      # 2 (1/3)^s = 1 at the dimension


def test_five_usable_levels_are_enough_for_the_dimension():
    tw = middle_thirds_tower(5)
    assert G.usable_depth(tw) == 5
    dim = G.hausdorff_dimension(tw)
    assert dim.fit_levels == (2, 5)
    assert abs(dim.s_estimate - LOG2_LOG3) < 1e-12


def test_the_shortest_fit_window_is_allowed():
    # kmin = kmax - 2: two ratios in the fit, one in each stability window
    tw = middle_thirds_tower(7)
    dim = G.hausdorff_dimension(tw, kmin=5)
    assert dim.fit_levels == (5, 7)
    assert abs(dim.s_estimate - LOG2_LOG3) < 1e-12
    with pytest.raises(EmptyLevel, match="need 8 usable levels"):
        G.hausdorff_dimension(tw, kmin=6)


def test_a_fit_window_below_level_one_is_refused():
    with pytest.raises(DomainError, match="kmin = 0"):
        G.hausdorff_dimension(middle_thirds_tower(7), kmin=0)


def test_single_level_tower_rejected():
    tw = IntervalTower(levels=(np.array([[0.0, 1.0]]),), periods=(1,),
                       scalings=None, kind="synthetic")
    with pytest.raises(EmptyLevel):
        G.bounded_geometry(tw)


def test_bracket_must_straddle_the_root(tower_9):
    with pytest.raises(NoBracket):
        G.hausdorff_dimension(tower_9, bracket=(0.8, 0.95))


# --- the per-parent loop as an oracle -----------------------------------

def _children_of(parent, level):
    """Rows of `level` whose midpoint lies in `parent`, clipped to it."""
    mids = 0.5 * (level[:, 0] + level[:, 1])
    inside = (mids >= parent[0]) & (mids <= parent[1])
    kids = level[inside].copy()
    kids[:, 0] = np.maximum(kids[:, 0], parent[0])
    kids[:, 1] = np.minimum(kids[:, 1], parent[1])
    return kids[np.argsort(kids[:, 0], kind="stable")]


def _gap_components(parent, kids):
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


def _bounded_geometry_loop(tower):
    """bounded_geometry one parent at a time: (tau, child_ratios,
    gap_ratios)."""
    kmax = G.usable_depth(tower)
    if kmax < 2:
        raise EmptyLevel(f"need two usable levels, have {kmax}")
    child_ratios, gap_ratios, tau = [], [], 0.5
    for k in range(1, kmax):
        cr, gr = [], []
        for parent in tower.level(k):
            plen = parent[1] - parent[0]
            if plen < G.LENGTH_FLOOR:
                raise EmptyLevel(f"level {k} has a degenerate interval")
            kids = _children_of(parent, tower.level(k + 1))
            if len(kids) == 0:
                raise EmptyLevel(f"no level-{k + 1} children inside a "
                                 f"level-{k} interval")
            cr.extend((kids[:, 1] - kids[:, 0]) / plen)
            gaps = _gap_components(parent, kids)
            gaps = gaps[gaps > G.GAP_ARTIFACT_REL * plen]
            gr.extend(gaps / plen)
        child_ratios.append(np.asarray(cr))
        gap_ratios.append(np.asarray(gr))
        for arr in (child_ratios[-1], gap_ratios[-1]):
            if arr.size:
                tau = min(tau, np.min(np.minimum(arr, 1.0 - arr)))
    return max(0.0, float(tau)), child_ratios, gap_ratios


def _assert_geometry_matches_the_loop(tower):
    """bounded_geometry against the loop: the same EmptyLevel message, or
    the same tau and ratio arrays bit for bit."""
    try:
        ref = _bounded_geometry_loop(tower)
    except EmptyLevel as exc:
        with pytest.raises(EmptyLevel) as got:
            G.bounded_geometry(tower)
        assert str(got.value) == str(exc)
        return None
    rep = G.bounded_geometry(tower)
    tau, child_ratios, gap_ratios = ref
    assert rep.tau == tau
    for got, want in [*zip(rep.child_ratios, child_ratios),
                      *zip(rep.gap_ratios, gap_ratios)]:
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert len(rep.child_ratios) == len(child_ratios)
    assert len(rep.gap_ratios) == len(gap_ratios)
    return rep


def test_bounded_geometry_matches_the_loop_on_map_towers(tower_8, tower_9):
    for tw in (tower_8, tower_9):
        assert _assert_geometry_matches_the_loop(tw).levels_checked >= 8
    for tw in (middle_thirds_tower(10), self_similar_tower(3, 0.2, 6),
               self_similar_tower(2, 0.01, 8)):
        _assert_geometry_matches_the_loop(tw)


def _spread(draw, count):
    """count disjoint intervals across [-1, 1] in a shuffled time order:
    widths and gaps drawn, then scaled to fill [-1, 1]."""
    widths = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=count,
                                    max_size=count)))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=count,
                                  max_size=count)))
    scale = 2.0 / (widths.sum() + gaps.sum())
    lefts = -1.0 + scale * (np.cumsum(gaps) + np.cumsum(widths) - widths)
    rows = np.stack([lefts, lefts + scale * widths], axis=-1)
    return rows[draw(st.permutations(range(count)))]


@st.composite
def _two_level_towers(draw, overlapping=False):
    """Parents and children each spread across [-1, 1]; when overlapping,
    the parents are two spreads together and some children repeat, in a
    shuffled time order."""
    parents = _spread(draw, draw(st.integers(1, 4)))
    kids = _spread(draw, draw(st.integers(1, 24)))
    if overlapping:
        parents = np.concatenate([parents,
                                  _spread(draw, draw(st.integers(1, 4)))])
        kids = np.concatenate([kids, kids[draw(st.lists(
            st.integers(0, len(kids) - 1), min_size=1, max_size=8))]])
        kids = kids[draw(st.permutations(range(len(kids))))]
    return IntervalTower(levels=(parents, kids),
                         periods=(len(parents), len(kids)), scalings=None,
                         kind="synthetic")


@settings(max_examples=200, deadline=None)
@given(_two_level_towers())
def test_bounded_geometry_matches_the_loop_on_disjoint_levels(tower):
    """Children straddling a parent's end are clipped, children outside
    every parent dropped, and a parent with no child names the level."""
    _assert_geometry_matches_the_loop(tower)


@settings(max_examples=200, deadline=None)
@given(_two_level_towers(overlapping=True))
def test_bounded_geometry_matches_the_loop_on_overlapping_levels(tower):
    """A child counts in every parent that holds its midpoint, and a
    repeated child once per copy, in time order among equal left ends."""
    _assert_geometry_matches_the_loop(tower)


def test_bounded_geometry_memory_is_not_parents_times_children():
    """4096 parents with two children each: one parent-by-child mask would
    take 33.5 MB and its comparisons as much again; the binary search keeps
    the peak linear in the two levels, under 8 MB."""
    lo = np.arange(4096.0)
    parents = np.stack([lo, lo + 0.5], axis=-1)
    kids = np.stack([lo, lo + 0.1, lo + 0.4, lo + 0.5], axis=-1).reshape(-1, 2)
    tw = IntervalTower(levels=(parents, kids), periods=(4096, 8192),
                       scalings=None, kind="synthetic")
    tracemalloc.start()
    try:
        G.bounded_geometry(tw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    _assert_geometry_matches_the_loop(tw)


def test_self_similar_tower_memory_is_not_parents_times_children():
    """Level 13 of the middle-thirds tower nests 8192 children in 4096
    parents, where one parent-by-child mask would take 33.5 MB; the
    nesting check's binary search keeps the whole build under 8 MB."""
    tracemalloc.start()
    try:
        tw = self_similar_tower(2, 1.0 / 3.0, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tw.depth == 13 and len(tw.level(13)) == 8192
    assert peak < 8e6
