import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import geometry as G
from renormlab.errors import DomainError, EmptyLevel, NoBracket
from renormlab.renorm import IntervalTower

LOG2_LOG3 = np.log(2.0) / np.log(3.0)


# --- synthetic towers with known answers --------------------------------

def test_middle_thirds_geometry():
    tw = G.middle_thirds_tower(10)
    rep = G.bounded_geometry(tw)
    assert abs(rep.tau - 1.0 / 3.0) < 1e-9
    assert rep.all_interior()
    assert not rep.near_degenerate


def test_middle_thirds_dimension():
    tw = G.middle_thirds_tower(10)
    dim = G.hausdorff_dimension(tw)
    assert abs(dim.s_estimate - LOG2_LOG3) < 1e-6
    assert abs(dim.eta - 1.0) < 1e-6
    assert dim.stability < 1e-9


def test_self_similar_partition_exponent():
    tw = G.self_similar_tower(3, 0.2, 8)
    dim = G.hausdorff_dimension(tw)
    assert abs(dim.s_estimate - np.log(3) / np.log(5)) < 1e-6


def test_dimension_resolves_to_float_precision():
    # the root is solved to float resolution, not to a bisection tolerance
    mt = G.hausdorff_dimension(G.middle_thirds_tower(10))
    assert abs(mt.s_estimate - LOG2_LOG3) < 1e-12
    ss = G.hausdorff_dimension(G.self_similar_tower(3, 0.2, 8))
    assert abs(ss.s_estimate - np.log(3) / np.log(5)) < 1e-12


def test_self_similar_sum_ratio_closed_form():
    tw = G.self_similar_tower(3, 0.2, 8)
    fit = G.spectral_sum(tw, 2.5)
    assert abs(fit.mu - 3 * 0.2**1.5) < 1e-10


@settings(max_examples=40, deadline=None)
@given(branching=st.integers(2, 4),
       ratio=st.floats(0.05, 0.24),
       t=st.floats(1.2, 4.0))
def test_sum_ratio_closed_form_property(branching, ratio, t):
    tw = G.self_similar_tower(branching, ratio, 6)
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
    tw = G.self_similar_tower(2, 0.01, 8)
    assert len(tw.levels) == 8
    assert G.usable_depth(tw) == 6


# --- towers from the period-doubling fixed point ------------------------

def test_fixed_point_tower_has_bounded_geometry(tower_8):
    rep = G.bounded_geometry(tower_8)
    assert rep.tau >= 0.1
    assert rep.all_interior()
    assert not rep.near_degenerate
    assert rep.levels_checked >= 8


def test_fixed_point_largest_interval_is_the_first(tower_8):
    lic = G.largest_interval_constant(tower_8)
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
        G.hausdorff_dimension(G.middle_thirds_tower(3))


def test_single_level_tower_rejected():
    tw = IntervalTower(levels=(np.array([[0.0, 1.0]]),), periods=(1,),
                       scalings=None, kind="synthetic")
    with pytest.raises(EmptyLevel):
        G.bounded_geometry(tw)


def test_bracket_must_straddle_the_root(tower_9):
    with pytest.raises(NoBracket):
        G.hausdorff_dimension(tower_9, bracket=(0.8, 0.95))
