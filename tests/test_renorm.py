import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab.errors import (CombinatoricsMismatch, DegenerateScaling,
                              InvalidMap, NotRenormalizable, OverlapError,
                              RenormlabError, TruncationLoss)
from renormlab.maps import QuadraticFamily, UnimodalMap
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, LAMBDA_FLOOR,
                              IntervalTower, RenormStep, _check_level_disjoint,
                              _check_nesting, _hulls, _sample_symmetric,
                              _test_period, central_dominance, detect,
                              orbit_stack, renormalize, renormalize_with,
                              spatial_permutation, tower, tower_header,
                              tower_rows)
from renormlab.solver import solve_fixed_point

fam = QuadraticFamily()


def sup_distance(f, g, grid=200):
    xs = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs([f(x) - g(x) for x in xs])))


def test_detect_doubling_structure():
    step = detect(fam.member(1.3))
    assert step.p == 2
    assert step.perm == THETA_DOUBLING
    assert step.lam == pytest.approx(-0.3, abs=1e-12)
    a = abs(step.lam)
    assert step.intervals[0] == pytest.approx([-a, a])
    # pieces ordered in time, disjoint in space
    assert step.intervals[1, 0] > step.intervals[0, 1]


def test_detect_tripling_structure():
    step = detect(fam.member(1.76))
    assert step.p == 3
    assert step.perm == THETA_TRIPLING


def test_superstable_parameter_degenerates():
    with pytest.raises(DegenerateScaling) as err:
        detect(fam.member(1.0))
    assert err.value.p == 2


def test_chaotic_parameter_reports_reasons():
    with pytest.raises(NotRenormalizable) as err:
        detect(fam.member(1.9))
    assert err.value.reasons
    assert all(isinstance(k, int) for k in err.value.reasons)


def test_detect_validates_unchecked_maps():
    # phi(0) = 1.1: built unchecked, so detect must validate it itself
    f = UnimodalMap(np.array([0.7, -0.4]), check=False)
    with pytest.raises(InvalidMap):
        detect(f)
    try:
        detect(f, validate_input=False)
    except InvalidMap:
        pytest.fail("validate_input=False still validated")
    except RenormlabError:
        pass


def test_renormalized_map_is_normalized_exactly():
    rf, step = renormalize(fam.member(1.3))
    assert rf(0.0) == 1.0
    assert step.p == 2


def test_projection_residual_is_reported_small():
    res = renormalize(fam.member(1.3))
    assert res.projection_residual < 1e-12


def test_fixed_point_is_fixed(fixed_point_24):
    g = fixed_point_24.map
    rg, _ = renormalize(g)
    assert sup_distance(rg, g) < 1e-10


def test_renormalize_with_checks_combinatorics():
    f = fam.member(1.3)
    rf, step = renormalize_with(f, THETA_DOUBLING)
    assert step.perm == THETA_DOUBLING
    with pytest.raises(CombinatoricsMismatch):
        renormalize_with(f, THETA_TRIPLING)


def test_spatial_permutation_ranks_by_position():
    ivs = np.array([[-0.4, 0.4], [0.7, 1.0], [0.45, 0.6]])
    assert spatial_permutation(ivs) == (0, 2, 1)
    with pytest.raises(OverlapError):
        spatial_permutation(np.array([[-0.5, 0.5], [0.3, 0.8]]))


def test_tower_periods_and_scalings_multiply(tower_8, fixed_point_24):
    tw = tower_8
    lam = fixed_point_24.lambda_star
    assert tw.periods == tuple(2**k for k in range(1, 9))
    for k in range(1, 9):
        assert tw.scalings[k - 1] == pytest.approx(lam**k, rel=1e-9)


def test_tower_levels_nest_and_stay_disjoint(tower_8):
    tw = tower_8
    for k in range(1, tw.depth + 1):
        lv = tw.level(k)
        order = np.argsort(lv[:, 0])
        assert np.all(lv[order][1:, 0] > lv[order][:-1, 1])
        if k > 1:
            parents = tw.level(k - 1)
            for a, b in lv:
                hit = (parents[:, 0] - 1e-10 <= a) & (b <= parents[:, 1] + 1e-10)
                assert hit.any()


def test_tower_center_tracks_scaling(tower_8):
    tw = tower_8
    for k in range(1, 9):
        a = abs(tw.scalings[k - 1])
        assert tw.level(k)[0].tolist() == [-a, a]


def test_central_interval_dominates(tower_8):
    assert central_dominance(tower_8) == pytest.approx(1.0, abs=1e-12)


def test_tower_truncates_when_structure_runs_out():
    tw = tower(fam.member(1.3), 4)
    assert tw.depth == 1
    assert tw.truncated_at == 2
    assert tw.note


def test_tower_header_and_rows_are_consistent(tower_8):
    head = tower_header(tower_8)
    assert head["depth"] == 8
    rows = list(tower_rows(tower_8))
    assert len(rows) == sum(2**k for k in range(1, 9))
    assert {r[0] for r in rows} == set(range(1, 9))


def test_detection_is_stable_under_grid_refinement():
    for c in (1.2, 1.35, 1.76):
        coarse = detect(fam.member(c), grid=64)
        fine = detect(fam.member(c), grid=256)
        assert (coarse.p, coarse.perm) == (fine.p, fine.perm)
        assert coarse.lam == pytest.approx(fine.lam, abs=1e-14)


@given(c=st.floats(min_value=1.02, max_value=1.39))
@settings(max_examples=40, deadline=None)
def test_doubling_window_has_uniform_combinatorics(c):
    step = detect(fam.member(c))
    assert step.p == 2
    assert step.perm == THETA_DOUBLING
    assert -1.0 < step.lam < 0.0


def test_check_nesting_names_the_first_escaping_piece_in_time_order():
    parent = np.array([[-1.0, -0.5], [0.2, 0.6]])
    # pieces 1 and 3 escape; piece 2 overhangs parent 1 by less than tol
    child = np.array([[-0.9, -0.8], [0.0, 0.1], [0.3, 0.6 + 5e-11],
                      [0.55, 0.7]])
    with pytest.raises(OverlapError) as exc:
        _check_nesting(child, parent, 3)
    assert str(exc.value) == "level 3 piece [0.0, 0.1] escapes level 2"
    with pytest.raises(OverlapError) as exc:
        _check_nesting(child[[0, 3, 1]], parent, 3)
    assert str(exc.value) == "level 3 piece [0.55, 0.7] escapes level 2"
    _check_nesting(child[[0, 2]], parent, 3)


def _check_nesting_loop(child, parent, k, tol=1e-10):
    for left, right in child:
        inside = (parent[:, 0] - tol <= left) & (right <= parent[:, 1] + tol)
        if not bool(np.any(inside)):
            raise OverlapError(
                f"level {k} piece [{left}, {right}] escapes level {k - 1}")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 0.5)),
                min_size=1, max_size=6),
       st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 0.2)),
                min_size=1, max_size=12))
def test_check_nesting_matches_the_piecewise_loop(parents, children):
    parent = np.array([(a, a + w) for a, w in parents])
    child = np.array([(a, a + w) for a, w in children])
    messages = []
    for check in (_check_nesting, _check_nesting_loop):
        try:
            check(child, parent, 4)
            messages.append(None)
        except OverlapError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]


def _detect_upfront(f, p_max=16, grid=64):
    """detect on a checked map, with f^p(0) computed to p_max before the
    period loop."""
    row = f.stack()
    reasons = {}
    lam_path = orbit_stack(f, 0.0, p_max)
    for p in range(2, p_max + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        trial = _test_period(row, np.array([lam]), p, grid)
        if trial.fail[0]:
            reasons[p] = trial.reason(0)
            continue
        return RenormStep(p=p, lam=lam, perm=trial.ranks[0],
                          intervals=trial.pieces[0])
    raise NotRenormalizable(
        f"no admissible period up to {p_max}", reasons=reasons)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RenormlabError as exc:
        return exc


# c = 1.0 degenerates at p = 2; from about 1.79 on most members are not
# renormalizable
@pytest.mark.parametrize(
    "c", [*np.linspace(1.0, 2.0, 41), 1.40115518909203, 1.75488, 1.76])
def test_detect_matches_the_upfront_orbit(c):
    f = fam.member(c, degree=24)
    lazy, ref = _outcome(detect, f), _outcome(_detect_upfront, f)
    assert type(lazy) is type(ref)
    if isinstance(ref, RenormlabError):
        assert str(lazy) == str(ref)
        assert getattr(lazy, "p", None) == getattr(ref, "p", None)
        assert getattr(lazy, "reasons", None) == getattr(ref, "reasons", None)
        return
    assert (lazy.p, lazy.lam, lazy.perm) == (ref.p, ref.lam, ref.perm)
    assert np.array_equal(lazy.intervals, ref.intervals)


def _tower_sampled(f, depth, grid=64):
    """tower with each level's hulls taken over a symmetric grid sample of
    the central interval pushed through p_k - 1 steps."""
    levels, periods, scalings = [], [], []
    g, p_cum, lam_cum = f, 1, 1.0
    truncated_at, note = None, None
    for k in range(1, depth + 1):
        try:
            ren = renormalize(g)
        except (NotRenormalizable, DegenerateScaling, TruncationLoss,
                InvalidMap) as exc:
            truncated_at, note = k, f"{type(exc).__name__}: {exc}"
            break
        p_cum *= ren.step.p
        lam_cum *= ren.step.lam
        a = abs(lam_cum)
        pieces = _hulls(orbit_stack(f, _sample_symmetric(a, grid), p_cum - 1))
        _check_level_disjoint(pieces, k)
        if levels:
            _check_nesting(pieces, levels[-1], k)
        levels.append(pieces)
        periods.append(p_cum)
        scalings.append(lam_cum)
        g = ren.map
    return IntervalTower(levels=tuple(levels), periods=tuple(periods),
                         scalings=tuple(scalings), truncated_at=truncated_at,
                         note=note, kind="map")


def _assert_same_tower(f, depth):
    new, ref = _outcome(tower, f, depth), _outcome(_tower_sampled, f, depth)
    assert type(new) is type(ref)
    if isinstance(ref, RenormlabError):
        assert str(new) == str(ref)
        return
    assert new.depth == ref.depth
    assert all(np.array_equal(a, b) for a, b in zip(new.levels, ref.levels))
    assert (new.periods, new.scalings, new.truncated_at, new.note) == (
        ref.periods, ref.scalings, ref.truncated_at, ref.note)


@pytest.mark.parametrize("degree", [16, 24, 32, 48])
def test_tower_matches_the_sampled_hulls_at_the_fixed_point(degree):
    g = solve_fixed_point(degree=degree).map
    _assert_same_tower(g, 9)


def test_tower_matches_the_sampled_hulls_at_the_tripling_fixed_point(
        tripling_fixed_point):
    _assert_same_tower(tripling_fixed_point.map, 5)


@pytest.mark.parametrize(
    "c", [1.40115518909203, 1.40115, 1.3, 1.75, 1.75488, 1.9])
def test_tower_matches_the_sampled_hulls_on_quadratic_members(c):
    _assert_same_tower(fam.member(c, degree=24), 9)


@given(c=st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_tower_matches_the_sampled_hulls_across_the_family(c):
    _assert_same_tower(fam.member(c, degree=24), 4)
