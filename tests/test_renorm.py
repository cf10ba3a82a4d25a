from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab.errors import (CombinatoricsMismatch, DegenerateScaling,
                              InvalidMap, NotRenormalizable, OverlapError,
                              RenormlabError, TruncationLoss)
from renormlab import families as F
from renormlab.maps import QuadraticFamily, UnimodalMap
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, INVARIANCE_TOL,
                              LAMBDA_FLOOR, IntervalTower, RenormStep,
                              _check_level_disjoint, _check_nesting, _hulls,
                              _left_to_right, _test_period, central_dominance,
                              detect, orbit_stack, renormalize,
                              renormalize_with, scan_periods,
                              slopes, spatial_permutation, tower, tower_header,
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
    # the two-orbit detect is what the sampled test finds at every grid
    for c in (1.2, 1.35, 1.76):
        f = fam.member(c)
        step = detect(f)
        for grid in (64, 256):
            ref = _detect_sampled(f, grid=grid)
            assert (step.p, step.lam, step.perm) == (ref.p, ref.lam, ref.perm)
            assert np.array_equal(step.intervals, ref.intervals)


def test_rejected_candidates_fail_as_overlaps_not_as_unimodality():
    with pytest.raises(NotRenormalizable) as err:
        detect(fam.member(1.545, degree=24))
    assert err.value.reasons[14].startswith("pieces overlap")
    for c in np.linspace(1.0, 2.0, 201):
        out = _outcome(detect, fam.member(float(c), degree=24))
        for reason in getattr(out, "reasons", {}).values():
            assert "unimodal" not in reason


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


def _detect_upfront(f, p_max=16):
    """detect on a checked map, with f^p(0) computed to p_max before the
    period loop."""
    reasons = {}
    lam_path = orbit_stack(f, 0.0, p_max)
    for p in range(2, p_max + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        ends = orbit_stack(f, abs(lam), p)
        trial = _test_period(lam_path[:p + 1, None], ends[:, None], p)
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


# ---------------------------------------------------------------------------
# the sampled period test, kept as the reference for the two-orbit one


@dataclass(frozen=True)
class _LevelRows(F.FamilyLevel):
    """FamilyLevel rows with the phi' the sampled test reads, by the chain
    rule over the P - 1 steps: phi'(u) = -c lam prod_j f_c'(x_j) with
    x_0 = 1 - c lam^2 u, x_(j+1) = f_c(x_j)."""

    def phi_deriv(self, u):
        c, lam = self.c[:, None], self.lam[:, None]
        x = 1.0 - c * (lam * lam) * u
        d = -c * lam
        for _ in range(self.P - 1):
            d = d * (-2.0 * c * x)
            x = 1.0 - c * x * x
        return d


def _members(cs):
    """The quadratic members at cs as level-0 rows."""
    cs = np.asarray(cs, dtype=float)
    return _LevelRows(c=cs, P=1, lam=np.ones(cs.size))


class _OneRow(UnimodalMap):
    """One map as a one-row view: phi and phi' act elementwise, so every
    selection of its rows is the map itself."""

    def __len__(self):
        return 1

    def __getitem__(self, rows):
        return self


def _sample_symmetric(a, grid):
    """Points of [-a, a] for each entry of a: the grid with both endpoints,
    then the tip 0 appended last."""
    a = np.asarray(a, dtype=float)
    xs = np.linspace(-a, a, grid, axis=-1)
    return np.concatenate([xs, np.zeros(a.shape + (1,))], axis=-1)


def _sign_changes(s):
    """Sign changes along the last axis between consecutive nonzero
    entries (zeros skipped), per row."""
    pos = np.arange(s.shape[-1])
    last = np.maximum.accumulate(np.where(s != 0.0, pos, 0), axis=-1)
    prev = np.take_along_axis(s, last[..., :-1], axis=-1)
    nxt = s[..., 1:]
    return np.count_nonzero((nxt != 0.0) & (prev != 0.0) & (nxt != prev),
                            axis=-1)


def _test_period_sampled(f, lam, p, grid=64):
    """Period p tested on a grid sample of J = [-|lam|, |lam|] plus the tip:
    |lam| away from 1, J invariant under f^p on the sample, one sign change
    of (f^p)' on the sample, sampled hulls pairwise disjoint.  fail is 0 on
    admissible rows and nonzero elsewhere."""
    n = lam.size
    a = np.abs(lam)
    fail = np.where(a >= 1.0 - LAMBDA_FLOOR, 1, 0)
    pieces, ranks = np.zeros((n, p, 2)), np.zeros((n, p), dtype=int)
    rows = np.nonzero(fail == 0)[0]
    if rows.size:
        zs = orbit_stack(f[rows], _sample_symmetric(a[rows], grid), p)
        bad = np.max(np.abs(zs[p]), axis=-1) > a[rows] + INVARIANCE_TOL
        fail[rows[bad]] = 2
        rows, zs = rows[~bad], zs[:, ~bad]
    if rows.size:
        flips = _sign_changes(
            np.sign(np.prod(slopes(f[rows], zs[:p]), axis=0)))
        bad = flips != 1
        fail[rows[bad]] = 3
        rows, zs = rows[~bad], zs[:, ~bad]
    if rows.size:
        pieces[rows] = np.swapaxes(_hulls(zs[:p]), 0, 1)
        order, gaps = _left_to_right(pieces[rows])
        fail[rows[np.any(gaps <= 0.0, axis=-1)]] = 4
        ranks[rows] = np.argsort(order, axis=-1)
    return fail, pieces, ranks


def _scan_periods_sampled(f, q, grid=64):
    """scan_periods with the sampled period test: (lam, degenerate, rows,
    (fail, pieces, ranks) at q)."""
    lam_path = orbit_stack(f, np.zeros((len(f), 1)), q)[..., 0]
    degenerate = rows = np.arange(len(f) if q >= 2 else 0)
    for p in range(2, q + 1):
        small = np.abs(lam_path[p, rows]) <= LAMBDA_FLOOR
        degenerate, rows = rows[small], rows[~small]
        if p < q:
            fail, _, _ = _test_period_sampled(f[rows], lam_path[p, rows], p,
                                              grid)
            rows = rows[fail != 0]
    return (lam_path[q], degenerate, rows,
            _test_period_sampled(f[rows], lam_path[q, rows], q, grid))


def _detect_sampled(f, p_max=16, grid=64):
    """detect with the sampled period test (reasons are not kept)."""
    row = _OneRow(f.coeffs, f.basis)
    lam_path = orbit_stack(f, 0.0, p_max)
    for p in range(2, p_max + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(f"f^{p}(0) = {lam:.3e}", p=p)
        fail, pieces, ranks = _test_period_sampled(row, np.array([lam]), p,
                                                   grid)
        if not fail[0]:
            return RenormStep(p=p, lam=lam, perm=ranks[0],
                              intervals=pieces[0])
    raise NotRenormalizable(f"no admissible period up to {p_max}")


def _assert_scan_matches_sampled(g, q, grid=64):
    """scan_periods(g, q) against the sampled scan: the same lam, the same
    degenerate rows and live rows, the same admissible rows at q, and on
    them bit-identical pieces and ranks."""
    lam, degenerate, rows, trial = scan_periods(g, q)
    ref_lam, ref_degenerate, ref_rows, (fail, pieces, ranks) = (
        _scan_periods_sampled(g, q, grid))
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(rows, ref_rows)
    ok = trial.fail == 0
    assert np.array_equal(ok, fail == 0)
    assert np.array_equal(trial.pieces[ok], pieces[ok])
    assert np.array_equal(trial.ranks[ok], ranks[ok])
    return int(ok.sum())


@given(cs=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1,
                   max_size=64),
       q=st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_scan_periods_matches_the_sampled_test_on_quadratic_members(cs, q):
    _assert_scan_matches_sampled(_members(cs), q)


def test_scan_periods_matches_the_sampled_test_on_a_dense_sweep():
    g = _members(np.linspace(0.5, 2.0, 3001))
    admitted = [_assert_scan_matches_sampled(g, q) for q in range(2, 9)]
    assert min(admitted[:4]) > 0


def test_scan_periods_matches_the_sampled_test_inside_the_nested_chase():
    # the exact family levels classify renormalizes, level by level, in
    # the brackets the (doubling, tripling) chase scans down to depth 4
    prefix = [THETA_DOUBLING, THETA_TRIPLING] * 2
    bracket, admitted = F.DEFAULT_BRACKET, []
    for depth in range(1, 5):
        g = _members(np.linspace(*bracket, 513))
        for theta in prefix[:depth]:
            admitted += [_assert_scan_matches_sampled(g, q)
                         for q in range(2, 5)]
            _, g = g.renormalize(theta)
        assert len(g) and g.P == 2 ** ((depth + 1) // 2) * 3 ** (depth // 2)
        bracket = F._window_for_prefix(fam, prefix[:depth], bracket)
    assert sum(admitted) > 0


def test_period_test_matches_the_sampled_test_at_the_fixed_points(
        fixed_point_24, tripling_fixed_point):
    for fp in (fixed_point_24, tripling_fixed_point):
        g = fp.map
        for q in range(2, 9):
            _assert_scan_matches_sampled(_OneRow(g.coeffs, g.basis), q)
        step, ref = detect(g), _detect_sampled(g)
        assert (step.p, step.lam, step.perm) == (ref.p, ref.lam, ref.perm)
        assert np.array_equal(step.intervals, ref.intervals)
