import tracemalloc
from dataclasses import dataclass
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import chebyshev as cheb

from renormlab.errors import (CombinatoricsMismatch, DegenerateScaling,
                              InvalidMap, NotRenormalizable, OverlapError,
                              RenormlabError, TruncationLoss)
from renormlab import families as F
from renormlab.basis import normalized_constant, padded
from renormlab import renorm
from renormlab.maps import QuadraticFamily, UnimodalMap
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, INVARIANCE_TOL,
                              LAMBDA_FLOOR, P_MAX, IntervalTower, RenormStep,
                              _check_level_disjoint, _check_nesting,
                              _left_to_right, _orbit, _orbit_chain,
                              _pair_hulls, _test_one, _test_period,
                              detect, project_T, renormalize,
                              renormalize_with, scan_periods,
                              slopes, spatial_permutation, tower, tower_header,
                              tower_rows)
from renormlab.solver import (_sup_distance, derivative_matrix,
                              solve_fixed_point)

from conftest import C_INF
from oracles import (UncheckedMap, hulls_by_reduction, left_to_right_by_take,
                     over_the_full_vector, slope_products)

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


def test_renormalized_map_is_normalized_exactly():
    f = fam.member(1.3)
    rf, step = renormalize(f, detect(f))
    assert rf(0.0) == 1.0
    assert step.p == 2


def test_projection_residual_is_reported_small():
    f = fam.member(1.3)
    res = renormalize(f, detect(f))
    assert res.projection_residual < 1e-12


def test_fixed_point_is_fixed(fixed_point_24):
    g = fixed_point_24.map
    rg, _ = renormalize(g, detect(g))
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
    # Delta_{0,k} = [-|lam_k|, |lam_k|] is the longest piece of every level
    assert tower_8.depth == 8
    for k in range(1, tower_8.depth + 1):
        lengths = tower_8.lengths(k)
        assert lengths[0] == lengths.max()


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
    # the one-orbit detect is what the sampled test finds at every grid
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


def test_check_level_disjoint_refuses_touching_and_overlapping_pieces():
    """Pieces that touch (a gap of exactly 0.0) or overlap fail, worded by
    spatial_permutation with the level in front; disjoint pieces pass."""
    _check_level_disjoint(np.array([[0.5, 0.6], [-1.0, -0.2], [0.0, 0.4]]), 3)
    for right, by in [(0.5, "-0.000e+00"), (0.6, "1.000e-01")]:
        pieces = np.array([[0.5, 0.6], [-1.0, -0.2], [0.0, right]])
        with pytest.raises(OverlapError) as exc:
            _check_level_disjoint(pieces, 3)
        assert str(exc.value) == (
            f"level 3 pieces 2 and 0 overlap by {by}: "
            f"[0.0, {right}] vs [0.5, 0.6]")


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


def test_a_piece_1e_9_beyond_its_parent_escapes():
    """A child end 1e-11 beyond its parent's is nested, NESTING_TOL being
    1e-10, and 1e-9 beyond it escapes, on the left and on the right."""
    parent = np.array([[0.0, 0.5], [0.6, 1.0]])
    for end, sign in [(0, -1.0), (1, 1.0)]:
        for beyond, nested in [(1e-11, True), (1e-9, False)]:
            child = np.array([[0.7, 0.8], [0.0, 0.5]])
            child[1, end] += sign * beyond
            if nested:
                _check_nesting(child, parent, 2)
                continue
            with pytest.raises(OverlapError, match="level 2 piece"):
                _check_nesting(child, parent, 2)


_END = st.one_of(st.floats(-1, 1), st.sampled_from([0.0, -0.0, np.inf,
                                                    -np.inf, np.nan]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_END, _END), min_size=1, max_size=6),
       st.lists(st.tuples(_END, _END), min_size=1, max_size=12))
def test_check_nesting_matches_the_loop_on_any_ends(parents, children):
    """Ends drawn in any order, signed zeros, infinities and nan included:
    the binary search keeps the pairwise predicate, under which a nan end
    holds nothing."""
    parent, child = np.array(parents), np.array(children)
    messages = []
    for check in (_check_nesting, _check_nesting_loop):
        try:
            check(child, parent, 4)
            messages.append(None)
        except OverlapError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(min_value=1, max_value=64),
       c=st.floats(min_value=0.05, max_value=1.6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       z=st.floats(min_value=-1.1, max_value=1.1),
       n=st.integers(min_value=0, max_value=64))
def test_scalar_orbit_is_the_one_row_array_orbit(degree, c, seed, z, n):
    """_orbit rounds what numpy's chebval rounds, iterated: on Python
    floats, and on a one-row float64 array with the coefficients as an
    array or as a list, each compared as bytes with _chebval_orbit.

    The maps are family members plus a perturbation of every coefficient,
    small enough (1e-3 * 2.5^-k) that orbits from [-1.1, 1.1] stay
    bounded."""
    coeffs = np.array(fam.member(c, degree).coeffs)
    rng = np.random.default_rng(seed)
    coeffs += 1e-3 * rng.uniform(-1.0, 1.0, degree + 1) / 2.5 ** np.arange(
        degree + 1)
    f = UncheckedMap(coeffs)
    ref = _chebval_orbit(f, np.array([z]), n)
    scalar = _orbit(f.coeffs.tolist(), z, n)
    assert len(scalar) == n + 1 and all(type(x) is float for x in scalar)
    assert np.array(scalar).tobytes() == ref[:, 0].tobytes()
    for c in (f.coeffs, f.coeffs.tolist()):
        row = np.stack(_orbit(c, np.array([z]), n))
        assert row.dtype == ref.dtype and row.shape == ref.shape
        assert row.tobytes() == ref.tobytes()


def _chebval_orbit(f, z, n):
    """f^i(z), i = 0..n, stacked along a new first axis: numpy's chebval
    iterated, x <- chebval(2 x^2 - 1, c), an orbit computed without
    renorm."""
    zs = [np.asarray(z, dtype=float)]
    for _ in range(n):
        zs.append(cheb.chebval(2.0 * (zs[-1] * zs[-1]) - 1.0, f.coeffs))
    return np.stack(zs)


def _array_orbit(f, z, n):
    """f^i(z), i = 0..n, by _chebval_orbit on a one-row array; like the
    Python-float orbit, it may leave the finite floats without a
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _chebval_orbit(f, np.array([z]), n)[:, 0]


def _detect_upfront(f):
    """detect with f^p(0) computed to P_MAX before the period loop and each
    candidate tested by _test_period_reference on a one-row stack, whose
    verdict and ranks the batched _test_period must share.  Steps p + 1..2p
    of the stack come from an orbit of its own, started at |lam|, so
    detect's reading of them off the critical orbit is checked bit for
    bit."""
    reasons = {}
    lam_path = _array_orbit(f, 0.0, P_MAX)
    for p in range(2, P_MAX + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(
                f"f^{p}(0) = {lam:.3e} vanishes to working precision", p=p)
        ends = _array_orbit(f, abs(lam), p)
        z = np.concatenate([lam_path[:p + 1], ends[1:]])
        trial = _test_period_reference(z[:, None], p)
        ok, ranks = _test_period(z[:, None], p)
        assert ok[0] == (trial.fail[0] == 0)
        if trial.fail[0]:
            reasons[p] = _trial_reason(trial, 0)
            continue
        assert tuple(ranks[0]) == tuple(trial.ranks[0])
        return RenormStep(p=p, lam=lam, perm=trial.ranks[0],
                          intervals=trial.pieces[0])
    raise NotRenormalizable(
        f"no admissible period up to {P_MAX}", reasons=reasons)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RenormlabError as exc:
        return exc


@st.composite
def _candidate_orbits(draw, ps=st.integers(min_value=2, max_value=16)):
    """(z, p) for a candidate period p drawn from ps: a critical orbit
    z[i] = f^i(0), i = 0..2p, built from tip = z[:p + 1] and the endpoint
    orbit ends = z[p:], ends[i] = f^i(a) for i >= 1 with a = |tip[p]|.
    The points are first laid out admissibly, each piece i >= 1
    spanned by tip[i] and ends[i] and all of them apart from each other
    and from J = [-a, a]; then up to four points are replaced by a repeat
    of another point, a signed zero, inf or nan, which ties hull ends and
    left ends, tests which operand a tie keeps, and leaves the finite
    floats."""
    p = draw(ps)
    a = draw(st.floats(0.01, 0.5))
    cuts = sorted(draw(st.lists(st.floats(a, 1.5, exclude_min=True),
                                min_size=2 * p - 2, max_size=2 * p - 2,
                                unique=True)))
    pieces = [(lo, hi) if draw(st.booleans()) else (-hi, -lo)
              for lo, hi in zip(cuts[::2], cuts[1::2])]
    pieces = [pieces[i] for i in draw(st.permutations(range(p - 1)))]
    tip, ends = [0.0], [a]
    for piece in pieces:
        first = draw(st.booleans())
        tip.append(piece[not first])
        ends.append(piece[first])
    tip.append(a if draw(st.booleans()) else -a)
    ends.append(draw(st.floats(-a, a)))
    for _ in range(draw(st.integers(0, 4))):
        orbit = draw(st.sampled_from([tip, ends]))
        orbit[draw(st.integers(1, p))] = draw(
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, *tip[1:],
                             *ends[1:]]))
    return tip + ends[1:], p


@settings(max_examples=300, deadline=None)
@given(_candidate_orbits())
@example(([0.0, 0.0, -0.3, -0.0, 0.1], 2))  # a hull of two zeros
@example(([0.0, -0.0, -0.3, 0.0, 0.1], 2))
def test_one_map_period_test_is_the_batched_one(orbits):
    """_test_one against _test_period_reference on a one-row stack: the
    reasons agree byte for byte, and an admissible p has the same pieces,
    as bytes, and the same ranks, which are also _test_period's."""
    z, p = orbits
    with np.errstate(invalid="ignore", over="ignore"):
        ref = _test_period_reference(np.array(z)[:, None], p)
        ok, batched_ranks = _test_period(np.array(z)[:, None], p)
        reason, pieces, ranks = _test_one(z, p)
        assert reason == (_trial_reason(ref, 0) if ref.fail[0] else None)
    assert ok[0] == (reason is None)
    if reason is not None:
        return
    assert np.array(pieces, dtype=float).tobytes() == ref.pieces[0].tobytes()
    assert tuple(ranks) == tuple(ref.ranks[0]) == tuple(batched_ranks[0])


# first test a candidate period fails, in the order they run
_NEAR_ONE, _NOT_INVARIANT, _NOT_FINITE, _OVERLAP = 1, 2, 3, 4


@dataclass(frozen=True)
class _Trial:
    """Candidate period p tested on every row of a critical orbit stack."""

    p: int
    lam: np.ndarray       # (n,) f^p(0)
    fail: np.ndarray      # (n,) 0 for an admissible row, else the test code
    reach: np.ndarray     # (n,) max(|f^p(0)|, |f^2p(0)|)
    pieces: np.ndarray    # (n, p, 2) hulls of f^i(J), time order
    ranks: np.ndarray     # (n, p) spatial rank of each piece


def _test_period_reference(z, p):
    """The period test with the first test each row fails and its pieces,
    written apart from _test_period: the hulls of a 3-D stack of the tip
    orbit z[:p + 1] and the endpoint orbit z[p:] (whose row 0 only piece 0
    reads, and then overwrites), piece 0 set after, and the pieces
    gathered again to sort them.  A row fails at the first test it does
    not pass; only rows that pass the first three get pieces."""
    tip, ends = z[:p + 1], z[p:]
    lam = tip[p]
    n = lam.size
    a = np.abs(lam)
    t = _Trial(p=p, lam=lam,
               fail=np.where(a >= 1.0 - LAMBDA_FLOOR, _NEAR_ONE, 0),
               reach=np.maximum(a, np.abs(ends[p])),
               pieces=np.zeros((n, p, 2)), ranks=np.zeros((n, p), dtype=int))
    t.fail[(t.fail == 0) & (t.reach > a + INVARIANCE_TOL)] = _NOT_INVARIANT
    finite = np.isfinite(tip[1:p + 1]) & np.isfinite(ends[1:p + 1])
    t.fail[(t.fail == 0) & ~finite.all(axis=0)] = _NOT_FINITE
    rows = np.nonzero(t.fail == 0)[0]
    if rows.size:
        pieces = hulls_by_reduction(
            np.stack([tip[:p, rows], ends[:p, rows]], axis=-1))
        pieces[0] = np.stack([-a[rows], a[rows]], axis=-1)
        t.pieces[rows] = np.swapaxes(pieces, 0, 1)
        order, gaps = left_to_right_by_take(t.pieces[rows])
        t.fail[rows[np.any(gaps <= 0.0, axis=-1)]] = _OVERLAP
        t.ranks[rows] = np.argsort(order, axis=-1)
    return t


def _trial_reason(trial, i):
    """Why row i (a failed one) of a _test_period_reference trial failed,
    in detect's words."""
    code, p, a = trial.fail[i], trial.p, abs(trial.lam[i])
    if code == _NEAR_ONE:
        return f"|lam| = {a:.6f} too close to 1"
    if code == _NOT_INVARIANT:
        return (f"J not invariant: |f^{p}| reaches "
                f"{trial.reach[i]:.6e} > {a:.6e}")
    if code == _NOT_FINITE:
        return f"orbit not finite up to f^{p}"
    try:
        spatial_permutation(trial.pieces[i])
    except OverlapError as exc:
        return f"pieces overlap: {exc}"


@st.composite
def _orbit_stacks(draw):
    """(z, p): up to 12 rows of candidate critical orbits for one p in
    2..6, as a stack of shape (2p + 1, rows).  Most rows are
    _candidate_orbits (ties, signed zeros, inf and nan); the others are
    points drawn from a few values, so hull ends and left ends tie across
    pieces, and lam may lie near 1."""
    p = draw(st.integers(2, 6))
    values = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0 - 1e-9,
                              -1.0, np.inf, np.nan])
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            z, _ = draw(_candidate_orbits(ps=st.just(p)))
        else:
            z = [0.0] + draw(st.lists(values, min_size=2 * p,
                                      max_size=2 * p))
        rows.append(z)
    return np.array(rows).T, p


@settings(max_examples=300, deadline=None)
@given(_orbit_stacks())
def test_period_test_is_the_reference_as_bytes(stacks):
    """_test_period against the failure-code reference on many rows at
    once: ok is where the reference fails no test, and on those rows the
    ranks agree as bytes."""
    z, p = stacks
    with np.errstate(invalid="ignore", over="ignore"):
        ok, ranks = _test_period(z, p)
        want = _test_period_reference(z, p)
    assert ok.dtype == bool
    assert np.array_equal(ok, want.fail == 0)
    assert ranks[ok].tobytes() == want.ranks[ok].tobytes()


def _orbit_row(lam, pieces, last):
    """A critical orbit z[0..2p] whose lam is z[p], whose piece i >= 1 is
    the hull of pieces[i - 1], (z[i], z[p + i]) in that order, and whose
    step 2p is last."""
    tips, ends = zip(*pieces)
    return [0.0, *tips, lam, *ends, last]


# p = P_MAX: pieces 1..15 at positions k = -7..8, k != 0, as [k/16, k/16 +
# 1/32], in the order _SPREAD, and J = [-1/64, 1/64] at k = 0; every other
# piece runs right to left
_SPREAD = (3, -5, 7, 1, -2, 6, -7, 4, -1, 5, -4, 2, -6, -3, 8)
_WIDE = [(k / 16, k / 16 + 1 / 32)[::1 - 2 * (i % 2)]
         for i, k in enumerate(_SPREAD)]


@pytest.mark.parametrize("p, rows, admissible", [
    # p = P_MAX, apart; then piece 15 moved onto piece 2's left end, onto
    # piece 4's right end (touching) and across piece 1's right end
    (P_MAX, [_orbit_row(1 / 64, _WIDE, -1 / 128),
             _orbit_row(1 / 64, _WIDE[:-1] + [(-5 / 16, -0.3)], -1 / 128),
             _orbit_row(1 / 64, _WIDE[:-1] + [(3 / 32, 7 / 64)], -1 / 128),
             _orbit_row(1 / 64, _WIDE[:-1] + [(0.2, 0.22)], -1 / 128)],
     [True, False, False, False]),
    # two pieces with one left end, a zero gap between two pieces and
    # between a piece and J, and the same rows apart
    (3, [_orbit_row(0.1, [(0.3, 0.5), (0.4, 0.3)], 0.05),
         _orbit_row(0.1, [(0.5, 0.3), (0.5, 0.6)], 0.05),
         _orbit_row(-0.1, [(0.2, 0.1), (-0.5, -0.3)], 0.05),
         _orbit_row(0.1, [(0.3, 0.5), (0.6, 0.7)], 0.05)],
     [False, False, False, True]),
    # ends at -0.0: J = [-0.0, 0.0] from lam = -0.0, apart from both
    # pieces; touched by a piece ending at -0.0, one starting at 0.0 and
    # one starting at -0.0; a piece from -0.0 to 0.0 beside J
    (3, [_orbit_row(-0.0, [(0.2, 0.3), (-0.5, -0.4)], -0.0),
         _orbit_row(-0.0, [(-0.3, -0.0), (0.2, 0.3)], 0.0),
         _orbit_row(0.0, [(0.0, 0.3), (-0.5, -0.4)], -0.0),
         _orbit_row(0.0, [(0.3, -0.0), (-0.5, -0.4)], -0.0),
         _orbit_row(0.5, [(-0.0, 0.0), (0.6, 0.7)], 0.25)],
     [True, False, False, False, False]),
], ids=["p_max", "ties", "signed_zeros"])
def test_period_test_is_the_reference_on_ties_and_zeros(p, rows, admissible):
    """Cases _orbit_stacks does not reach: p = P_MAX, tied left ends, a
    zero gap and ends at -0.0.  Only the rows whose pieces are apart pass,
    and ok and the ranks on them are the reference's as bytes."""
    z = np.array(rows).T
    ok, ranks = _test_period(z, p)
    want = _test_period_reference(z, p)
    assert ok.tolist() == admissible
    assert ok.tobytes() == (want.fail == 0).tobytes()
    assert ranks[ok].tobytes() == want.ranks[ok].tobytes()
    if p == P_MAX:
        order = sorted(range(p), key=lambda i: ((0,) + _SPREAD)[i])
        assert ranks[0].tolist() == [order.index(i) for i in range(p)]


def test_a_non_finite_piece_end_fails_both_period_tests():
    """p = 3 with J = [-0.3, 0.3], the last step inside J and the pieces
    apart as far as their finite ends show, but one piece end nan or inf:
    only the finiteness test refuses these rows."""
    z = np.array([[0.0, 0.5, np.nan, -0.3, 0.6, 0.7, 0.2],
                  [0.0, 0.5, 0.8, -0.3, 0.6, np.inf, 0.2]]).T
    with np.errstate(invalid="ignore"):
        ok, _ = _test_period(z, 3)
    assert not ok.any()
    for row in z.T.tolist():
        assert _test_one(row, 3)[0] == "orbit not finite up to f^3"


def test_an_orbit_1e_9_outside_J_fails_as_not_invariant():
    """p = 2 with J = [-0.4, 0.4] and Delta_1 = [0.9, 1]: f^2(a) on -a is
    admissible, and 1e-9 beyond it fails as not invariant in both period
    tests, so the invariance guard alone tells the two orbits apart."""
    for end, admissible in [(-0.4, True), (-(0.4 + 1e-9), False)]:
        z = [0.0, 1.0, -0.4, 0.9, end]
        reason = _test_one(z, 2)[0]
        (ok,), _ = _test_period(np.array(z)[:, None], 2)
        assert ok == admissible
        if admissible:
            assert reason is None
        else:
            assert reason.startswith("J not invariant")
            trial = _test_period_reference(np.array(z)[:, None], 2)
            assert reason == _trial_reason(trial, 0)


def test_a_projection_residual_over_the_cap_raises(fixed_point_24):
    """The degree-24 fixed point renormalized at degree 4 leaves a fit
    residual of about 2e-7: small, but over PROJECTION_CAP, so renormalize
    refuses it and reports project_T's residual."""
    g = fixed_point_24.map
    _, residual = project_T(g, detect(g), 4)
    assert 1e-7 < residual < 1e-6
    with pytest.raises(TruncationLoss) as exc:
        renormalize(g, detect(g), degree=4)
    assert exc.value.residual == residual


def _assert_same_outcome(lazy, ref):
    """The same exception with the same reasons, or the same step bit for
    bit."""
    assert type(lazy) is type(ref)
    if isinstance(ref, RenormlabError):
        assert str(lazy) == str(ref)
        assert getattr(lazy, "p", None) == getattr(ref, "p", None)
        assert getattr(lazy, "reasons", None) == getattr(ref, "reasons", None)
        return
    assert (lazy.p, lazy.perm) == (ref.p, ref.perm)
    assert np.array_equal(lazy.lam, ref.lam)
    assert np.array_equal(lazy.intervals, ref.intervals)


# c = 1.0 degenerates at p = 2; from about 1.79 on most members are not
# renormalizable
@pytest.mark.parametrize(
    "c", [*np.linspace(1.0, 2.0, 41), 1.40115518909203, 1.75488, 1.76])
def test_detect_matches_the_upfront_orbit(c):
    f = fam.member(c, degree=24)
    _assert_same_outcome(_outcome(detect, f), _outcome(_detect_upfront, f))


def test_detect_matches_the_upfront_orbit_on_perturbed_maps():
    """Unchecked degree-24 maps, built as in
    test_scalar_orbit_is_the_one_row_array_orbit, across the whole family:
    every reason a candidate period can fail for occurs, and near c = 2
    some orbits leave the finite floats."""
    seen, escaped = set(), 0
    for c in np.linspace(0.05, 2.0, 40):
        for seed in range(4):
            coeffs = np.array(fam.member(c, 24).coeffs)
            rng = np.random.default_rng(seed)
            coeffs += 1e-3 * rng.uniform(-1.0, 1.0, 25) / 2.5 ** np.arange(25)
            f = UncheckedMap(coeffs)
            ref = _outcome(_detect_upfront, f)
            _assert_same_outcome(_outcome(detect, f), ref)
            seen |= {r.split(" ")[0]
                     for r in (getattr(ref, "reasons", None) or {}).values()}
            escaped += not np.all(np.isfinite(_array_orbit(f, 0.0, 16)))
    assert seen == {"|lam|", "J", "orbit", "pieces"}
    assert escaped


def test_detect_fails_a_candidate_with_a_non_finite_orbit():
    """The perturbed degree-24 member at c = 2 (seed 0, built as in
    test_detect_matches_the_upfront_orbit_on_perturbed_maps) overflows to
    inf and then nan before p = 16; detect must fail every candidate whose
    lam or pieces are not finite, not return a step with them."""
    coeffs = np.array(fam.member(2.0, 24).coeffs)
    rng = np.random.default_rng(0)
    coeffs += 1e-3 * rng.uniform(-1.0, 1.0, 25) / 2.5 ** np.arange(25)
    f = UncheckedMap(coeffs)
    assert not np.all(np.isfinite(_array_orbit(f, 0.0, 16)))
    step = _outcome(detect, f)
    if not isinstance(step, RenormlabError):
        assert np.isfinite(step.lam)
        assert np.all(np.isfinite(step.intervals))


def test_detect_matches_the_upfront_orbit_down_the_fixed_point_tower(
        fixed_point_24):
    g = fixed_point_24.map
    for _ in range(9):
        step = detect(g)
        _assert_same_outcome(step, _detect_upfront(g))
        g = renormalize(g, step).map


def test_tower_memory_is_linear_in_the_level(fixed_point_24):
    """Depth 13 of the fixed-point tower nests 8192 pieces in 4096; a
    parent-by-piece mask alone would take 33.5 MB, and the build stays
    under 2 MB."""
    tracemalloc.start()
    try:
        tw = tower(fixed_point_24.map, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tw.depth == 13 and tw.truncated_at is None
    assert peak < 2e6


def test_a_failing_level_keeps_only_the_stride_of_its_orbit():
    """At c = 1.4011551 level 11 has no admissible period up to 16, which
    takes f's critical orbit to step 32 p_10 = 32768 to show.  Only the
    steps up to 4 p_10, what the pieces of period 2 would need, and the
    stride p_10 beyond them are kept: the build peaks at about 0.22 MB,
    and at about 1.2 MB if the whole orbit is stored."""
    tracemalloc.start()
    try:
        tw = tower(fam.member(1.4011551), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tw.depth == 10 and tw.truncated_at == 11
    assert tw.note == "NotRenormalizable: no admissible period up to 16"
    assert peak < 5e5


def _tree(tw):
    return ([lv.tobytes() for lv in tw.levels], tw.periods, tw.scalings,
            tw.truncated_at, tw.note)


def test_tower_never_projects(monkeypatch, tower_9, fixed_point_24):
    """Each level's period is read off f's own critical orbit, so the
    tower neither renormalizes nor projects, and it builds the same trees
    without them: the fixed-point tower, and one at c = 1.40115 that
    truncates at level 9."""
    member = fam.member(1.40115, degree=24)
    want = tower(member, 9)
    assert want.truncated_at == 9

    def refuse(*args, **kwargs):
        raise AssertionError("tower projected a level")

    monkeypatch.setattr(renorm, "renormalize", refuse)
    monkeypatch.setattr(renorm, "project_T", refuse)
    assert _tree(tower(fixed_point_24.map, 9)) == _tree(tower_9)
    assert _tree(tower(member, 9)) == _tree(want)


def test_the_fixed_point_tower_nests_to_depth_16(fixed_point_24):
    """Level k reads lam_k = f^{p_k}(0) and its pieces off the critical
    orbit, so piece i of level k lies in piece i mod p_{k-1} of level k - 1
    with no tolerance.  A lam_k multiplied up from the renormalizations'
    scalings drifts from f^{p_k}(0) (1.3e-4 relative at level 15), and
    level 16 then escapes level 15."""
    tw = tower(fixed_point_24.map, 16)
    assert tw.depth == 16 and tw.truncated_at is None
    assert tw.periods == tuple(2**k for k in range(1, 17))
    for k in range(2, 17):
        child, parent = tw.level(k), tw.level(k - 1)
        parent = parent[np.arange(len(child)) % len(parent)]
        assert np.all(parent[:, 0] <= child[:, 0])
        assert np.all(child[:, 1] <= parent[:, 1])


def test_the_c_inf_tower_has_the_exact_combinatorics_to_depth_16():
    """The float tower at c = C_INF against the same map, 1 - c x^2 (1 - c/2
    is exact in floats), iterated in 128-bit mpmath: at every level to 16
    the exact pieces are disjoint and lie in the float pieces' spatial
    order, so each level doubles as in the exact tower, although from
    level 14 on a float end is off by more than the smallest gap.  Deeper,
    nothing bounds the float orbit's roundoff: at level 20 it reads period
    3 where the exact orbit admits period 2."""
    tw = tower(fam.member(C_INF), 16)
    assert tw.depth == 16 and tw.truncated_at is None
    assert tw.periods == tuple(2**k for k in range(1, 17))
    with mpmath.workprec(128):
        c, x, z = mpmath.mpf(C_INF), mpmath.mpf(0), [0.0]
        for _ in range(2**17):
            x = 1 - c * x * x
            z.append(float(x))
    z = np.array(z)
    for k, p in enumerate(tw.periods, 1):
        exact = np.sort(np.stack([z[:p], z[p:2 * p]], -1), axis=-1)
        exact[0] = -abs(z[p]), abs(z[p])
        _check_level_disjoint(exact, k)
        assert np.array_equal(np.argsort(exact[:, 0]),
                              np.argsort(tw.level(k)[:, 0]))


def _tower_sampled(f, depth, grid=64):
    """tower with each level's hulls taken over a symmetric grid sample of
    the central interval pushed through p_k - 1 steps, lam_k = f^{p_k}(0)
    from _chebval_orbit.  p_k comes from detect on the projected
    renormalizations, projected as renormalize does but with no cap on the
    residual: tower projects nothing, so renormalize's TruncationLoss is no
    truncation of it (at c = 1.4324975339664014 the period-9 level's
    residual sits at 1.0e-10..1.2e-10 at every degree 24..64)."""
    levels, periods, scalings = [], [], []
    g, p_cum = f, 1
    truncated_at, note = None, None
    for k in range(1, depth + 1):
        try:
            step = detect(g)
            degree = max(g.degree, renorm.DEFAULT_DEGREE)
            coeffs, _ = project_T(g, step, degree)
            g_next = UnimodalMap(normalized_constant(coeffs))
        except (NotRenormalizable, DegenerateScaling, InvalidMap) as exc:
            truncated_at, note = k, f"{type(exc).__name__}: {exc}"
            break
        p_cum *= step.p
        lam = float(_array_orbit(f, 0.0, p_cum)[-1])
        a = abs(lam)
        pieces = hulls_by_reduction(
            _chebval_orbit(f, _sample_symmetric(a, grid), p_cum - 1))
        _check_level_disjoint(pieces, k)
        if levels:
            _check_nesting(pieces, levels[-1], k)
        levels.append(pieces)
        periods.append(p_cum)
        scalings.append(lam)
        g = g_next
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
@example(c=1.4324975339664014)
@settings(max_examples=60, deadline=None)
def test_tower_matches_the_sampled_hulls_across_the_family(c):
    _assert_same_tower(fam.member(c, degree=24), 4)


# ---------------------------------------------------------------------------
# the sampled period test, kept as the reference for the one-orbit one


@dataclass(frozen=True)
class _LevelRows:
    """Rows of one family level for the sampled test, in f_c's
    coordinates: row i is g(x) = f_c^P(lam x)/lam with c = c[i] and
    lam = f_c^P(0), iterated from scratch by the step 1.0 - c * x * x."""

    c: np.ndarray
    P: int

    def __len__(self):
        return self.c.size

    def __getitem__(self, rows):
        return _LevelRows(self.c[rows], self.P)

    def orbit(self, x, n):
        """f_c^k(x), k = 0..n, stacked along a new first axis; row i of x
        is iterated with c[i]."""
        c = self.c[:, None]
        zs = [x]
        for _ in range(n):
            x = 1.0 - c * x * x
            zs.append(x)
        return np.stack(zs)

    def slopes(self, x):
        """f_c'(x) = -2 c x, row i of the last-but-one axis with c[i]."""
        return -2.0 * self.c[:, None] * x

    @property
    def lam(self):
        return self.orbit(np.zeros((len(self), 1)), self.P)[-1, :, 0]


def _members(cs):
    """The quadratic members at cs as the family's level 0."""
    return F._level_zero(fam, np.asarray(cs, dtype=float))[1]


class _OneRow(UnimodalMap):
    """One map as a one-row level with P = 1 and lam = 1: phi and phi' act
    elementwise, so every selection of its rows is the map itself."""

    P = 1

    def __len__(self):
        return 1

    def __getitem__(self, rows):
        return self

    def orbit(self, x, n):
        return _chebval_orbit(self, x, n)

    def slopes(self, x):
        return slopes(self, x)

    @property
    def lam(self):
        return np.ones(1)


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


def _test_period_sampled(f, zp, p, grid=64):
    """Period p of the level rows f tested on a grid sample, in f's
    coordinates: J = [-|zp|, |zp|] with zp = f^(pP)(0) per row, plus the
    tip, pushed through pP steps and read at every P-th step divided by
    lam = f^P(0): |zp/lam| away from 1, J invariant under f^(pP) on the
    sample, one sign change of (f^(pP))' on the sample, and the sampled
    hulls, divided by lam, pairwise disjoint.  fail is 0 on admissible
    rows and nonzero elsewhere."""
    n, P, lam = len(f), f.P, f.lam
    a = np.abs(zp / lam)
    fail = np.where(a >= 1.0 - LAMBDA_FLOOR, 1, 0)
    pieces, ranks = np.zeros((n, p, 2)), np.zeros((n, p), dtype=int)
    rows = np.nonzero(fail == 0)[0]
    if rows.size:
        xs = f[rows].orbit(_sample_symmetric(np.abs(zp[rows]), grid), p * P)
        reach = np.max(np.abs(xs[p * P] / lam[rows, None]), axis=-1)
        bad = reach > a[rows] + INVARIANCE_TOL
        fail[rows[bad]] = 2
        rows, xs = rows[~bad], xs[:, ~bad]
    if rows.size:
        flips = _sign_changes(
            np.sign(np.prod(f[rows].slopes(xs[:p * P]), axis=0)))
        bad = flips != 1
        fail[rows[bad]] = 3
        rows, xs = rows[~bad], xs[:, ~bad]
    if rows.size:
        hulls = hulls_by_reduction(xs[:p * P:P]) / lam[rows, None]
        pieces[rows] = np.sort(np.swapaxes(hulls, 0, 1), axis=-1)
        order, gaps = left_to_right_by_take(pieces[rows])
        fail[rows[np.any(gaps <= 0.0, axis=-1)]] = 4
        ranks[rows] = np.argsort(order, axis=-1)
    return fail, pieces, ranks


def _scan_periods_sampled(f, q, grid=64):
    """Entry q of scan_periods by the sampled period test on the level
    rows f: (lam, degenerate, rows, (fail, pieces, ranks) at q), f's
    critical orbit computed from scratch and read at every P-th step
    divided by lam."""
    z = f.orbit(np.zeros((len(f), 1)), q * f.P)[..., 0]
    lam_path = z[::f.P] / f.lam
    degenerate = rows = np.arange(len(f) if q >= 2 else 0)
    for p in range(2, q + 1):
        small = np.abs(lam_path[p, rows]) <= LAMBDA_FLOOR
        degenerate, rows = rows[small], rows[~small]
        if p < q:
            fail, _, _ = _test_period_sampled(f[rows], z[p * f.P, rows], p,
                                              grid)
            rows = rows[fail != 0]
    return (lam_path[q], degenerate, rows,
            _test_period_sampled(f[rows], z[q * f.P, rows], q, grid))


def _detect_sampled(f, grid=64):
    """detect with the sampled period test (reasons are not kept)."""
    row = _OneRow(f.coeffs)
    lam_path = _array_orbit(f, 0.0, P_MAX)
    for p in range(2, P_MAX + 1):
        lam = float(lam_path[p])
        if abs(lam) <= LAMBDA_FLOOR:
            raise DegenerateScaling(f"f^{p}(0) = {lam:.3e}", p=p)
        fail, pieces, ranks = _test_period_sampled(row, np.array([lam]), p,
                                                   grid)
        if not fail[0]:
            return RenormStep(p=p, lam=lam, perm=ranks[0],
                              intervals=pieces[0])
    raise NotRenormalizable(f"no admissible period up to {P_MAX}")


def _assert_scan_matches_sampled(f, z, q, grid=64):
    """scan_periods(z, q)[q] against the sampled scan of the level rows f,
    z being their critical orbits in the level's coordinates: the same
    lam, the same degenerate rows and live rows, the same admissible rows
    at q, and on them bit-identical ranks, and pieces of
    _test_period_reference on the same rows."""
    degenerate, rows, ok, ranks = scan_periods(z, q)[q]
    ref_lam, ref_degenerate, ref_rows, (fail, ref_pieces, ref_ranks) = (
        _scan_periods_sampled(f, q, grid))
    assert np.array_equal(z[q], ref_lam)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(ok, fail == 0)
    pieces = _test_period_reference(z[:2 * q + 1, rows], q).pieces
    assert np.array_equal(pieces[ok], ref_pieces[ok])
    assert np.array_equal(ranks[ok], ref_ranks[ok])
    return int(ok.sum())


def _assert_level_matches_sampled(g, q, grid=64):
    """_assert_scan_matches_sampled on the family level g: scan_periods
    reads g's critical orbit to step 2q, and the sampled scan iterates
    f_c from scratch at g's parameters and P."""
    return _assert_scan_matches_sampled(_LevelRows(g.c, g.P),
                                        g.extended(2 * q).orbit, q, grid)


@given(cs=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1,
                   max_size=64),
       q=st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_scan_periods_matches_the_sampled_test_on_quadratic_members(cs, q):
    _assert_level_matches_sampled(_members(cs), q)


def test_scan_periods_matches_the_sampled_test_on_a_dense_sweep():
    g = _members(np.linspace(0.5, 2.0, 3001))
    admitted = [_assert_level_matches_sampled(g, q) for q in range(2, 9)]
    assert min(admitted[:4]) > 0


def test_scan_periods_matches_the_sampled_test_inside_the_nested_chase():
    # the exact family levels classify renormalizes, level by level, in
    # the brackets the (doubling, tripling) chase scans down to depth 4
    prefix = [THETA_DOUBLING, THETA_TRIPLING] * 2
    bracket, admitted = F.DEFAULT_BRACKET, []
    for depth in range(1, 5):
        g = _members(np.linspace(*bracket, 513))
        for theta in prefix[:depth]:
            admitted += [_assert_level_matches_sampled(g, q)
                         for q in range(2, 5)]
            _, g = g.renormalize_each([theta])[0]
        assert g.c.size and g.P == 2 ** ((depth + 1) // 2) * 3 ** (depth // 2)
        bracket = F._window_for_prefix(fam, prefix[:depth], bracket)
    assert sum(admitted) > 0


def _assert_scan_entries_are_scan_periods(g, q):
    """Every entry p of scan_periods on the family level g's critical
    orbit to step 2q is entry p on its orbit to step 2p, as bytes: the
    degenerate and live rows, the verdicts and the ranks.  Returns the
    number of rows admissible at some p."""
    scan = scan_periods(g.extended(2 * q).orbit, q)
    assert list(scan) == list(range(2, q + 1))
    admitted = 0
    for p, entry in scan.items():
        ref = scan_periods(g.extended(2 * p).orbit, p)[p]
        for got, want in zip(entry, ref):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        admitted += int(np.count_nonzero(entry[2]))
    return admitted


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_each_scan_entry_is_scan_periods_on_member_grids(q):
    g = _members(np.r_[np.linspace(0.5, 2.0, 1501),
                       1.7548776662466927, 1.0, 1.3107026413368328])
    assert _assert_scan_entries_are_scan_periods(g, q) > 0


def test_each_scan_entry_is_scan_periods_inside_the_nested_chase():
    # the levels the (doubling, tripling) chase classifies, on the grids
    # of its brackets down to depth 4
    prefix = [THETA_DOUBLING, THETA_TRIPLING] * 2
    bracket, admitted = F.DEFAULT_BRACKET, 0
    for depth in range(1, 5):
        g = _members(np.linspace(*bracket, 129))
        for theta in prefix[:depth]:
            admitted += _assert_scan_entries_are_scan_periods(g, 5)
            _, g = g.renormalize_each([theta])[0]
        bracket = F._window_for_prefix(fam, prefix[:depth], bracket)
    assert admitted > 0


def test_period_test_matches_the_sampled_test_at_the_fixed_points(
        fixed_point_24, tripling_fixed_point):
    for fp in (fixed_point_24, tripling_fixed_point):
        g = fp.map
        for q in range(2, 9):
            _assert_scan_matches_sampled(
                _OneRow(g.coeffs), _chebval_orbit(g, np.zeros(1), 2 * q), q)
        step, ref = detect(g), _detect_sampled(g)
        assert (step.p, step.lam, step.perm) == (ref.p, ref.lam, ref.perm)
        assert np.array_equal(step.intervals, ref.intervals)


# ---------------------------------------------------------------------------
# a map's zero top is invisible: every evaluation runs over its series,
# and gives the bytes of a pass over the whole padded vector


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("which", ["doubling", "tripling"])
def test_the_series_of_a_padded_fixed_point_is_its_degree_12_vector(
        which, degree_12_fixed_points):
    c = degree_12_fixed_points[which]
    assert c.size == 13 and c[-1] != 0.0
    for degree in (24, 48):
        g = UnimodalMap(padded(c, degree))
        assert g.degree == degree and g.coeffs.size == degree + 1
        assert _same_bytes(g.series, c)


@pytest.fixture(scope="module", params=[("doubling", 24), ("doubling", 48),
                                        ("tripling", 24), ("tripling", 48)],
                ids=lambda param: f"{param[0]}{param[1]}")
def padded_pair(request, degree_12_fixed_points):
    """(g, ref): a degree-12 fixed point padded to 24 or 48, and the same
    map evaluated over its whole coefficient vector."""
    which, degree = request.param
    g = UnimodalMap(padded(degree_12_fixed_points[which], degree))
    ref = over_the_full_vector(g)
    assert g.series.size == 13 and ref.series.size == degree + 1
    return g, ref


def test_detect_over_the_series_is_detect_over_the_padded_vector(
        padded_pair):
    got, want = (detect(h) for h in padded_pair)
    assert got.p == want.p and got.perm == want.perm
    assert _same_bytes(got.lam, want.lam)
    assert _same_bytes(got.intervals, want.intervals)


def test_tower_over_the_series_is_the_tower_over_the_padded_vector(
        padded_pair):
    got, want = (tower(h, 9) for h in padded_pair)
    assert got.depth == want.depth == 9
    assert got.periods == want.periods
    assert _same_bytes(got.scalings, want.scalings)
    assert all(_same_bytes(a, b) for a, b in zip(got.levels, want.levels))


def test_projection_over_the_series_is_the_one_over_the_padded_vector(
        padded_pair):
    g, ref = padded_pair
    step = detect(g)
    (got, got_res), (want, want_res) = (project_T(h, step, g.degree)
                                        for h in padded_pair)
    assert _same_bytes(got, want) and _same_bytes(got_res, want_res)


def test_derivative_matrix_over_the_series_is_the_padded_one(padded_pair):
    g, ref = padded_pair
    step = detect(g)
    assert _same_bytes(derivative_matrix(g, step),
                       derivative_matrix(ref, step))


def test_sup_distance_over_the_series_is_the_padded_one(padded_pair):
    """Against g's renormalization, whose top is nonzero, and a family
    member, whose series has length 2, in both orders."""
    g, ref = padded_pair
    for h in (renormalize(g, detect(g)).map, fam.member(1.4, g.degree)):
        full = over_the_full_vector(h)
        assert _same_bytes(_sup_distance(h, g), _sup_distance(full, ref))
        assert _same_bytes(_sup_distance(g, h), _sup_distance(ref, full))


# ---------------------------------------------------------------------------
# the tower's products and hulls, written out, against numpy's general
# routines (tests/oracles.py), as bytes: signed zeros, infinities, nan,
# subnormals and tied ends included

_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
          2.2250738585072009e-308, 1.0, -1.0]
_values = st.one_of(st.sampled_from(_EDGES), st.floats())


@st.composite
def _stacks(draw, tail):
    """(p, tail...) float64 stacks, p = 1..6."""
    p = draw(st.integers(min_value=1, max_value=6))
    return draw(hnp.arrays(np.float64, (p,) + tail, elements=_values))


@given(data=st.data(),
       tail=st.sampled_from([(), (1,), (4,), (2, 3)]))
@settings(max_examples=200, deadline=None)
def test_the_slope_products_are_cumprods(data, tail):
    """_orbit_chain's dk, its slopes replaced by any stack s of p rows
    (0-d rows included), is np.cumprod of (1, s_0, .., s_{p-2})."""
    s = data.draw(_stacks(tail))
    f = fam.member(1.4)
    with (mock.patch.object(renorm, "slopes", lambda f, z: s.copy()),
          np.errstate(all="ignore")):
        dk = _orbit_chain(f, np.zeros(tail), len(s))[3]
        want = slope_products(s)
    assert _same_bytes(dk, want)


@given(data=st.data(), tail=st.sampled_from([(), (3,)]))
@settings(max_examples=200, deadline=None)
def test_the_pair_hulls_are_the_reductions_over_the_pairs(data, tail):
    """_pair_hulls(a, b), on the 1-d orbit slices tower gives it and on
    (p, 3) stacks, is the min and max over the last axis of the stack of
    (a, b), with b tied to a wherever tie holds: as bytes, apart from the
    payload and sign of a nan.  A reduction that meets a nan first
    returns numpy's default nan, where np.minimum and np.maximum keep the
    operand's.  tower's hull ends are finite: its period test certifies
    the orbit finite to the level's last step, and an orbit that leaves
    the finite floats never returns to them (a Clenshaw step on inf or
    nan gives inf or nan)."""
    a = data.draw(_stacks(tail))
    b = data.draw(hnp.arrays(np.float64, a.shape, elements=_values))
    tie = data.draw(hnp.arrays(np.bool_, a.shape))
    b[tie] = a[tie]
    with np.errstate(all="ignore"):
        got = _pair_hulls(a, b)
        want = hulls_by_reduction(np.stack([a, b], axis=-1))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got[nan] = want[nan] = np.nan
    assert _same_bytes(got, want)


@given(pieces=_stacks((2,)))
@settings(max_examples=200, deadline=None)
def test_left_to_right_is_the_sort_by_take_along_axis(pieces):
    with np.errstate(all="ignore"):
        order, gaps = _left_to_right(pieces)
        want_order, want_gaps = left_to_right_by_take(pieces)
    assert _same_bytes(order, want_order) and _same_bytes(gaps, want_gaps)
