import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from renormlab.cli import main
from renormlab.errors import DomainError, InvalidMap
from renormlab.maps import (NORMALIZATION_TOL, RANGE_TOL, MapDiagnostics,
                            QuadraticFamily, UnimodalMap, validate)

EPS = np.finfo(float).eps


def quadratic_map(c, degree=1):
    return QuadraticFamily().member(c, degree=degree)


def test_normalization_holds_exactly():
    f = quadratic_map(1.4)
    assert f(0.0) == 1.0
    assert f.phi(0.0) == 1.0


def test_evaluation_matches_closed_form():
    f = quadratic_map(1.3)
    xs = np.linspace(-1, 1, 41)
    want = 1.0 - 1.3 * xs**2
    got = np.array([f(x) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-14


def test_domain_is_clamped_with_slack():
    f = quadratic_map(1.5)
    assert f(1.0 + 1e-10) == pytest.approx(f(1.0), abs=1e-9)
    with pytest.raises(DomainError):
        f(1.1)


def test_nan_is_outside_the_domain():
    f = quadratic_map(1.4)
    with pytest.raises(DomainError, match="nan"):
        f(float("nan"))
    with pytest.raises(DomainError, match="nan"):
        f(np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        f(2.0)


def test_increasing_phi_is_rejected():
    # phi(u) = 1 + u grows, so f has a minimum at 0 instead of a maximum
    with pytest.raises(InvalidMap):
        UnimodalMap(np.array([1.5, 0.5]))


def test_unnormalized_map_is_rejected():
    with pytest.raises(InvalidMap):
        UnimodalMap(np.array([0.7, -0.4]))


@pytest.mark.parametrize("offset", [1e-9, -1e-9])
def test_normalization_off_by_1e_9_is_rejected(offset):
    # T_0 = 1 shifts phi(0) by offset; at -1e-9 the range stays inside
    # [-1, 1], so only the normalization guard can refuse the map
    coeffs = quadratic_map(1.4, degree=4).coeffs + offset * np.eye(5)[0]
    diag = validate(coeffs)
    assert diag.normalization_residual == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(InvalidMap):
        UnimodalMap(coeffs)


def test_range_just_below_minus_one_is_rejected():
    # phi(u) = 1 - c u with c = 2 + 1e-9: normalized and decreasing, but
    # phi(1) = -1 - 1e-9, so only the range guard can refuse the map
    c = 2.0 + 1e-9
    coeffs = np.array([1.0 - c / 2, -c / 2])
    diag = validate(coeffs)
    assert diag.normalization_residual <= 1e-15
    assert diag.monotonicity_margin > 0
    assert diag.range_min == pytest.approx(-1.0 - 1e-9, abs=1e-15)
    with pytest.raises(InvalidMap):
        UnimodalMap(coeffs)


def test_diagnostics_fields_on_good_map():
    diag = validate(quadratic_map(1.4).coeffs)
    assert diag.ok
    assert diag.normalization_residual < 1e-12
    assert diag.monotonicity_margin > 0
    assert -1.0 <= diag.range_min and diag.range_max <= 1.0


def test_json_roundtrip_is_bit_exact():
    f = quadratic_map(1.3737, degree=8)
    g = UnimodalMap.from_json(f.to_json())
    assert g.to_json() == f.to_json()
    assert np.array_equal(g.coeffs, f.coeffs)


@pytest.mark.parametrize("edit", [
    {"basis": "monomial-u"},
    {"basis": "chebyshev"},
    {"basis": None},
    {"coeffs": "abc"},
    {"degree": 4.5},
])
def test_from_json_rejects_unknown_values(edit):
    payload = json.loads(quadratic_map(1.3, degree=4).to_json())
    payload.update(edit)
    with pytest.raises(InvalidMap):
        UnimodalMap.from_json(json.dumps(payload))


@pytest.mark.parametrize("key", ["basis", "degree", "coeffs"])
def test_from_json_rejects_missing_keys(key):
    payload = json.loads(quadratic_map(1.3, degree=4).to_json())
    del payload[key]
    with pytest.raises(InvalidMap, match=key):
        UnimodalMap.from_json(json.dumps(payload))


def test_from_json_rejects_malformed_text():
    with pytest.raises(InvalidMap):
        UnimodalMap.from_json("[1.0, -0.5]")
    with pytest.raises(InvalidMap):
        UnimodalMap.from_json("{")


def test_orbit_stays_inside_interval(tmp_path):
    # the critical orbit as `renormlab orbit` writes it, with the overshoot
    # of the unclamped orbit beyond [-1, 1] as its report reads it
    argv = ["orbit", "--c", "1.9", "--n", "300", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    rows = (tmp_path / "orbit.csv").read_text().splitlines()[1:]
    pts = np.array([float(r.split(",")[1]) for r in rows])
    results = json.loads((tmp_path / "orbit.json").read_text())["results"]
    assert len(pts) == 301
    assert np.max(np.abs(pts)) <= 1.0 + 1e-9
    assert results["clamp_excess"] < 1e-9


def test_family_domain_bounds():
    fam = QuadraticFamily()
    with pytest.raises(DomainError):
        fam.member(0.0)
    with pytest.raises(DomainError):
        fam.member(2.5)


def test_critical_value_map_matches_iteration():
    fam = QuadraticFamily()
    cs = np.array([0.7, 1.0, 1.4, 1.99])
    vals = fam.critical_value_map(cs, 3)
    for c, v in zip(cs, vals):
        f = fam.member(c)
        x = 0.0
        for _ in range(3):
            x = f(x)
        assert v == pytest.approx(x, abs=1e-13)


@given(c=st.floats(min_value=0.0, max_value=2.0),
       q=st.sampled_from([1, 2, 3, 5, 27, 81, 1024]))
@settings(max_examples=60, deadline=None)
def test_critical_value_map_scalar_path_is_the_vector_path_bit_for_bit(c, q):
    fam = QuadraticFamily()
    scalar = fam.critical_value_map(c, q)
    vector = fam.critical_value_map(np.array([c, c]), q)
    assert type(scalar) is float
    assert np.array([scalar]).view(np.uint64)[0] == vector.view(np.uint64)[1]


@given(c=st.floats(min_value=0.05, max_value=1.99))
@settings(max_examples=60, deadline=None)
def test_family_members_always_validate(c):
    diag = validate(QuadraticFamily().member(c).coeffs)
    assert diag.ok


@given(c=st.floats(min_value=0.05, max_value=1.99),
       x=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_evaluation_never_escapes_closure(c, x):
    f = QuadraticFamily().member(c)
    assert -1.0 - 1e-12 <= f(x) <= 1.0 + 1e-12


@given(degree=st.integers(min_value=1, max_value=12),
       c=st.floats(min_value=0.1, max_value=1.99))
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_property(degree, c):
    f = QuadraticFamily().member(c, degree=degree)
    g = UnimodalMap.from_json(f.to_json())
    assert np.array_equal(g.coeffs, f.coeffs)


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(min_value=1, max_value=64),
       c=st.floats(min_value=0.05, max_value=2.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       size=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))
def test_validate_fields_are_the_two_pass_values(degree, c, seed, size):
    """validate's one cached matrix product gives the fields of separate
    phi and phi' passes through numpy's chebval to within 2(D+1) eps times
    the coefficients' absolute sum (phi' for the margin), and the same
    verdict wherever no reference field lies that close to its threshold;
    the maps are family members with perturbations from none to O(1), so
    both verdicts occur."""
    coeffs = np.array(quadratic_map(c, degree).coeffs)
    coeffs += size * np.random.default_rng(seed).uniform(
        -1.0, 1.0, degree + 1) / (1.0 + np.arange(degree + 1))
    t = 2.0 * np.linspace(0.0, 1.0, max(4 * degree + 1, 17)) - 1.0
    dcoeffs = cheb.chebder(coeffs) * 2.0
    vals = cheb.chebval(t, coeffs)
    derivs = cheb.chebval(t, dcoeffs)
    tol = 2 * (degree + 1) * EPS * np.sum(np.abs(coeffs))
    dtol = 2 * (degree + 1) * EPS * np.sum(np.abs(dcoeffs))
    ref = MapDiagnostics(normalization_residual=abs(vals[0] - 1.0),
                         monotonicity_margin=np.min(-derivs),
                         range_min=np.min(vals), range_max=np.max(vals))
    diag = validate(coeffs)
    for name, bound in [("normalization_residual", tol),
                        ("monotonicity_margin", dtol),
                        ("range_min", tol), ("range_max", tol)]:
        assert abs(getattr(diag, name) - getattr(ref, name)) <= bound, name
    # a rounding change can flip a verdict only inside the bound: one draw
    # in 20,000 of this distribution lands there (normalization 1e-12)
    near = (abs(ref.normalization_residual - NORMALIZATION_TOL) <= tol
            or abs(ref.monotonicity_margin) <= dtol
            or abs(ref.range_min + 1.0 + RANGE_TOL) <= tol
            or abs(ref.range_max - 1.0 - RANGE_TOL) <= tol)
    if not near:
        assert diag.ok == ref.ok
