import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab.basis import PhiBasis
from renormlab.errors import DomainError, InvalidMap
from renormlab.maps import (QuadraticFamily, UnimodalMap, orbit, validate)


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


def test_increasing_phi_is_rejected():
    # phi(u) = 1 + u grows, so f has a minimum at 0 instead of a maximum
    with pytest.raises(InvalidMap):
        UnimodalMap(np.array([1.5, 0.5]), PhiBasis.ORTHOGONAL)


def test_unnormalized_map_is_rejected():
    with pytest.raises(InvalidMap):
        UnimodalMap(np.array([0.7, -0.4]), PhiBasis.ORTHOGONAL)


def test_check_false_defers_validation():
    f = UnimodalMap(np.array([0.7, -0.4]), PhiBasis.ORTHOGONAL, check=False)
    diag = validate(f)
    assert not diag.ok
    assert diag.normalization_residual > 1e-3


def test_diagnostics_fields_on_good_map():
    diag = validate(quadratic_map(1.4))
    assert diag.ok
    assert diag.normalization_residual < 1e-12
    assert diag.monotonicity_margin > 0
    assert -1.0 <= diag.range_min and diag.range_max <= 1.0


def test_json_roundtrip_is_bit_exact():
    f = quadratic_map(1.3737, degree=8)
    g = UnimodalMap.from_json(f.to_json())
    assert g.basis == f.basis
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


def test_orbit_stays_inside_interval():
    f = quadratic_map(1.9)
    orb = orbit(f, 0.0, 300)
    pts = np.asarray(orb.points)
    assert len(orb) == 301
    assert np.max(np.abs(pts)) <= 1.0 + 1e-9
    assert orb.clamp_excess < 1e-9


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
    diag = validate(QuadraticFamily().member(c))
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
    assert np.array_equal(g.coeffs, f.coeffs) and g.basis is f.basis
