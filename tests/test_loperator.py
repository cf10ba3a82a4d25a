import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import loperator as lop
from renormlab.basis import collocation_nodes, eval_phi, fit_phi
from renormlab.errors import OperatorDomainError, TermBlowup
from renormlab.renorm import RenormStep, spatial_permutation, tower
from renormlab.solver import derivative_matrix

GRID = np.linspace(-1.0, 1.0, 201)


def const_weight(c):
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


def test_identity_operator_is_identity():
    I = lop.identity_operator()
    v = lambda x: np.sin(3.0 * x) + x**2
    assert np.max(np.abs(lop.apply(I, v, GRID) - v(GRID))) < 1e-15


def test_symmetrizer_kills_odd_functions():
    half = const_weight(0.5)
    sym = lop.LOperator(terms=((half, lop.affine_map(1.0, 0.0)),
                               (half, lop.affine_map(-1.0, 0.0))))
    odd = lambda x: x**3 - 0.2 * x
    even = lambda x: np.cos(x)
    assert np.max(np.abs(lop.apply(sym, odd, GRID))) < 1e-15
    assert np.max(np.abs(lop.apply(sym, even, GRID) - even(GRID))) < 1e-15


def test_positive_operator_weights_by_derivative_power():
    L = lop.LOperator(terms=((const_weight(1.0), lop.affine_map(0.5, 0.0)),))
    v = lambda x: 1.0 + x**2
    want = 0.25 * v(0.5 * GRID)
    assert np.max(np.abs(lop.apply_positive(L, 2.0, v, GRID) - want)) < 1e-14
    assert lop.gamma_norm(L, 2.0) == pytest.approx(0.25)


def _affine_terms(rows):
    terms = []
    for w, a, b in rows:
        terms.append((const_weight(w), lop.affine_map(a, b)))
    return tuple(terms)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2),
                          st.floats(-0.45, 0.45),
                          st.floats(-0.5, 0.5)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(-2, 2),
                          st.floats(-0.45, 0.45),
                          st.floats(-0.5, 0.5)),
                min_size=1, max_size=3))
def test_composition_agrees_with_sequential_application(rows1, rows2):
    L1 = lop.LOperator(terms=_affine_terms(rows1))
    L2 = lop.LOperator(terms=_affine_terms(rows2))
    both = lop.compose(L1, L2)
    v = lambda x: np.cos(2.0 * x) + 0.3 * x
    inner = lambda x: lop.apply(L2, v, np.atleast_1d(x))
    direct = lop.apply(L1, inner, GRID)
    assert np.max(np.abs(lop.apply(both, v, GRID) - direct)) < 1e-10


def test_renorm_derivative_term_count(fixed_point_24, tripling_fixed_point):
    assert lop.renorm_derivative_as_loperator(fixed_point_24.map).n_terms == 2
    L3 = lop.renorm_derivative_as_loperator(tripling_fixed_point.map)
    assert L3.n_terms == 3
    assert len(L3.tails) == 1


def test_operator_columns_match_derivative_matrix(fixed_point_24):
    # the matrix is the Jacobian of the projected step, so the operator
    # image must be fitted back to coefficients before comparing
    g = fixed_point_24.map
    A = derivative_matrix(g)
    L = lop.renorm_derivative_as_loperator(g)
    u_nodes = collocation_nodes(2 * (g.degree + 1))
    xs = np.sqrt(u_nodes)
    scale = np.max(np.abs(A))
    rng = np.random.default_rng(3)
    for _ in range(4):
        c = rng.normal(size=g.degree + 1)
        w = lambda x: eval_phi(c, g.basis, np.asarray(x) ** 2)
        fitted, _ = fit_phi(u_nodes, lop.apply(L, w, xs), g.degree, g.basis)
        assert np.max(np.abs(A @ c - fitted)) < 1e-7 * scale


def test_unstable_vector_is_an_eigenfunction(fixed_point_24, spectrum_24):
    g = fixed_point_24.map
    L = lop.renorm_derivative_as_loperator(g)
    u = spectrum_24.unstable_vector
    w = lambda x: eval_phi(u, g.basis, np.asarray(x) ** 2)
    lhs = lop.apply(L, w, GRID)
    assert np.max(np.abs(lhs - spectrum_24.delta * w(GRID))) < 1e-7


def test_composed_square_matches_two_step_operator(fixed_point_24):
    g = fixed_point_24.map
    L = lop.renorm_derivative_as_loperator(g)
    LL = lop.compose(L, L)

    tw = tower(g, 2)
    lvl = tw.level(2)
    step = RenormStep(p=4, lam=tw.scalings[1],
                      perm=spatial_permutation(lvl), intervals=lvl)
    direct = lop.renorm_derivative_as_loperator(g, step)
    assert direct.n_terms == 4
    assert LL.n_terms == 4

    v = lambda x: np.cos(1.7 * x) - 0.4 * x**2
    xs = np.linspace(-0.9, 0.9, 120)
    gap = lop.apply(LL, v, xs) - lop.apply(direct, v, xs)
    assert np.max(np.abs(gap)) < 1e-7


def test_norm_bound_dominates_random_sections(fixed_point_24):
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    bound = lop.gamma_norm(L, 3.0)
    xs = np.linspace(-1.0, 1.0, 80)
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(0.0, 1.0, size=4)
        v = lambda x: np.polyval(c, np.asarray(x) ** 2)
        sup_v = np.max(np.abs(v(np.linspace(-1, 1, 400))))
        out = lop.apply_positive(L, 3.0, v, xs)
        assert np.max(np.abs(out)) <= bound * sup_v + 1e-12


def test_norm_growth_rates(fixed_point_24):
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    cubic = lop.norm_growth(L, 3.0, 4)
    ratios = cubic[1:] / cubic[:-1]
    assert np.all(ratios < 1.0)
    assert ratios[-1] == pytest.approx(0.400, abs=5e-2)
    slow = lop.norm_growth(L, 1.9, 4)
    slow_ratios = slow[1:] / slow[:-1]
    assert np.all(slow_ratios > 1.0)
    assert np.all(slow_ratios < 4.6692)


def test_gamma_monotone_for_contractive_branches():
    L = lop.LOperator(terms=((const_weight(1.0), lop.affine_map(0.4, 0.1)),
                             (const_weight(0.7), lop.affine_map(-0.3, 0.2))))
    norms = [lop.gamma_norm(L, gam) for gam in (1.0, 2.0, 3.0)]
    assert norms[0] > norms[1] > norms[2]


def test_escaping_branch_is_rejected():
    with pytest.raises(OperatorDomainError):
        lop.LOperator(terms=((const_weight(1.0), lop.affine_map(1.5, 0.0)),))


def test_apply_checks_the_grid(fixed_point_24):
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(OperatorDomainError):
        lop.apply(L, lambda x: x, np.array([0.0, 1.2]))


def test_term_cap_trips(fixed_point_24, monkeypatch):
    monkeypatch.setattr(lop, "COMPOSE_CAP", 8)
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(TermBlowup):
        lop.compose_power(L, 5)


AFFINE_ROWS = {
    "affine2": [(1.3, 0.4, 0.1), (-0.7, -0.3, 0.2)],
    "affine3": [(1.3, 0.4, 0.1), (-0.7, -0.3, 0.2), (0.9, 0.25, -0.6)],
}


@pytest.mark.parametrize("gamma", [3.0, 1.9])
@pytest.mark.parametrize("which", ["fixed_point_24", "affine2", "affine3"])
def test_norm_growth_is_gamma_norm_of_composed_powers_bit_for_bit(
        which, gamma, fixed_point_24):
    L = (lop.renorm_derivative_as_loperator(fixed_point_24.map)
         if which == "fixed_point_24" else
         lop.LOperator(terms=_affine_terms(AFFINE_ROWS[which])))
    want = [lop.gamma_norm(lop.compose_power(L, m), gamma)
            for m in range(1, 5)]
    assert lop.norm_growth(L, gamma, 4).tolist() == want


def test_norm_growth_of_the_zero_operator():
    zero = lop.LOperator(terms=())
    assert lop.gamma_norm(zero, 3.0) == 0.0
    assert lop.norm_growth(zero, 3.0, 2).tolist() == [0.0, 0.0]


def test_norm_growth_term_cap_trips_like_compose_power(fixed_point_24,
                                                       monkeypatch):
    monkeypatch.setattr(lop, "COMPOSE_CAP", 8)
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(TermBlowup) as composed:
        lop.compose_power(L, 4)
    with pytest.raises(TermBlowup) as grown:
        lop.norm_growth(L, 3.0, 4)
    assert str(grown.value) == str(composed.value)
    assert lop.norm_growth(L, 3.0, 3).size == 3


def test_norm_growth_rejects_escaping_words_like_compose():
    # one step stays within CONTAINMENT_TOL, two steps exceed it
    one = const_weight(1.0)
    L = lop.LOperator(terms=((one, lop.affine_map(1.0, 6e-11)),))
    with pytest.raises(OperatorDomainError) as composed:
        lop.compose(L, L)
    with pytest.raises(OperatorDomainError) as grown:
        lop.norm_growth(L, 3.0, 2)
    assert str(grown.value) == str(composed.value)
    assert str(grown.value).startswith(
        "term 0: psi image leaves [-1,1] by 1.2")
    assert lop.norm_growth(L, 3.0, 1).tolist() == [1.0]

    # only the word (1, 1) escapes; compose names it as term 1*2 + 1
    L2 = lop.LOperator(terms=((one, lop.affine_map(0.5, 0.0)),
                              (one, lop.affine_map(1.0, 6e-11))))
    with pytest.raises(OperatorDomainError) as composed:
        lop.compose(L2, L2)
    with pytest.raises(OperatorDomainError) as grown:
        lop.norm_growth(L2, 3.0, 2)
    assert str(grown.value) == str(composed.value)
    assert str(grown.value).startswith("term 3:")


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("entry", ["gamma_norm", "apply_positive",
                                   "norm_growth"])
def test_nonpositive_gamma_is_rejected(entry, gamma):
    L = lop.LOperator(terms=_affine_terms(AFFINE_ROWS["affine2"]))
    calls = {
        "gamma_norm": lambda: lop.gamma_norm(L, gamma),
        "apply_positive": lambda: lop.apply_positive(
            L, gamma, lambda x: np.ones_like(x), GRID),
        "norm_growth": lambda: lop.norm_growth(L, gamma, 2),
    }
    with pytest.raises(OperatorDomainError,
                       match=re.escape(f"gamma must be positive, got {gamma}")):
        calls[entry]()
