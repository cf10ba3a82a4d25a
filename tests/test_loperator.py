import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import basis
from renormlab import loperator as lop
from renormlab.basis import (collocation_nodes, design_matrix, eval_phi,
                             fit_phi, project_function)
from renormlab.errors import OperatorDomainError, TermBlowup
from renormlab.renorm import (RenormStep, derivative_terms, detect, slopes,
                              spatial_permutation, tower)
from renormlab.solver import derivative_matrix, solve_fixed_point

from conftest import affine_operator
from oracles import apply, apply_positive, compose_power

GRID = np.linspace(-1.0, 1.0, 201)
EPS = np.finfo(float).eps


def test_identity_operator_is_identity():
    I = affine_operator([(1.0, 1.0, 0.0)])
    v = lambda x: np.sin(3.0 * x) + x**2
    assert np.max(np.abs(apply(I, v, GRID) - v(GRID))) < 1e-15


def test_symmetrizer_kills_odd_functions():
    sym = affine_operator([(0.5, 1.0, 0.0), (0.5, -1.0, 0.0)])
    odd = lambda x: x**3 - 0.2 * x
    even = lambda x: np.cos(x)
    assert np.max(np.abs(apply(sym, odd, GRID))) < 1e-15
    assert np.max(np.abs(apply(sym, even, GRID) - even(GRID))) < 1e-15


def test_positive_operator_weights_by_derivative_power():
    L = affine_operator([(1.0, 0.5, 0.0)])
    v = lambda x: 1.0 + x**2
    want = 0.25 * v(0.5 * GRID)
    assert np.max(np.abs(apply_positive(L, 2.0, v, GRID) - want)) < 1e-14
    assert lop.gamma_norm(L, 2.0) == pytest.approx(0.25)


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
    L1 = affine_operator(rows1)
    L2 = affine_operator(rows2)
    both = lop.compose(L1, L2)
    v = lambda x: np.cos(2.0 * x) + 0.3 * x
    inner = lambda x: apply(L2, v, np.atleast_1d(x))
    direct = apply(L1, inner, GRID)
    assert np.max(np.abs(apply(both, v, GRID) - direct)) < 1e-10


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
        w = lambda x: eval_phi(c, np.asarray(x) ** 2)
        fitted, _ = fit_phi(apply(L, w, xs), g.degree)
        # both read renorm.derivative_terms and differ only in the order of
        # summation and the fit: 4.6e-15 * scale at most here
        assert np.max(np.abs(A @ c - fitted)) < 64 * EPS * scale


def test_unstable_vector_is_an_eigenfunction(fixed_point_24, spectrum_24):
    g = fixed_point_24.map
    L = lop.renorm_derivative_as_loperator(g)
    u = spectrum_24.unstable_vector
    w = lambda x: eval_phi(u, np.asarray(x) ** 2)
    lhs = apply(L, w, GRID)
    assert np.max(np.abs(lhs - spectrum_24.delta * w(GRID))) < 1e-7


def _tower_step(g):
    """The p = 4 step of g's two-level tower."""
    tw = tower(g, 2)
    lvl = tw.level(2)
    return RenormStep(p=4, lam=tw.scalings[1],
                      perm=spatial_permutation(lvl), intervals=lvl)


def test_composed_square_matches_two_step_operator(fixed_point_24):
    g = fixed_point_24.map
    L = lop.renorm_derivative_as_loperator(g)
    LL = lop.compose(L, L)

    direct = lop.renorm_derivative_as_loperator(g, _tower_step(g))
    assert direct.n_terms == 4
    assert LL.n_terms == 4

    v = lambda x: np.cos(1.7 * x) - 0.4 * x**2
    xs = np.linspace(-0.9, 0.9, 120)
    gap = apply(LL, v, xs) - apply(direct, v, xs)
    assert np.max(np.abs(gap)) < 1e-7


def _forward(f, z, k):
    """(f^k(z), Df^k(z)) by k forward chain-rule steps."""
    dz = np.ones_like(z)
    for _ in range(k):
        dz = dz * slopes(f, z)
        z = f.phi(z * z)
    return z, dz


def _per_term_branches(f, step, x):
    """Each term by its own forward chain rule: term j runs an orbit of
    p - j steps from lam x, then j slope steps for w_j, and its own orbit
    of p - j - 1 steps for y_j and lam Df^{p-j-1}(lam x)."""
    p, lam = step.p, step.lam
    w, y, dy = [], [], []
    for j in range(p):
        z, _ = _forward(f, lam * x, p - j)
        w.append(_forward(f, z, j)[1] / lam)
        zj, dj = _forward(f, lam * x, p - j - 1)
        y.append(zj)
        dy.append(lam * dj)
    return np.array(w), np.array(y), np.array(dy)


def _per_term_tail(f, step, x):
    """(x Df^p(lam x) - f^p(lam x)/lam)/lam by one forward chain rule."""
    p, lam = step.p, step.lam
    zp, dp = _forward(f, lam * x, p)
    return (x * dp - zp / lam) / lam


def _per_term_functional(f, step):
    """The nodes f^{p-j-1}(0) and coefficients Df^j(f^{p-j}(0)), each by
    its own forward chain rule."""
    p, zero = step.p, np.zeros(1)
    nodes = [_forward(f, zero, p - j - 1)[0][0] for j in range(p)]
    coeffs = [_forward(f, _forward(f, zero, p - j)[0], j)[1][0]
              for j in range(p)]
    return np.array(nodes), np.array(coeffs)


def _case(which, fixed_point_24, request):
    """(g, step) of a named case: the doubling fixed point at degree 24 or
    48, the tripling fixed point, or the p = 4 tower step."""
    if which == "doubling48":
        g = solve_fixed_point(degree=48).map
    elif which == "tripling":
        g = request.getfixturevalue("tripling_fixed_point").map
    else:
        g = fixed_point_24.map
    return g, _tower_step(g) if which == "tower4" else detect(g)


CASES = ["doubling24", "doubling48", "tripling", "tower4"]


@pytest.mark.parametrize("which", CASES)
def test_one_orbit_branches_are_the_per_term_chain_rule(
        which, fixed_point_24, request):
    g, step = _case(which, fixed_point_24, request)
    L = lop.renorm_derivative_as_loperator(g, step)
    xs = np.concatenate([np.linspace(-1.0, 1.0, 97), [0.0, 1e-9, -0.3]])
    got = L.branches(xs)
    want = _per_term_branches(g, step, xs)
    for name, a, b in zip(("w", "y", "dy"), got, want):
        assert a.shape == (step.p, xs.size)
        assert np.array_equal(a, b), name

    (tail,) = L.tails
    assert np.array_equal(tail.weight(xs), _per_term_tail(g, step, xs))
    nodes, coeffs = _per_term_functional(g, step)
    assert tail.nodes.tolist() == nodes.tolist()
    assert tail.coeffs.tolist() == coeffs.tolist()


@pytest.mark.parametrize("which", ["doubling24", "tripling"])
def test_tail_functional_is_derivative_terms_at_any_points(
        which, fixed_point_24, request):
    """The L-operator's (nodes, coeffs) are derivative_terms' last two
    outputs as bytes, whether the orbit carries no points of x or the
    collocation points derivative_matrix evaluates at."""
    g, step = _case(which, fixed_point_24, request)
    (tail,) = lop.renorm_derivative_as_loperator(g, step).tails
    for x in (np.empty(0), np.sqrt(collocation_nodes(2 * (g.degree + 1)))):
        for got, want in zip((tail.nodes, tail.coeffs),
                             derivative_terms(g, step, x)[3:]):
            assert got.shape == want.shape == (step.p,)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", CASES)
def test_derivative_matrix_projects_the_per_term_chain_rule(
        which, fixed_point_24, request):
    # the images of the basis elements built term by term, projected the
    # way derivative_matrix projects its own
    g, step = _case(which, fixed_point_24, request)
    dim = g.degree + 1
    nodes, coeffs = _per_term_functional(g, step)
    sens = coeffs @ design_matrix(nodes ** 2, dim - 1)

    def images(u):
        x = np.sqrt(u)
        w, y, _ = _per_term_branches(g, step, x)
        design = design_matrix(y.ravel() ** 2, dim - 1)
        principal = np.einsum("jt,jtn->tn", w,
                              design.reshape(step.p, x.size, dim))
        return (principal + np.outer(_per_term_tail(g, step, x), sens)).T

    want = project_function(images, dim - 1)[0].T
    assert np.array_equal(derivative_matrix(g, step), want)


@pytest.mark.parametrize("which, p", [("doubling24", 2), ("tripling", 3)])
def test_one_derivative_runs_one_orbit(which, p, fixed_point_24, request,
                                       monkeypatch):
    """Clenshaw passes over arrays: derivative_matrix makes p + 1 (p - 1
    orbit steps, one slope pass and the p-th step, the critical functional
    riding on the same orbit), the L-operator's branches p (no p-th
    step).  A pass is a call of the function basis.clenshaw_of builds,
    which every Clenshaw evaluation, basis.clenshaw's too, goes through."""
    g, step = _case(which, fixed_point_24, request)
    assert step.p == p
    L = lop.renorm_derivative_as_loperator(g, step)
    kernel, calls = basis.clenshaw_of, []

    def counted(c):
        at = kernel(c)

        def counted_at(t):
            if isinstance(t, np.ndarray):
                calls.append(t.shape)
            return at(t)

        return counted_at

    monkeypatch.setattr(basis, "clenshaw_of", counted)
    derivative_matrix(g, step)
    assert len(calls) == p + 1
    calls.clear()
    L.branches(GRID)
    assert len(calls) == p


def test_branches_with_the_wrong_row_count_are_refused():
    def branches(x):
        ones = np.ones((3, x.size))
        return ones, 0.5 * ones, ones

    with pytest.raises(OperatorDomainError, match="shape"):
        lop.LOperator(branches, 2)
    assert lop.LOperator(branches, 3).n_terms == 3


def test_norm_bound_dominates_random_sections(fixed_point_24):
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    bound = lop.gamma_norm(L, 3.0)
    xs = np.linspace(-1.0, 1.0, 80)
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(0.0, 1.0, size=4)
        v = lambda x: np.polyval(c, np.asarray(x) ** 2)
        sup_v = np.max(np.abs(v(np.linspace(-1, 1, 400))))
        out = apply_positive(L, 3.0, v, xs)
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
    L = affine_operator([(1.0, 0.4, 0.1), (0.7, -0.3, 0.2)])
    norms = [lop.gamma_norm(L, gam) for gam in (1.0, 2.0, 3.0)]
    assert norms[0] > norms[1] > norms[2]


def test_escaping_branch_is_rejected():
    with pytest.raises(OperatorDomainError):
        affine_operator([(1.0, 1.5, 0.0)])


def test_apply_checks_the_grid(fixed_point_24):
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(OperatorDomainError):
        apply(L, lambda x: x, np.array([0.0, 1.2]))


def test_term_cap_trips(fixed_point_24, monkeypatch):
    monkeypatch.setattr(lop, "COMPOSE_CAP", 8)
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(TermBlowup):
        compose_power(L, 5)


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
         affine_operator(AFFINE_ROWS[which]))
    want = [lop.gamma_norm(compose_power(L, m), gamma)
            for m in range(1, 5)]
    assert lop.norm_growth(L, gamma, 4).tolist() == want


def test_norm_growth_of_the_zero_operator():
    zero = affine_operator([])
    assert lop.gamma_norm(zero, 3.0) == 0.0
    assert lop.norm_growth(zero, 3.0, 2).tolist() == [0.0, 0.0]


def test_norm_growth_term_cap_trips_like_compose_power(fixed_point_24,
                                                       monkeypatch):
    monkeypatch.setattr(lop, "COMPOSE_CAP", 8)
    L = lop.renorm_derivative_as_loperator(fixed_point_24.map)
    with pytest.raises(TermBlowup) as composed:
        compose_power(L, 4)
    with pytest.raises(TermBlowup) as grown:
        lop.norm_growth(L, 3.0, 4)
    assert str(grown.value) == str(composed.value)
    assert lop.norm_growth(L, 3.0, 3).size == 3


def test_norm_growth_rejects_escaping_words_like_compose():
    # one step stays within CONTAINMENT_TOL, two steps exceed it
    L = affine_operator([(1.0, 1.0, 6e-11)])
    with pytest.raises(OperatorDomainError) as composed:
        lop.compose(L, L)
    with pytest.raises(OperatorDomainError) as grown:
        lop.norm_growth(L, 3.0, 2)
    assert str(grown.value) == str(composed.value)
    assert str(grown.value).startswith(
        "term 0: psi image leaves [-1,1] by 1.2")
    assert lop.norm_growth(L, 3.0, 1).tolist() == [1.0]

    # only the word (1, 1) escapes; compose names it as term 1*2 + 1
    L2 = affine_operator([(1.0, 0.5, 0.0), (1.0, 1.0, 6e-11)])
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
    L = affine_operator(AFFINE_ROWS["affine2"])
    calls = {
        "gamma_norm": lambda: lop.gamma_norm(L, gamma),
        "apply_positive": lambda: apply_positive(
            L, gamma, lambda x: np.ones_like(x), GRID),
        "norm_growth": lambda: lop.norm_growth(L, gamma, 2),
    }
    with pytest.raises(OperatorDomainError,
                       match=re.escape(f"gamma must be positive, got {gamma}")):
        calls[entry]()
