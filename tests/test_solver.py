import numpy as np
import pytest

from renormlab import families
from renormlab.basis import design_matrix
from renormlab.errors import CombinatoricsMismatch, DomainError, NoConvergence
from renormlab.maps import QuadraticFamily, UnimodalMap
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, detect,
                              project_T, renormalize)
from renormlab import solver
from renormlab.solver import (convergence_experiment, derivative_matrix,
                              finite_difference_matrix, solve_fixed_point,
                              solve_periodic_orbit, spectrum)
from conftest import C_INF

fam = QuadraticFamily()

# frozen from this solver at degree 24, cross-checked against the interval
# tower's central-ratio limit; the doubling constants are stable to the shown
# digits under degree 16..32
LAMBDA_STAR = -0.399535280523
DELTA = 4.6692016091
LEADING_EIGS = [4.669202, 0.159628, -0.123653, -0.057307, 0.025481, -0.010146]
TRIPLING_LAMBDA = -0.107789504
# 30-digit mpmath power-series solve of the tripling fixed-point equation
TRIPLING_LAMBDA_REF = -0.10778950429255075546354518683
TRIPLING_DELTA = 55.247027
TWO_CYCLE_MULTIPLIER = 218.411795


def sup_distance(f, g, grid=200):
    xs = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs([f(x) - g(x) for x in xs])))


def test_fixed_point_constants(fixed_point_24):
    fp = fixed_point_24
    assert fp.lambda_star == pytest.approx(LAMBDA_STAR, abs=1e-9)
    assert fp.residual < 1e-10
    assert fp.newton_iters <= 10
    assert fp.theta == THETA_DOUBLING


def test_fixed_point_newton_tail_is_quadratic(fixed_point_24):
    hist = np.asarray(fixed_point_24.history)
    tail = hist[(hist > 1e-13) & (hist < 1e-2)]
    for a, b in zip(tail, tail[1:]):
        assert b < 1e3 * a * a


def test_scaling_constant_stable_in_degree(fixed_point_24, fixed_point_32):
    assert abs(fixed_point_24.lambda_star
               - fixed_point_32.lambda_star) < 1e-9


def test_resolve_from_perturbed_seed(fixed_point_24):
    seed = renormalize(renormalize(fam.member(C_INF)).map).map
    fp = solve_fixed_point(degree=24, seed=seed)
    assert abs(fp.lambda_star - fixed_point_24.lambda_star) < 1e-11


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
    with pytest.raises(NoConvergence) as err:
        solve_fixed_point(degree=24, seed=fam.member(1.2, degree=24))
    assert len(err.value.history) >= 1


def test_spectrum_constants(spectrum_24, fixed_point_24):
    rep = spectrum_24
    assert rep.delta == pytest.approx(DELTA, abs=1e-8)
    assert rep.hyperbolic
    lead = rep.eigenvalues[:6]
    assert np.max(np.abs(lead.imag)) < 1e-10
    assert np.allclose(lead.real, LEADING_EIGS, atol=2e-4)
    # the second mode is the squared spatial scaling
    assert rep.gap == pytest.approx(fixed_point_24.lambda_star**2, abs=1e-5)


def test_exactly_one_unstable_mode(spectrum_24):
    moduli = np.abs(spectrum_24.eigenvalues)
    assert int(np.sum(moduli > 1.0)) == 1
    assert moduli[1] < 1.0 - 1e-3


def test_stable_functional_normalization(spectrum_24):
    sigma = spectrum_24.stable_functional
    assert float(sigma @ spectrum_24.unstable_vector) == pytest.approx(1.0)


def _stable_normalized_direction(g, rep):
    """Direction with no unstable component that keeps f(0) = 1."""
    sigma = rep.stable_functional
    n_row = design_matrix(np.array([0.0]), g.degree, g.basis)[0]
    constraints = np.stack([sigma[1:4], n_row[1:4]])
    _, _, vt = np.linalg.svd(constraints)
    w = np.zeros(g.degree + 1)
    w[1:4] = vt[-1]
    return w / np.max(np.abs(w))


def test_stable_perturbations_contract(fixed_point_24, spectrum_24):
    g = fixed_point_24.map
    w = _stable_normalized_direction(g, spectrum_24)
    pert = UnimodalMap(g.coeffs + 1e-6 * w, g.basis)
    rep = convergence_experiment(pert, g, 4)
    # sup norm is not adapted to the modal splitting, so one transient
    # bounce is allowed before contraction sets in
    assert rep.distances[1] < 2.0 * rep.distances[0]
    assert np.all(np.diff(rep.distances[1:]) < 0)
    assert rep.distances[-1] < 1e-2 * rep.distances[0]


def test_derivative_matches_finite_differences(fixed_point_24):
    g = fixed_point_24.map
    analytic = derivative_matrix(g)
    numeric = finite_difference_matrix(g, h=1e-6)
    scale = np.max(np.abs(analytic))
    mask = np.abs(analytic) > 1e-8
    err = np.max(np.abs(analytic - numeric)[mask])
    assert err < 1e-6 * scale


def test_derivative_action_matches_directional_difference(fixed_point_24):
    g = fixed_point_24.map
    A = derivative_matrix(g)
    rng = np.random.default_rng(7)
    v = rng.normal(size=g.degree + 1) * 1e-0
    h = 1e-7
    fp = UnimodalMap(g.coeffs + h * v, g.basis, check=False)
    fm = UnimodalMap(g.coeffs - h * v, g.basis, check=False)
    def T(f):
        return project_T(f, detect(f, validate_input=False), g.degree)[0]

    diff = (T(fp) - T(fm)) / (2 * h)
    assert np.max(np.abs(A @ v - diff)) < 1e-4 * np.max(np.abs(A @ v))


def test_tripling_fixed_point(tripling_fixed_point):
    fp = tripling_fixed_point
    assert fp.theta == THETA_TRIPLING
    assert fp.residual < 1e-10
    assert fp.lambda_star == pytest.approx(TRIPLING_LAMBDA, abs=1e-6)
    assert fp.lambda_star == pytest.approx(TRIPLING_LAMBDA_REF, rel=5e-12)
    rep = spectrum(fp.map)
    assert rep.delta == pytest.approx(TRIPLING_DELTA, abs=1e-3)
    assert int(np.sum(np.abs(rep.eigenvalues) > 1)) == 1


def test_two_cycle_structure(two_cycle):
    orbit = two_cycle
    assert orbit.residual < 1e-10
    assert orbit.combinatorics == (THETA_DOUBLING, THETA_TRIPLING)
    assert len(orbit.cycle) == 2
    assert sup_distance(orbit.cycle[0], orbit.cycle[1]) > 1e-2
    assert orbit.multipliers.delta == pytest.approx(TWO_CYCLE_MULTIPLIER,
                                                    abs=1e-2)
    assert orbit.multipliers.hyperbolic
    moduli = np.abs(orbit.multipliers.eigenvalues)
    assert int(np.sum(moduli > 1)) == 1 and moduli[1] < 0.05


def test_long_cycle_hits_the_seeding_depth_cap(monkeypatch):
    # eight types need a depth-11 seed; the chase refuses before any scan
    def no_scan(*args, **kwargs):
        raise AssertionError("the parameter chase scanned")

    monkeypatch.setattr(families, "classify", no_scan)
    monkeypatch.setattr(families, "_itinerary_ok", no_scan)
    with pytest.raises(DomainError, match="depth"):
        solve_periodic_orbit([THETA_TRIPLING] * 8, degree=16)


def test_period_one_cycle_is_the_fixed_point(fixed_point_24):
    orbit = solve_periodic_orbit([THETA_DOUBLING], degree=24)
    assert sup_distance(orbit.cycle[0], fixed_point_24.map) < 1e-9


def test_cascade_accumulation_converges_to_fixed_point(fixed_point_24):
    rep = convergence_experiment(fam.member(C_INF), fixed_point_24.map, 8)
    assert np.all(np.diff(rep.distances) < 0)
    assert rep.slope < -1.0
    assert rep.r_squared > 0.95


def test_wrong_combinatorics_is_reported_with_level(fixed_point_24):
    with pytest.raises(CombinatoricsMismatch) as err:
        convergence_experiment(fam.member(1.76), fixed_point_24.map, 3)
    assert err.value.level == 0
