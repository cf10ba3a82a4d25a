import functools

import numpy as np
import pytest

from renormlab import families
from renormlab.basis import design_matrix, eval_phi
from renormlab.errors import (CombinatoricsMismatch, DomainError, InvalidMap,
                              NoConvergence, RenormlabError, WindowNotFound)
from renormlab.maps import QuadraticFamily, UnimodalMap
from renormlab.renorm import (THETA_DOUBLING, THETA_TRIPLING, detect,
                              project_T, renormalize, renormalize_with)
from renormlab import solver
from renormlab.solver import (convergence_experiment, derivative_matrix,
                              solve_fixed_point, solve_periodic_orbit,
                              spectral_report, spectrum)
from conftest import C_INF, cold_doubling, finite_difference_matrix
from oracles import UncheckedMap

fam = QuadraticFamily()

# frozen from this solver at degree 24, cross-checked against the interval
# tower's central-ratio limit; the doubling constants are stable to the shown
# digits under degree 16..32
LAMBDA_STAR = -0.399535280523
DELTA = 4.6692016091
# Briggs, Math. Comp. 57 (1991) 435-439, to 30 digits; lambda* = -1/alpha
LAMBDA_BRIGGS = -0.399535280523134489857580468634
DELTA_BRIGGS = 4.66920160910299067185320382047
LEADING_EIGS = [4.669202, 0.159628, -0.123653, -0.057307, 0.025481, -0.010146]
TRIPLING_LAMBDA = -0.107789504
# 30-digit mpmath power-series solve of the tripling fixed-point equation
TRIPLING_LAMBDA_REF = -0.10778950429255075546354518683
TRIPLING_DELTA = 55.247027
TWO_CYCLE_MULTIPLIER = 218.411795
# this solver at degree 24; degrees 16 and 32 agree to 2e-14
DDDT_MULTIPLIER = 5002.0407185970


def sup_distance(f, g, grid=200):
    xs = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs([f(x) - g(x) for x in xs])))


@pytest.mark.parametrize("degrees", [(24, 24), (1, 1), (1, 24), (24, 1)])
def test_sup_distance_is_the_sup_of_two_evaluations(fixed_point_24, degrees):
    """_sup_distance's one padded pass is max |f(xs) - g(xs)| through
    UnimodalMap.__call__ exactly, for equal and unequal degrees."""
    f = fixed_point_24.map if degrees[0] == 24 else fam.member(1.4)
    g = fam.member(1.3, degree=degrees[1])
    xs = np.linspace(-1.0, 1.0, solver.RESIDUAL_GRID)
    want = float(np.max(np.abs(f(xs) - g(xs))))
    assert want > 0.0
    assert solver._sup_distance(f, g) == want


def test_the_reported_residual_is_the_returned_maps(fixed_point_24):
    """residual is sup |Rg - g| of the map the solve returns, recomputed bit
    for bit, so a returned map that is not the one Newton measured (one
    coefficient moved by 1e-10, say) fails here."""
    fp = fixed_point_24
    rg = renormalize_with(fp.map, fp.theta, degree=fp.map.degree).map
    assert solver._sup_distance(rg, fp.map) == fp.residual


def test_fixed_point_constants(fixed_point_24):
    fp = fixed_point_24
    assert fp.lambda_star == pytest.approx(LAMBDA_STAR, abs=1e-9)
    assert fp.residual < 1e-10
    assert fp.newton_iters <= 10
    assert fp.theta == THETA_DOUBLING


def test_fixed_point_newton_tail_is_quadratic():
    # from the quadratic start, where Newton has a tail to show; the
    # default start is one Newton step from tol
    hist = np.asarray(cold_doubling(24)[3])
    tail = hist[(hist > 1e-13) & (hist < 1e-2)]
    assert tail.size >= 3
    for a, b in zip(tail, tail[1:]):
        assert b < 1e3 * a * a


def test_scaling_constant_stable_in_degree(fixed_point_24, fixed_point_32):
    assert abs(fixed_point_24.lambda_star
               - fixed_point_32.lambda_star) < 1e-9


def test_resolve_from_perturbed_seed(fixed_point_24):
    seed = fam.member(C_INF)
    for _ in range(2):
        seed = renormalize(seed, detect(seed)).map
    _, rens, res, _, _ = solver._newton_polish([seed.coeffs],
                                               (THETA_DOUBLING,), 1e-10)
    assert seed.degree == 24 and res < 1e-10
    assert abs(rens[0].step.lam - fixed_point_24.lambda_star) < 1e-11


@functools.cache
def _doubling(degree, cold=False):
    """The doubling fixed point, its lambda and its delta; cold runs Newton
    at degree only, from the classical guess, instead of coarse to fine."""
    if cold:
        cycle, rens, res, _, _ = cold_doubling(degree)
        g, lam = cycle[0], rens[0].step.lam
        assert res < 1e-10
    else:
        fp = solve_fixed_point(degree=degree)
        g, lam = fp.map, fp.lambda_star
    return g, lam, spectrum(g).delta


@pytest.mark.parametrize("degree", [16, 24, 32, 48])
def test_doubling_constants_at_full_precision(degree):
    _, lam, delta = _doubling(degree)
    assert abs(lam - LAMBDA_BRIGGS) <= 5e-15
    assert abs(delta - DELTA_BRIGGS) <= 2e-13


@pytest.mark.parametrize("degree", [16, 24, 32, 48])
def test_tripling_lambda_at_full_precision(degree):
    # Newton at the degree itself missed by 4.5e-14 to 2.9e-13 here
    fp = solve_fixed_point(theta=THETA_TRIPLING, degree=degree)
    assert abs(fp.lambda_star - TRIPLING_LAMBDA_REF) <= 1e-14


@pytest.mark.parametrize("degree", [24, 32, 48])
def test_cold_route_agrees_with_the_default_route(degree):
    # the cold route's own errors reach 9.6e-13 (lambda), 1.6e-11 (delta)
    _, lam, delta = _doubling(degree)
    _, cold_lam, cold_delta = _doubling(degree, cold=True)
    assert abs(lam - cold_lam) <= 5e-12
    assert abs(delta - cold_delta) <= 1e-10


@pytest.mark.parametrize("degree", [24, 48])
@pytest.mark.parametrize("thetas", [(THETA_TRIPLING,),
                                    (THETA_DOUBLING, THETA_TRIPLING)],
                         ids=["T", "DT"])
def test_cold_route_agrees_with_the_default_route_beyond_doubling(thetas,
                                                                  degree):
    default = solve_periodic_orbit(thetas, degree=degree)
    cold, _, res, _, _ = solver._newton_polish(
        [g.coeffs for g in solver._seed_cycle(thetas, degree)], thetas, 1e-10)
    assert res < 1e-10
    for g, h in zip(default.cycle, cold):
        assert g.degree == h.degree == degree
        assert sup_distance(g, h) <= 5e-12


@pytest.mark.parametrize("thetas", [
    (THETA_TRIPLING,), (THETA_DOUBLING, THETA_TRIPLING),
    (THETA_TRIPLING, THETA_DOUBLING),
    (THETA_DOUBLING, THETA_DOUBLING, THETA_TRIPLING)],
    ids=["T", "DT", "TD", "DDT"])
def test_every_cycle_seeds_at_the_coarse_degree(thetas):
    # a TruncationLoss in the seeding would raise here
    seeds = solver._seed_cycle(thetas, solver.COARSE_DEGREE)
    assert [g.degree for g in seeds] == [solver.COARSE_DEGREE] * len(thetas)
    orbit = solve_periodic_orbit(thetas, degree=24)
    assert orbit.residual < 1e-10
    assert orbit.combinatorics == thetas


@pytest.mark.parametrize("degree", [10, 12])
def test_default_route_is_the_cold_route_up_to_the_coarse_degree(degree):
    # Newton at the degree only, from the same seed as the default route
    fp = solve_fixed_point(degree=degree)
    cycle, rens, res, history, iters = solver._newton_polish(
        [g.coeffs for g in solver._seed_cycle((THETA_DOUBLING,), degree)],
        (THETA_DOUBLING,), 1e-10)
    assert np.array_equal(fp.map.coeffs, cycle[0].coeffs)
    assert fp.lambda_star == rens[0].step.lam
    assert fp.residual == res
    assert fp.history == history
    assert fp.newton_iters == iters


def test_coarse_solve_leads_the_history(fixed_point_24):
    coarse = solve_fixed_point(degree=solver.COARSE_DEGREE)
    assert fixed_point_24.history[:len(coarse.history)] == coarse.history
    assert fixed_point_24.newton_iters == coarse.newton_iters
    assert fixed_point_24.map.degree == 24


def test_fine_stage_continues_when_the_padded_map_misses_tol(
        monkeypatch, fixed_point_24):
    # truncating g at degree 8 leaves a degree-24 residual near 3e-13
    monkeypatch.setattr(solver, "COARSE_DEGREE", 8)
    fp = solve_fixed_point(degree=24, tol=1e-13)
    coarse = solve_fixed_point(degree=8, tol=1e-13)
    assert fp.history[:len(coarse.history)] == coarse.history
    assert fp.newton_iters > coarse.newton_iters
    assert fp.residual < 1e-13
    assert abs(fp.lambda_star - fixed_point_24.lambda_star) < 5e-12


@pytest.mark.parametrize("solve", [
    lambda: solve_fixed_point(degree=65),
    lambda: solve_periodic_orbit([THETA_DOUBLING, THETA_TRIPLING],
                                 degree=65)], ids=["fixed_point", "cycle"])
def test_degree_above_the_maximum_is_refused_before_newton(monkeypatch,
                                                           solve):
    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran")

    monkeypatch.setattr(solver, "_newton_polish", no_newton)
    with pytest.raises(InvalidMap, match="degree above 64 unsupported"):
        solve()


CYCLES = {"DT": (THETA_DOUBLING, THETA_TRIPLING),
          "TD": (THETA_TRIPLING, THETA_DOUBLING),
          "TT": (THETA_TRIPLING, THETA_TRIPLING),
          "DDT": (THETA_DOUBLING, THETA_DOUBLING, THETA_TRIPLING)}


@pytest.mark.parametrize("name", CYCLES)
def test_cycles_end_at_the_rounding_floor(name):
    # Newton's first iterate under tol can sit far above rounding; the
    # chord step after it takes the cycle down
    assert solve_periodic_orbit(CYCLES[name], degree=24).residual < 1e-13


@pytest.mark.parametrize("name", ["D", "T"] + list(CYCLES))
def test_each_stage_counts_its_kept_steps(monkeypatch, name):
    # (T, D) rejects its chord step, which must count as no step
    thetas = {"D": (THETA_DOUBLING,), "T": (THETA_TRIPLING,), **CYCLES}[name]
    stages = []
    polish = solver._newton_polish

    def recorded(*args):
        out = polish(*args)
        stages.append(out)
        return out

    monkeypatch.setattr(solver, "_newton_polish", recorded)
    orbit = solve_periodic_orbit(thetas, degree=24)
    assert len(stages) == 2
    for _, _, _, history, iters in stages:
        assert iters == len(history) - 1
    assert orbit.newton_iters == sum(stage[4] for stage in stages)
    assert orbit.history == stages[0][3] + stages[1][3]


@pytest.mark.parametrize("degree", [12, 16, 24, 32, 48, 64])
def test_doubling_solve_takes_one_newton_and_one_chord_step(monkeypatch,
                                                            degree):
    calls = []
    build = solver.derivative_matrix

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(solver, "derivative_matrix", counted)
    fp = solve_fixed_point(degree=degree)
    assert fp.newton_iters <= 2
    assert len(calls) == 1
    assert fp.residual < 1e-13


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_doubling_solve_below_the_seed_degree_fails_typed(degree):
    # the seed is cut to the degree; the projection cannot hold T(g) there
    with pytest.raises(RenormlabError):
        solve_fixed_point(degree=degree)


def test_doubling_solve_at_the_seed_degree_converges():
    fp = solve_fixed_point(degree=7)
    assert fp.residual < 1e-13
    assert abs(fp.lambda_star - LAMBDA_BRIGGS) < 1e-10


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
    with pytest.raises(NoConvergence) as err:
        cold_doubling(24, c=1.2)
    assert len(err.value.history) >= 1


@pytest.mark.parametrize("matrix, message", [
    (np.eye, "singular Newton matrix"),
    (lambda n: np.full((n, n), np.nan), "non-finite Newton matrix")])
def test_a_bad_newton_matrix_raises_with_the_history(monkeypatch, matrix,
                                                    message):
    # DT = I makes the fixed-point Jacobian DT - I zero below its pinned row
    def bad(f, step=None):
        return matrix(f.degree + 1)

    monkeypatch.setattr(solver, "derivative_matrix", bad)
    with pytest.raises(NoConvergence, match=message) as err:
        solve_fixed_point(degree=12)
    (seed_residual,) = err.value.history
    assert 0.0 < seed_residual < 1e-6


def test_an_eigenvalue_just_outside_the_disk_is_not_hyperbolic():
    # one unstable eigenvalue 1e-4 beyond the unit circle is one too many;
    # the same spectrum with it 1e-4 inside is hyperbolic
    tail = [0.1, 0.05, 0.02, 0.01, 0.005, 0.002]
    outside = spectral_report(np.diag([4.67, 1 + 1e-4] + tail))
    inside = spectral_report(np.diag([4.67, 1 - 1e-4] + tail))
    assert not outside.hyperbolic
    assert inside.hyperbolic


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


def _eager_report(mat):
    """The eigensystem as spectral_report computed it before its vectors
    became lazy: one eig for the eigenvalues and the right vector, one on
    mat.T for the left one, normalized and signed the same way.  Returns
    (eigenvalues, unstable_vector, stable_functional)."""
    def sorted_eigensystem(m):
        vals, vecs = np.linalg.eig(m)
        order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
        return vals[order], vecs[:, order]

    def realified(vec):
        pivot = vec[int(np.argmax(np.abs(vec)))]
        return np.real(vec * np.conj(pivot) / abs(pivot))

    vals, vecs = sorted_eigensystem(mat)
    u_vec = realified(vecs[:, 0])
    grid = np.linspace(0.0, 1.0, solver.SUP_GRID)
    u_vec = u_vec / float(np.max(np.abs(eval_phi(u_vec, grid))))
    lvals, lvecs = sorted_eigensystem(mat.T)
    sigma = realified(lvecs[:, int(np.argmin(np.abs(lvals - vals[0])))])
    sigma = sigma / float(sigma @ u_vec)
    direction = np.zeros(mat.shape[0])
    direction[:2] = -0.5
    if float(sigma @ direction) < 0.0:
        u_vec, sigma = -u_vec, -sigma
    return vals, u_vec, sigma


@functools.cache
def _solver_matrices():
    """DT at the doubling and tripling fixed points of degree 10 to 64, and
    the product of the (doubling, tripling) 2-cycle at degree 24."""
    mats = {}
    for degree in range(10, 65):
        for name, theta in [("D", THETA_DOUBLING), ("T", THETA_TRIPLING)]:
            fp = solve_fixed_point(theta=theta, degree=degree)
            mats[f"{name}{degree}"] = derivative_matrix(fp.map)
    mats["DT24"] = solve_periodic_orbit([THETA_DOUBLING, THETA_TRIPLING],
                                        degree=24).multipliers.matrix
    return mats


def test_spectral_report_eigenvalues_are_eig_bit_for_bit():
    # eigvals and eig's eigenvalues run different LAPACK paths; every digest
    # downstream relies on their agreeing as bytes on the solver's matrices
    for name, mat in _solver_matrices().items():
        rep = spectral_report(mat)
        vals = _eager_report(mat)[0]
        assert rep.eigenvalues.dtype == vals.dtype, name
        assert np.array_equal(rep.eigenvalues, vals), name
        assert rep.delta == float(vals[0].real), name
        assert rep.gap == float(np.abs(vals[1])), name
        assert rep.hyperbolic, name


def test_lazy_vectors_are_the_eager_ones():
    mats = dict(_solver_matrices())
    mats["diag"] = np.diag([4.67, 0.5, -0.2, 0.1, 0.05])
    for name, mat in mats.items():
        rep = spectral_report(mat)
        assert "_vectors" not in rep.__dict__, name
        _, u_vec, sigma = _eager_report(mat)
        assert np.array_equal(rep.unstable_vector, u_vec), name
        assert np.array_equal(rep.stable_functional, sigma), name
        assert rep.unstable_vector is rep.unstable_vector, name
    assert not rep.matrix.flags.writeable


def _stable_normalized_direction(g, rep):
    """Direction with no unstable component that keeps f(0) = 1."""
    sigma = rep.stable_functional
    n_row = design_matrix(np.array([0.0]), g.degree)[0]
    constraints = np.stack([sigma[1:4], n_row[1:4]])
    _, _, vt = np.linalg.svd(constraints)
    w = np.zeros(g.degree + 1)
    w[1:4] = vt[-1]
    return w / np.max(np.abs(w))


@pytest.mark.parametrize("n_max", [0, -1])
def test_convergence_experiment_refuses_fewer_than_one_step(n_max):
    # n_max = 0 left one distance to fit a line to (SVD did not converge),
    # n_max = -1 none (TypeError from np.polyfit)
    f = fam.member(C_INF)
    with pytest.raises(DomainError, match="n_max must be >= 1"):
        convergence_experiment(f, f, n_max)


def test_stable_perturbations_contract(fixed_point_24, spectrum_24):
    g = fixed_point_24.map
    w = _stable_normalized_direction(g, spectrum_24)
    pert = UnimodalMap(g.coeffs + 1e-6 * w)
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
    fp = UncheckedMap(g.coeffs + h * v)
    fm = UncheckedMap(g.coeffs - h * v)
    def T(f):
        return project_T(f, detect(f), g.degree)[0]

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


def test_a_length_four_cycle_solves():
    # the last member sits at chase position burn + 3 = 7, so a chase to
    # depth burn + 3 leaves it unconstrained and the seed not renormalizable
    orbit = solve_periodic_orbit(
        (THETA_DOUBLING,) * 3 + (THETA_TRIPLING,), degree=24)
    assert orbit.residual < 1e-13
    assert orbit.multipliers.hyperbolic
    assert orbit.multipliers.delta == pytest.approx(DDDT_MULTIPLIER,
                                                    rel=1e-11)


FIVE_CYCLES = ("DDDDT", "DDDTT", "DDTDT", "DDTTT", "DTDTT")


@pytest.mark.parametrize("word", FIVE_CYCLES)
def test_prime_five_cycles_solve(word):
    thetas = tuple({"D": THETA_DOUBLING, "T": THETA_TRIPLING}[t] for t in word)
    orbit = solve_periodic_orbit(thetas, degree=24)
    assert orbit.residual < 1e-13
    assert orbit.multipliers.hyperbolic


def test_the_five_cycle_past_the_horizon_fails_typed():
    # (D,T,T,T,T)'s depth-10 window holds no float; the chase says so
    with pytest.raises(WindowNotFound) as err:
        solve_periodic_orbit((THETA_DOUBLING,) + (THETA_TRIPLING,) * 4,
                             degree=24)
    assert err.value.depth == 10


def test_long_cycle_hits_the_seeding_depth_cap(monkeypatch):
    # eight types need a depth-16 seed; the chase refuses before any scan
    def no_scan(*args, **kwargs):
        raise AssertionError("the parameter chase scanned")

    monkeypatch.setattr(families, "classify", no_scan)
    monkeypatch.setattr(families, "_itinerary_ok", no_scan)
    with pytest.raises(DomainError, match="depth"):
        solve_periodic_orbit([THETA_TRIPLING] * 8, degree=16)


def test_a_malformed_type_is_a_domain_error():
    # both raised IndexError or ValueError from inside the chase
    with pytest.raises(DomainError, match="not a renormalization type"):
        solve_fixed_point(theta=())
    with pytest.raises(DomainError, match="not a renormalization type"):
        solve_periodic_orbit([THETA_DOUBLING, ()])


def test_period_one_cycle_is_the_fixed_point(fixed_point_24):
    # one route: the one-member cycle is the fixed point, bit for bit
    orbit = solve_periodic_orbit([THETA_DOUBLING], degree=24)
    assert np.array_equal(orbit.cycle[0].coeffs, fixed_point_24.map.coeffs)
    assert orbit.history == fixed_point_24.history


def test_cascade_accumulation_converges_to_fixed_point(fixed_point_24):
    rep = convergence_experiment(fam.member(C_INF), fixed_point_24.map, 8)
    assert np.all(np.diff(rep.distances) < 0)
    assert rep.slope < -1.0
    assert rep.r_squared > 0.95


def test_wrong_combinatorics_is_reported_with_level(fixed_point_24):
    with pytest.raises(CombinatoricsMismatch) as err:
        convergence_experiment(fam.member(1.76), fixed_point_24.map, 3)
    assert err.value.level == 0
