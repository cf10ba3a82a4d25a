"""Newton solving for renormalization fixed points and cycles, and spectra
of the operator's derivative.

Everything happens in the coefficient space of phi.  The derivative of
T(f) = f^p(lam x)/lam at f, acting on an even perturbation v, is

    DT(f) v (x) = (1/lam) sum_{j<p} Df^j(f^{p-j}(lam x)) v(f^{p-j-1}(lam x))
                + (1/lam) [x (Tf)'(x) - Tf(x)] sum_{j<p} Df^j(z_{p-j}) v(z_{p-j-1})

with z_i = f^i(0); the second, rank-one term is the sensitivity of the
scaling lam = f^p(0) to the perturbation.  One kernel computes both, for
the L-operator too: renorm.derivative_terms gives the terms, the tail and
the critical functional off one orbit.
Projected onto the basis this gives a dense matrix whose dominant
eigenvalue at the period-doubling fixed point is the expansion constant
delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as _cheb

from . import basis as _basis
from . import families as _families
from .errors import (CombinatoricsMismatch, DegenerateScaling, DomainError,
                     InvalidMap, NoConvergence, NotRenormalizable,
                     TruncationLoss)
from .maps import QuadraticFamily, UnimodalMap
from .renorm import (THETA_DOUBLING, RenormStep, derivative_terms, detect,
                     renormalize, renormalize_with)

UNSTABLE_CUTOFF = 1e-6   # |eig| > 1 + cutoff counts as expanding
MAX_HALVINGS = 8         # damping halvings per Newton step
RESIDUAL_GRID = 200      # points of [-1, 1] for the Newton residual sup
SUP_GRID = 512           # points of [0, 1] for the eigenvector sup norm
MAX_NEWTON_ITERS = 50    # Newton steps before NoConvergence
COARSE_DEGREE = 12       # every solve runs its first Newton stage here

# Feigenbaum's expansion of the period-doubling fixed point in u = x^2,
# phi(u) = sum_k a_k u^k (J. Stat. Phys. 21 (1979) 669-706)
FEIGENBAUM_PHI = (1.0, -1.5276330, 0.1048152, 0.0267057, -0.0035274,
                  0.0000816, 0.0000254, -0.0000027)


def derivative_matrix(f: UnimodalMap,
                      step: RenormStep | None = None) -> np.ndarray:
    """Matrix of DT(f) on the coefficient space, shape (D+1, D+1).

    Column n is the projection of DT(f) applied to the n-th basis element
    onto the basis at the collocation nodes renormalize fits at, so this
    matrix is exactly the derivative of the discretized operator (what
    Newton and finite-difference checks need).  One call to
    renorm.derivative_terms gives the terms, the tail and the critical
    functional, off one orbit of p + 1 Clenshaw passes.  Images of
    high-order basis elements genuinely exceed degree D, so their fit
    residual is not small; it is informational, and basis.project_coeffs
    does not compute it.
    """
    if step is None:
        step = detect(f)
    dim = f.degree + 1

    def images(u):
        """Row n: DT(f) applied to the n-th basis element, at the nodes u."""
        x = np.sqrt(u)
        w, y, tail, nodes, coeffs = derivative_terms(f, step, x)
        sens = coeffs @ _basis.design_matrix(nodes ** 2, dim - 1)
        design = _basis.design_matrix(y.ravel() ** 2,
                                      dim - 1).reshape(step.p, x.size, dim)
        principal = np.einsum("jt,jtn->tn", w, design)
        return (principal + np.outer(tail, sens)).T

    return _basis.project_coeffs(images, dim - 1).T


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of a derivative matrix; its eigenvectors, which need two
    more eigensolves, are computed on first read of either one."""

    matrix_dim: int
    eigenvalues: np.ndarray          # sorted by modulus desc, pairs adjacent
    delta: float                     # leading eigenvalue (real part)
    gap: float                       # modulus of the second eigenvalue
    hyperbolic: bool                 # exactly one eigenvalue outside the disk
    matrix: np.ndarray = field(repr=False)   # read-only copy
    # coefficient vector, sup-norm 1 as a map
    unstable_vector = property(lambda self: self._vectors[0])
    # left eigenvector, sigma(u) = 1
    stable_functional = property(lambda self: self._vectors[1])

    @cached_property
    def _vectors(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = _sorted_eigensystem(self.matrix)
        u_vec = _realified(vecs[:, 0])
        grid = np.linspace(0.0, 1.0, SUP_GRID)
        # u by keyword: perfbench/layers.py reads a traced call's kwargs["u"]
        sup = float(np.max(np.abs(_basis.eval_phi(u_vec, u=grid))))
        u_vec = u_vec / sup

        lvals, lvecs = _sorted_eigensystem(self.matrix.T)
        li = int(np.argmin(np.abs(lvals - vals[0])))
        sigma = _realified(lvecs[:, li])
        pairing = float(sigma @ u_vec)
        sigma = sigma / pairing

        direction = _increasing_c_direction(self.matrix_dim)
        if float(sigma @ direction) < 0.0:
            u_vec = -u_vec
            sigma = -sigma
        return u_vec, sigma


def _sorted_eigensystem(mat: np.ndarray):
    vals, vecs = np.linalg.eig(mat)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return vals[order], vecs[:, order]


def _realified(vec: np.ndarray) -> np.ndarray:
    pivot = vec[int(np.argmax(np.abs(vec)))]
    rotated = vec * np.conj(pivot) / abs(pivot)
    return np.real(rotated)


def _increasing_c_direction(dim: int) -> np.ndarray:
    """Tangent of c -> (1 - c u) in coefficient space: -(T_0 + T_1) / 2."""
    out = np.zeros(dim)
    out[:2] = -0.5
    return out


def spectral_report(mat: np.ndarray) -> SpectralReport:
    vals = np.linalg.eigvals(mat)
    vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
    outside = np.abs(vals) > 1.0 + UNSTABLE_CUTOFF
    frozen = np.array(mat)
    frozen.setflags(write=False)
    return SpectralReport(matrix_dim=mat.shape[0], eigenvalues=vals,
                          delta=float(vals[0].real),
                          gap=float(np.abs(vals[1])),
                          hyperbolic=int(np.count_nonzero(outside)) == 1,
                          matrix=frozen)


def spectrum(f: UnimodalMap) -> SpectralReport:
    """Eigendata of DT at f (usually a solved fixed point)."""
    mat = derivative_matrix(f)
    return spectral_report(mat)


@dataclass(frozen=True)
class FixedPointResult:
    map: UnimodalMap
    theta: tuple[int, ...]
    lambda_star: float
    residual: float                 # sup |Rg - g| on the residual grid
    newton_iters: int
    history: tuple[float, ...]      # residual per accepted iterate


@cache
def _residual_grid() -> np.ndarray:
    """_sup_distance's points as t = 2x^2 - 1, the t that f(x) evaluates
    phi at, for x = linspace(-1, 1, RESIDUAL_GRID); read-only, built once.
    Every x lies in [-1, 1], so f's domain check has nothing to refuse."""
    x = np.linspace(-1.0, 1.0, RESIDUAL_GRID)
    t = 2.0 * x ** 2 - 1.0
    t.setflags(write=False)
    return t


def _sup_distance(f: UnimodalMap, g: UnimodalMap) -> float:
    """max |f(x) - g(x)| over the residual grid: f and g in one Clenshaw
    pass (basis.eval_rows) over their series, unequal lengths padded."""
    fx, gx = _basis.eval_rows([f.series, g.series], _residual_grid())
    return float(np.max(np.abs(fx - gx)))


_NEWTON_RECOVERABLE = (InvalidMap, NotRenormalizable, DegenerateScaling,
                       CombinatoricsMismatch, TruncationLoss, DomainError)


def _newton_step(jac: np.ndarray, rhs: np.ndarray, history: list):
    """jac^-1 rhs; NoConvergence with the residual history if jac is
    singular, or jac or the step is not finite."""
    try:
        step = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        raise NoConvergence(f"singular Newton matrix at residual "
                            f"{history[-1]:.3e}", history=tuple(history))
    if not (np.isfinite(jac).all() and np.isfinite(step).all()):
        raise NoConvergence(f"non-finite Newton matrix or step at residual "
                            f"{history[-1]:.3e}", history=tuple(history))
    return step


def _newton_polish(start: list[np.ndarray],
                   thetas: tuple[tuple[int, ...], ...], tol: float):
    """Damped Newton on the m-cycle system R(g_i) = g_{i+1 mod m} from
    start (one coefficient vector per type, at the degree Newton keeps),
    whose maps the first build validates.

    A start under tol takes no step.  Otherwise Newton runs until a step
    lands under tol; then one chord step follows, with that step's
    Jacobian (no new derivative matrix), kept only if it lowers the
    residual, so the run ends at its rounding floor, not at the first
    iterate under tol.  Returns (cycle, steps, residual, history,
    iterations), where history holds the residual of every kept iterate
    and iterations = len(history) - 1.  m = 1 is the fixed-point
    equation; the block Jacobian couples consecutive cycle positions.
    """
    m = len(thetas)
    dim = start[0].size
    norm_row = (-1.0) ** np.arange(dim)   # T_n(-1): the row of phi(0)
    pinned = np.arange(m) * dim   # row of each g_i's constant equation

    def build_cycle(c_stack: np.ndarray):
        cycle = tuple(UnimodalMap(c) for c in c_stack)
        rens = tuple(renormalize_with(g, theta, degree=dim - 1)
                     for g, theta in zip(cycle, thetas))
        res = max(_sup_distance(rens[i].map, cycle[(i + 1) % m])
                  for i in range(m))
        return cycle, rens, res

    def jacobian(cycle, rens):
        jac = np.zeros((m * dim, m * dim))
        for i in range(m):
            rows = slice(i * dim, (i + 1) * dim)
            jac[rows, rows] = derivative_matrix(cycle[i], rens[i].step)
            nxt = (i + 1) % m
            jac[rows, nxt * dim:(nxt + 1) * dim] -= np.eye(dim)
            # pin the normalization of g_i in place of its constant equation
            jac[i * dim, :] = 0.0
            jac[i * dim, rows] = norm_row
        return jac

    def minus_residual(cycle, rens):
        rhs = -np.concatenate([rens[i].map.coeffs - cycle[(i + 1) % m].coeffs
                               for i in range(m)])
        rhs[pinned] = 0.0
        return rhs

    def step_to(delta, scale):
        """(c_stack, cycle, rens, res) after the step, or None if Newton
        cannot use the maps it reaches."""
        try:
            trial = np.stack([
                _basis.normalized_constant(c_stack[i] + scale * delta[i])
                for i in range(m)])
            return (trial,) + build_cycle(trial)
        except _NEWTON_RECOVERABLE:
            return None

    c_stack = np.stack(start)
    cycle, rens, res = build_cycle(c_stack)
    history = [res]
    if res < tol:
        return cycle, rens, res, tuple(history), 0

    for it in range(1, MAX_NEWTON_ITERS + 1):
        jac = jacobian(cycle, rens)
        delta = _newton_step(jac, minus_residual(cycle, rens), history)
        delta = delta.reshape(m, dim)
        for halvings in range(MAX_HALVINGS + 1):
            trial = step_to(delta, 0.5 ** halvings)
            if trial is not None and trial[3] < res:
                c_stack, cycle, rens, res = trial
                history.append(res)
                break
        else:
            raise NoConvergence(
                f"Newton stalled at residual {res:.3e} after {it} steps",
                history=tuple(history))
        if res < tol:
            chord = _newton_step(jac, minus_residual(cycle, rens), history)
            trial = step_to(chord.reshape(m, dim), 1.0)
            if trial is not None and trial[3] < res:
                c_stack, cycle, rens, res = trial
                history.append(res)
            return cycle, rens, res, tuple(history), len(history) - 1
    raise NoConvergence(
        f"residual {res:.3e} after {MAX_NEWTON_ITERS} iterations",
        history=tuple(history))


def _solve_cycle(thetas: tuple[tuple[int, ...], ...], degree: int,
                 tol: float):
    """The one Newton route, for every type and cycle: Newton at
    min(degree, COARSE_DEGREE) from _seed_cycle, then at `degree` from the
    zero-padded cycle.  Each stage ends with _newton_polish's chord step,
    so the coarse cycle reaches its rounding floor (the doubling fixed
    point in one Newton and one chord step); the Newton matrix amplifies
    rounding more the higher the degree, so the padded cycle usually meets
    tol in zero steps, and the fine stage certifies it either way.  Returns
    _newton_polish's tuple, with the history and step count of both
    stages, in order."""
    if degree > _basis.DEGREE_MAX:
        raise InvalidMap(f"degree above {_basis.DEGREE_MAX} unsupported")
    coarse = min(degree, COARSE_DEGREE)
    cycle, rens, res, history, iters = _newton_polish(
        [g.coeffs for g in _seed_cycle(thetas, coarse)], thetas, tol)
    if degree > coarse:
        cycle, rens, res, fine_history, fine_iters = _newton_polish(
            [_basis.padded(g.coeffs, degree) for g in cycle], thetas, tol)
        history, iters = history + fine_history, iters + fine_iters
    return cycle, rens, res, history, iters


def solve_fixed_point(theta: tuple[int, ...] = THETA_DOUBLING,
                      degree: int = 24,
                      tol: float = 1e-10) -> FixedPointResult:
    """Fixed point of R with combinatorial type theta: the one-member
    cycle of _solve_cycle.  `residual` is the fine stage's, at `degree`;
    `newton_iters` and `history` cover both stages, in order."""
    theta = tuple(theta)
    cycle, rens, res, history, iters = _solve_cycle((theta,), degree, tol)
    return FixedPointResult(map=cycle[0], theta=theta,
                            lambda_star=rens[0].step.lam, residual=res,
                            newton_iters=iters, history=history)


@dataclass(frozen=True)
class PeriodicOrbitResult:
    cycle: tuple[UnimodalMap, ...]
    combinatorics: tuple[tuple[int, ...], ...]
    residual: float
    multipliers: SpectralReport      # spectrum of the cycle product
    newton_iters: int
    history: tuple[float, ...]


def solve_periodic_orbit(thetas, degree: int = 24,
                         tol: float = 1e-10) -> PeriodicOrbitResult:
    """Cycle g_0 -> g_1 -> ... -> g_0 of R with prescribed per-step types."""
    thetas = tuple(tuple(t) for t in thetas)
    if not thetas:
        raise DomainError("need at least one combinatorial type")
    cycle, rens, res, history, iters = _solve_cycle(thetas, degree, tol)
    product = np.eye(degree + 1)
    for i in range(len(thetas)):
        product = derivative_matrix(cycle[i], rens[i].step) @ product
    report = spectral_report(product)
    observed = tuple(rens[i].step.perm for i in range(len(thetas)))
    return PeriodicOrbitResult(cycle=cycle, combinatorics=observed,
                               residual=res, multipliers=report,
                               newton_iters=iters, history=history)


# ---------------------------------------------------------------------------
# seeding via nested parameter windows of the quadratic family

_SEED_FAMILY = QuadraticFamily()


def _itinerary_ok(c: float, prefix) -> bool:
    """The families predicate on the seed family.  Nothing in the package
    calls it: the seeding chase runs in families.  It stays because
    perfbench/layers.py wraps this name, and `run.py --trace 1` raises if
    it is missing."""
    return _families._itinerary_ok(_SEED_FAMILY, float(c), prefix)


@cache
def _doubling_seed(degree: int) -> np.ndarray:
    """FEIGENBAUM_PHI in the basis at `degree`, read-only, built once per
    degree: the power series in u rewritten in t = 2u - 1, cut below
    degree 7 or zero-padded above it, then normalized."""
    in_t = Polynomial(FEIGENBAUM_PHI)(Polynomial([0.5, 0.5]))
    coeffs = _cheb.poly2cheb(in_t.coef)[:degree + 1]
    coeffs = _basis.normalized_constant(_basis.padded(coeffs, degree))
    coeffs.setflags(write=False)
    return coeffs


def _seed_cycle(thetas: tuple[tuple[int, ...], ...],
                degree: int) -> tuple[UnimodalMap, ...]:
    """Newton's start: Feigenbaum's polynomial for the doubling fixed point
    (residual about 3e-7 at degree 12, where the quadratic member's is
    0.4), else a parameter deep inside the nested windows, renormalized."""
    m = len(thetas)
    if m == 1 and thetas[0] == THETA_DOUBLING:
        return (UnimodalMap(_doubling_seed(degree)),)
    burn = m * max(1, math.ceil(2 / m))
    # a depth-d chase constrains positions < d: the burn-in and all m members
    c = _families.infinitely_renormalizable_parameter(
        _SEED_FAMILY, thetas, burn + max(3, m)).c
    g = _SEED_FAMILY.member(c, degree=degree)
    for i in range(burn):
        g = renormalize_with(g, thetas[i % m], degree=degree).map
    out = [g]
    for i in range(1, m):
        # stepping from cycle position i-1 consumes that position's type
        out.append(renormalize_with(out[-1], thetas[i - 1],
                                    degree=degree).map)
    return tuple(out)


@dataclass(frozen=True)
class ConvergenceReport:
    distances: np.ndarray    # d_n = sup |R^n f - R^n g|, n = 0..n_max
    slope: float             # fitted slope of log d_n
    intercept: float
    r_squared: float


def convergence_experiment(f: UnimodalMap, g: UnimodalMap,
                           n_max: int) -> ConvergenceReport:
    """Track sup-distance of renormalization orbits of two maps.

    Both maps must make the same combinatorial choices level by level;
    the first disagreement raises CombinatoricsMismatch with the level.
    The fit needs two distances, so n_max < 1 raises DomainError.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    ds = []
    cur_f, cur_g = f, g
    for n in range(n_max + 1):
        ds.append(_sup_distance(cur_f, cur_g))
        if n == n_max:
            break
        step_f = detect(cur_f)
        step_g = detect(cur_g)
        if (step_f.p, step_f.perm) != (step_g.p, step_g.perm):
            raise CombinatoricsMismatch(
                f"types diverge at level {n}: {step_f.perm} vs {step_g.perm}",
                level=n)
        cur_f = renormalize(cur_f, step=step_f).map
        cur_g = renormalize(cur_g, step=step_g).map
    ds = np.asarray(ds)
    ns = np.arange(ds.size, dtype=float)
    logs = np.log(np.maximum(ds, 1e-300))
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ConvergenceReport(distances=ds, slope=float(slope),
                             intercept=float(intercept), r_squared=r2)
