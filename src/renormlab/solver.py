"""Newton solving for renormalization fixed points and cycles, and spectra
of the operator's derivative.

Everything happens in the coefficient space of phi.  The derivative of
T(f) = f^p(lam x)/lam at f, acting on an even perturbation v, is

    DT(f) v (x) = (1/lam) sum_{j<p} Df^j(f^{p-j}(lam x)) v(f^{p-j-1}(lam x))
                + (1/lam) [x (Tf)'(x) - Tf(x)] sum_{j<p} Df^j(z_{p-j}) v(z_{p-j-1})

with z_i = f^i(0); the second, rank-one term is the sensitivity of the
scaling lam = f^p(0) to the perturbation.  Projected onto the basis this
gives a dense matrix whose dominant eigenvalue at the period-doubling fixed
point is the expansion constant delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import basis as _basis
from . import families as _families
from .basis import PhiBasis
from .errors import (CombinatoricsMismatch, DegenerateScaling, DomainError,
                     InvalidMap, NoConvergence, NotRenormalizable,
                     TruncationLoss)
from .maps import QuadraticFamily, UnimodalMap
from .renorm import (THETA_DOUBLING, RenormStep, detect, orbit_stack,
                     project_T, renormalize, renormalize_with, slopes)

UNSTABLE_CUTOFF = 1e-6   # |eig| > 1 + cutoff counts as expanding
MAX_HALVINGS = 8         # damping halvings per Newton step
RESIDUAL_GRID = 200      # points of [-1, 1] for the Newton residual sup
SUP_GRID = 512           # points of [0, 1] for the eigenvector sup norm
MAX_NEWTON_ITERS = 50    # Newton steps before NoConvergence

# classical starting guess for the period-doubling fixed point
DOUBLING_SEED_C = 1.5276


def _suffix_products(fps: np.ndarray) -> np.ndarray:
    """amp[j] = fps[p-1] * ... * fps[p-j] for j = 0..p (amp[0] = 1)."""
    return np.concatenate([np.ones((1,) + fps.shape[1:]),
                           np.cumprod(fps[::-1], axis=0)])


def derivative_matrix(f: UnimodalMap,
                      step: RenormStep | None = None) -> np.ndarray:
    """Matrix of DT(f) on the coefficient space, shape (D+1, D+1).

    Column n is the projection of DT(f) applied to the n-th basis element,
    through the same basis.project_function renormalize uses, so this matrix
    is exactly the derivative of the discretized operator (what Newton and
    finite-difference checks need).  Images of high-order basis elements
    genuinely exceed degree D, so their fit residual is not small; it is
    informational and dropped here.
    """
    if step is None:
        step = detect(f)
    p, lam = step.p, step.lam
    dim = f.degree + 1

    # scaling sensitivity along the critical orbit
    zc = orbit_stack(f, 0.0, p)
    campl = _suffix_products(slopes(f, zc[:p]))
    crit_design = _basis.design_matrix(zc[p - 1::-1] ** 2, dim - 1, f.basis)
    sens = campl[:p] @ crit_design

    def images(u):
        """Row n: DT(f) applied to the n-th basis element, at the nodes u."""
        x = np.sqrt(u)
        zs = orbit_stack(f, lam * x, p)
        # suffix products: amp[j] = Df^j evaluated at z_{p-j}
        amp = _suffix_products(slopes(f, zs[:p]))
        # basis values at the arguments of v: rows j = 0..p-1 use z_{p-j-1}
        design = _basis.design_matrix(zs[p - 1::-1].ravel() ** 2, dim - 1,
                                      f.basis).reshape(p, x.size, dim)
        principal = np.einsum("jt,jtn->tn", amp[:p], design) / lam
        tail_weight = (x * amp[p] - zs[p] / lam) / lam
        return (principal + np.outer(tail_weight, sens)).T

    return _basis.project_function(images, dim - 1, f.basis)[0].T


def finite_difference_matrix(f: UnimodalMap, h: float = 1e-6) -> np.ndarray:
    """Central-difference check of derivative_matrix via raw coefficient
    perturbations (the perturbed maps are built unchecked on purpose: the
    operator itself never assumes f(0) = 1)."""
    dim = f.degree + 1
    base = np.array(f.coeffs)
    cols = np.empty((dim, dim))

    def coeffs_of_T(c):
        g = UnimodalMap(c, f.basis, check=False)
        return project_T(g, detect(g, validate_input=False), f.degree)[0]

    for n in range(dim):
        plus, minus = base.copy(), base.copy()
        plus[n] += h
        minus[n] -= h
        cols[:, n] = (coeffs_of_T(plus) - coeffs_of_T(minus)) / (2.0 * h)
    return cols


@dataclass(frozen=True)
class SpectralReport:
    matrix_dim: int
    eigenvalues: np.ndarray          # sorted by modulus desc, pairs adjacent
    delta: float                     # leading eigenvalue (real part)
    gap: float                       # modulus of the second eigenvalue
    hyperbolic: bool                 # exactly one eigenvalue outside the disk
    unstable_vector: np.ndarray      # coefficient vector, sup-norm 1 as a map
    stable_functional: np.ndarray    # left eigenvector, sigma(u) = 1


def _sorted_eigensystem(mat: np.ndarray):
    vals, vecs = scipy.linalg.eig(mat)
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


def spectral_report(mat: np.ndarray, basis: PhiBasis) -> SpectralReport:
    vals, vecs = _sorted_eigensystem(mat)
    dim = mat.shape[0]
    outside = np.abs(vals) > 1.0 + UNSTABLE_CUTOFF
    hyperbolic = int(np.count_nonzero(outside)) == 1
    delta = float(vals[0].real)
    gap = float(np.abs(vals[1]))

    u_vec = _realified(vecs[:, 0])
    grid = np.linspace(0.0, 1.0, SUP_GRID)
    sup = float(np.max(np.abs(_basis.eval_phi(u_vec, basis, grid))))
    u_vec = u_vec / sup

    lvals, lvecs = _sorted_eigensystem(mat.T)
    li = int(np.argmin(np.abs(lvals - vals[0])))
    sigma = _realified(lvecs[:, li])
    pairing = float(sigma @ u_vec)
    sigma = sigma / pairing

    direction = _increasing_c_direction(dim)
    if float(sigma @ direction) < 0.0:
        u_vec = -u_vec
        sigma = -sigma
    return SpectralReport(matrix_dim=dim, eigenvalues=vals, delta=delta,
                          gap=gap, hyperbolic=hyperbolic,
                          unstable_vector=u_vec, stable_functional=sigma)


def spectrum(f: UnimodalMap) -> SpectralReport:
    """Eigendata of DT at f (usually a solved fixed point)."""
    mat = derivative_matrix(f)
    return spectral_report(mat, f.basis)


@dataclass(frozen=True)
class FixedPointResult:
    map: UnimodalMap
    theta: tuple[int, ...]
    lambda_star: float
    residual: float                 # sup |Rg - g| on the residual grid
    newton_iters: int
    history: tuple[float, ...]      # residual per accepted iterate

    @property
    def g(self) -> UnimodalMap:
        return self.map


def _sup_distance(f: UnimodalMap, g: UnimodalMap) -> float:
    xs = np.linspace(-1.0, 1.0, RESIDUAL_GRID)
    return float(np.max(np.abs(f(xs) - g(xs))))


_NEWTON_RECOVERABLE = (InvalidMap, NotRenormalizable, DegenerateScaling,
                       CombinatoricsMismatch, TruncationLoss, DomainError)


def _newton_polish(g: UnimodalMap, thetas: tuple[tuple[int, ...], ...],
                   tol: float,
                   start_cycle: tuple[UnimodalMap, ...] | None = None):
    """Damped Newton on the m-cycle system R(g_i) = g_{i+1 mod m}, until
    the sup residual is under tol.

    Returns (cycle, steps, residual, history, iterations).  m = 1 is the
    fixed-point equation; the block Jacobian couples consecutive cycle
    positions.
    """
    m = len(thetas)
    dim = g.coeffs.size
    basis = g.basis
    norm_row = _basis.design_matrix(np.zeros(1), dim - 1, basis)[0]

    def build_cycle(c_stack: np.ndarray):
        cycle, rens = [], []
        for i in range(m):
            cycle.append(UnimodalMap(c_stack[i], basis))
        for i in range(m):
            rens.append(renormalize_with(cycle[i], thetas[i], degree=dim - 1))
        res = 0.0
        for i in range(m):
            res = max(res, _sup_distance(rens[i].map, cycle[(i + 1) % m]))
        return tuple(cycle), tuple(rens), res

    if start_cycle is None:
        c_stack = np.tile(g.coeffs, (m, 1))
    else:
        c_stack = np.stack([h.coeffs for h in start_cycle])
    cycle, rens, res = build_cycle(c_stack)
    history = [res]

    for it in range(1, MAX_NEWTON_ITERS + 1):
        if res < tol:
            return cycle, rens, res, tuple(history), it - 1
        jac = np.zeros((m * dim, m * dim))
        rhs = np.zeros(m * dim)
        for i in range(m):
            mat = derivative_matrix(cycle[i], rens[i].step)
            rows = slice(i * dim, (i + 1) * dim)
            jac[rows, rows] = mat
            nxt = (i + 1) % m
            jac[rows, nxt * dim:(nxt + 1) * dim] -= np.eye(dim)
            rhs[rows] = -(rens[i].map.coeffs - cycle[nxt].coeffs)
            # pin the normalization of g_i in place of its constant equation
            jac[i * dim, :] = 0.0
            jac[i * dim, i * dim:(i + 1) * dim] = norm_row
            rhs[i * dim] = 0.0
        delta = scipy.linalg.solve(jac, rhs).reshape(m, dim)

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            try:
                trial = np.stack([
                    _basis.normalized_constant(c_stack[i] + scale * delta[i],
                                               basis) for i in range(m)])
                cyc_t, rens_t, res_t = build_cycle(trial)
            except _NEWTON_RECOVERABLE:
                scale /= 2.0
                continue
            if res_t < res:
                c_stack, cycle, rens, res = trial, cyc_t, rens_t, res_t
                history.append(res)
                break
            scale /= 2.0
        else:
            raise NoConvergence(
                f"Newton stalled at residual {res:.3e} after {it} steps",
                history=tuple(history))
    raise NoConvergence(
        f"residual {res:.3e} after {MAX_NEWTON_ITERS} iterations",
        history=tuple(history))


def solve_fixed_point(theta: tuple[int, ...] = THETA_DOUBLING,
                      degree: int = 24, tol: float = 1e-10,
                      seed: UnimodalMap | None = None) -> FixedPointResult:
    """Fixed point of R with combinatorial type theta.

    The doubling type starts from the classical quadratic guess; other types
    are seeded by chasing the nested parameter windows of the quadratic
    family and renormalizing a parameter from deep inside.
    """
    theta = tuple(theta)
    if seed is None:
        seed = _seed_cycle((theta,), degree)[0]
    cycle, rens, res, history, iters = _newton_polish(seed, (theta,), tol)
    g = cycle[0]
    return FixedPointResult(map=g, theta=theta, lambda_star=rens[0].step.lam,
                            residual=res, newton_iters=iters, history=history)


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
    seeds = _seed_cycle(thetas, degree)
    cycle, rens, res, history, iters = _newton_polish(
        seeds[0], thetas, tol, start_cycle=seeds)
    product = np.eye(degree + 1)
    for i in range(len(thetas)):
        product = derivative_matrix(cycle[i], rens[i].step) @ product
    report = spectral_report(product, cycle[0].basis)
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


def _seed_cycle(thetas: tuple[tuple[int, ...], ...],
                degree: int) -> tuple[UnimodalMap, ...]:
    m = len(thetas)
    if m == 1 and thetas[0] == THETA_DOUBLING:
        base = _SEED_FAMILY.member(DOUBLING_SEED_C, degree=degree)
        return (base,)
    burn = m * max(1, math.ceil(2 / m))
    depth = burn + 3
    prefix = tuple(thetas[d % m] for d in range(depth))
    c = _families.infinitely_renormalizable_parameter(
        _SEED_FAMILY, thetas, depth).c
    g = _SEED_FAMILY.member(c, degree=degree)
    for i in range(burn):
        g = renormalize_with(g, prefix[i], degree=degree).map
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
    """
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
