"""Sum-of-substitutions operators Lv(x) = sum_i phi_i(x) v(psi_i(x)).

The derivative of the renormalization operator has this form (plus a rank-one
part from the scaling sensitivity, stored separately), and the composition
algebra is closed: substituting one sum into another yields another sum.  The
associated positive operator weights each term by |Dpsi_i|^gamma; since it is
positive its sup-norm on continuous functions is attained at v = 1, which
makes norm growth under composition directly measurable.  The positive
weight is multiplicative, (L1 L2)_gamma = (L1)_gamma (L2)_gamma, so
norm_growth evaluates L_gamma^m 1 one level at a time: each word of L^m is
a row of grid values (points, phi-product, Dpsi-product), and level m costs
one call of each term's phi, psi and Dpsi on the p^(m-1) rows of level
m - 1, and gives gamma_norm(compose_power(L, m), gamma) bit for bit.  The
rank-one tails stay outside these estimates.

All inner maps carry analytic derivatives (chain rule over the stored
composition); nothing here differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebpts1

from .errors import OperatorDomainError, TermBlowup
from .maps import UnimodalMap
from .renorm import RenormStep, detect, iterate_derivative, orbit_stack

CONTAINMENT_GRID = 128
CONTAINMENT_TOL = 1e-10
NORM_GRID = 512
COMPOSE_CAP = 4096


@dataclass(frozen=True)
class SmoothMap1D:
    """A map of [-1,1] with its analytic derivative."""

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def d(self, x):
        return self.dfn(np.asarray(x, dtype=float))


def identity_map() -> SmoothMap1D:
    return SmoothMap1D(lambda x: x, np.ones_like)


def affine_map(a: float, b: float) -> SmoothMap1D:
    return SmoothMap1D(lambda x: a * x + b, lambda x: np.full_like(x, a))


def compose_smooth(outer: SmoothMap1D, inner: SmoothMap1D) -> SmoothMap1D:
    def fn(x):
        return outer.fn(inner.fn(x))

    def dfn(x):
        return outer.dfn(inner.fn(x)) * inner.dfn(x)

    return SmoothMap1D(fn, dfn)


def map_iterate(f: UnimodalMap, k: int, scale: float) -> SmoothMap1D:
    """x -> f^k(scale*x) with derivative scale*Df^k(scale*x)."""

    def fn(x):
        return orbit_stack(f, scale * np.asarray(x, float), k)[-1]

    def dfn(x):
        _, dv = iterate_derivative(f, scale * np.asarray(x, float), k)
        return scale * dv

    return SmoothMap1D(fn, dfn)


@dataclass(frozen=True)
class RankOneTail:
    """x -> weight(x) * sum_j coeffs[j] * v(nodes[j])."""

    weight: Callable[[np.ndarray], np.ndarray]
    nodes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if nodes.shape != coeffs.shape:
            raise OperatorDomainError("tail nodes and coeffs differ in shape")
        nodes.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)

    def functional(self, v) -> float:
        return float(np.dot(self.coeffs, v(self.nodes)))

    def apply(self, v, x: np.ndarray) -> np.ndarray:
        return self.weight(np.asarray(x, float)) * self.functional(v)


@dataclass(frozen=True)
class LOperator:
    """terms: (phi_i, psi_i) pairs; tails: additive rank-one parts.

    Every psi_i must map [-1,1] into itself (checked on a uniform grid at
    construction).
    """

    terms: tuple[tuple[Callable, SmoothMap1D], ...]
    tails: tuple[RankOneTail, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "tails", tuple(self.tails))
        grid = np.linspace(-1.0, 1.0, CONTAINMENT_GRID)
        for i, (_, psi) in enumerate(self.terms):
            img = psi(grid)
            excess = float(np.max(np.abs(img))) - 1.0
            if excess > CONTAINMENT_TOL:
                raise OperatorDomainError(
                    f"term {i}: psi image leaves [-1,1] by {excess:.3e}")
        for t in self.tails:
            excess = float(np.max(np.abs(t.nodes))) - 1.0
            if excess > CONTAINMENT_TOL:
                raise OperatorDomainError(
                    f"tail node outside [-1,1] by {excess:.3e}")

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def identity_operator() -> LOperator:
    return LOperator(terms=((lambda x: np.ones_like(x), identity_map()),))


def apply(L: LOperator, v, grid) -> np.ndarray:
    """Pointwise Lv on grid points in [-1,1]."""
    x = np.asarray(grid, dtype=float)
    if x.size and float(np.max(np.abs(x))) > 1.0 + CONTAINMENT_TOL:
        raise OperatorDomainError("grid leaves [-1,1]")
    out = np.zeros_like(x)
    for phi, psi in L.terms:
        out = out + phi(x) * v(psi(x))
    for t in L.tails:
        out = out + t.apply(v, x)
    return out


def _positive_gamma(gamma) -> float:
    gamma = float(gamma)
    if not gamma > 0.0:
        raise OperatorDomainError(f"gamma must be positive, got {gamma}")
    return gamma


def apply_positive(L: LOperator, gamma: float, v, grid) -> np.ndarray:
    """L_gamma v(x) = sum_i |phi_i(x)| |Dpsi_i(x)|^gamma v(psi_i(x)).

    Acts on the principal terms only; the rank-one tails are not of
    substitution form and stay outside the positive-operator estimates.
    """
    gamma = _positive_gamma(gamma)
    x = np.asarray(grid, dtype=float)
    out = np.zeros_like(x)
    for phi, psi in L.terms:
        out = out + (np.abs(phi(x)) * np.abs(psi.d(x))**gamma) * v(psi(x))
    return out


def gamma_norm(L: LOperator, gamma: float) -> float:
    """Sup-norm of L_gamma on C[-1,1]; attained at v = 1 by positivity."""
    grid = chebpts1(NORM_GRID)
    vals = apply_positive(L, gamma, lambda y: np.ones_like(y), grid)
    return float(np.max(vals))


def _product_phi(phi1, phi2, psi1):
    def phi(x):
        return phi1(x) * phi2(psi1(x))

    return phi


def _pullback_weight(phi1, psi1, w2):
    def weight(x):
        return phi1(x) * w2(psi1(x))

    return weight


def _scaled_weight(w, c: float):
    def weight(x):
        return c * w(x)

    return weight


def compose(L1: LOperator, L2: LOperator) -> LOperator:
    """L1 after L2: (L1 L2)v(x) = sum_ij phi1_i(x) phi2_j(psi1_i(x)) v(psi2_j(psi1_i(x))).

    Rank-one parts propagate: L1's principal terms pull L2's tails back
    through psi1; L1's tails evaluate all of L2 at their nodes, which stays
    rank-one.  TermBlowup guards the product growth past COMPOSE_CAP.
    """
    n_terms = L1.n_terms * L2.n_terms
    if n_terms > COMPOSE_CAP:
        raise TermBlowup(f"composition would carry {n_terms} terms "
                         f"(cap {COMPOSE_CAP})")
    terms = []
    for phi1, psi1 in L1.terms:
        for phi2, psi2 in L2.terms:
            terms.append((_product_phi(phi1, phi2, psi1),
                          compose_smooth(psi2, psi1)))
    tails = []
    # principal(L1) applied to each tail of L2
    for phi1, psi1 in L1.terms:
        for t2 in L2.tails:
            tails.append(RankOneTail(_pullback_weight(phi1, psi1, t2.weight),
                                     t2.nodes, t2.coeffs))
    # tails of L1 applied to all of L2: functional(L2 v) re-expands over nodes
    for t1 in L1.tails:
        nodes = []
        coeffs = []
        for phi2, psi2 in L2.terms:
            nodes.append(psi2(t1.nodes))
            coeffs.append(t1.coeffs * phi2(t1.nodes))
        if nodes:
            merged = np.concatenate(nodes)
            if merged.size > COMPOSE_CAP:
                raise TermBlowup(f"composed tail would carry {merged.size} "
                                 f"nodes (cap {COMPOSE_CAP})")
            tails.append(RankOneTail(t1.weight, merged,
                                     np.concatenate(coeffs)))
        for t2 in L2.tails:
            c = float(np.dot(t1.coeffs, t2.weight(t1.nodes)))
            tails.append(RankOneTail(_scaled_weight(t1.weight, c),
                                     t2.nodes, t2.coeffs))
    return LOperator(terms=tuple(terms), tails=tuple(tails))


def compose_power(L: LOperator, m: int) -> LOperator:
    if m < 1:
        raise OperatorDomainError(f"power must be >= 1, got {m}")
    out = L
    for _ in range(m - 1):
        out = compose(out, L)
    return out


def _renorm_phi(f: UnimodalMap, lam: float, p: int, j: int):
    def phi(x):
        y = orbit_stack(f, lam * np.asarray(x, float), p - j)[-1]
        _, dj = iterate_derivative(f, y, j)
        return dj / lam

    return phi


def renorm_derivative_as_loperator(f: UnimodalMap,
                                   step: RenormStep | None = None) -> LOperator:
    """Derivative of the renormalization at f, as substitution terms plus a
    rank-one tail.

    Term j has phi_j(x) = Df^j(f^{p-j}(lam x)) / lam and
    psi_j(x) = f^{p-j-1}(lam x); the tail carries the scaling sensitivity,
    with weight (x Df^p(lam x) - f^p(lam x)/lam)/lam and the critical-orbit
    functional sum_j Df^j(f^{p-j}(0)) v(f^{p-j-1}(0)).
    """
    if step is None:
        step = detect(f)
    p, lam = step.p, step.lam

    terms = [(_renorm_phi(f, lam, p, j), map_iterate(f, p - j - 1, lam))
             for j in range(p)]

    crit = orbit_stack(f, np.zeros(1), p)
    nodes = crit[p - 1::-1, 0]
    coeffs = np.array([iterate_derivative(f, crit[p - j], j)[1][0]
                       for j in range(p)])

    def tail_weight(x):
        x = np.asarray(x, dtype=float)
        zp, dp = iterate_derivative(f, lam * x, p)
        return (x * dp - zp / lam) / lam

    tail = RankOneTail(tail_weight, nodes, coeffs)
    return LOperator(terms=tuple(terms), tails=(tail,))


def norm_growth(L: LOperator, gamma: float, m_max: int) -> np.ndarray:
    """gamma_norm of L, L^2, ..., L^m_max (principal parts), by expanding
    the words of L level by level on the grid.

    The weight of the word i_1..i_m at x is
    |phi_{i_1}(x) phi_{i_2}(y_1) ... phi_{i_m}(y_{m-1})|
    |Dpsi_{i_m}(y_{m-1}) ... Dpsi_{i_1}(x)|^gamma, y_k its k-th point, so
    (L1 L2)_gamma = (L1)_gamma (L2)_gamma and level m follows from level
    m - 1 by one evaluation of each term on all its rows: O(m p) kernel
    calls on arrays of up to p^m rows, where composing the operators costs
    O(m p^m) calls through nested closures.  Words are stacked in
    compose's order (word i then term j at row i p + j) and summed in
    apply_positive's order, so every norm equals
    gamma_norm(compose_power(L, m), gamma) bit for bit.

    compose's term checks are kept: TermBlowup when p^m > COMPOSE_CAP, and
    OperatorDomainError, with compose's message, when a word's psi leaves
    [-1,1] on the CONTAINMENT_GRID points.  The tails do not enter the
    principal-part norm and are neither composed nor checked; for
    renorm_derivative_as_loperator their node count equals the term count,
    so compose's term cap fires first there too.
    """
    gamma = _positive_gamma(gamma)
    if not L.terms:
        return np.zeros(m_max)
    out = np.empty(m_max)
    p = L.n_terms
    # each row is a word; the NORM_GRID columns carry the norm, the
    # CONTAINMENT_GRID columns only the containment check
    ys = np.concatenate([chebpts1(NORM_GRID),
                         np.linspace(-1.0, 1.0, CONTAINMENT_GRID)])[None, :]
    phis = np.ones((1, NORM_GRID))
    dpsis = np.ones((1, NORM_GRID))
    for m in range(1, m_max + 1):
        n_terms = ys.shape[0] * p
        if m > 1 and n_terms > COMPOSE_CAP:
            raise TermBlowup(f"composition would carry {n_terms} terms "
                             f"(cap {COMPOSE_CAP})")
        at = ys[:, :NORM_GRID]
        level = [(psi(ys), phis * phi(at), psi.d(at) * dpsis)
                 for phi, psi in L.terms]
        ys, phis, dpsis = (np.stack(arrs, axis=1).reshape(n_terms, -1)
                           for arrs in zip(*level))
        excess = np.max(np.abs(ys[:, NORM_GRID:]), axis=1) - 1.0
        bad = np.flatnonzero(excess > CONTAINMENT_TOL)
        if bad.size:
            raise OperatorDomainError(
                f"term {int(bad[0])}: psi image leaves [-1,1] by "
                f"{float(excess[bad[0]]):.3e}")
        total = np.zeros(NORM_GRID)
        for w in np.abs(phis) * np.abs(dpsis)**gamma:
            total = total + w
        out[m - 1] = float(np.max(total))
    return out
