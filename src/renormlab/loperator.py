"""Sum-of-substitutions operators Lv(x) = sum_i w_i(x) v(y_i(x)).

The derivative of the renormalization operator has this form (plus a rank-one
part from the scaling sensitivity, stored separately), and the composition
algebra is closed: substituting one sum into another yields another sum.  The
associated positive operator weights each term by |Dy_i|^gamma; since it is
positive its sup-norm on continuous functions is attained at v = 1, which
makes norm growth under composition directly measurable.

An operator is one function of the points, branches(x) -> (w, y, dy): the
weight, point and point derivative of every term, as (n_terms, x.size)
arrays.  Composition has one rule, _extend, which follows every word (a row
of w, y, dy) by every term of the next operator; compose builds its
branches with it and norm_growth expands L^m with it level by level, so
norm_growth equals gamma_norm of the m-fold compose bit for bit because
both run the same code.  The rank-one tails stay outside the norm
estimates.  All derivatives are analytic chain-rule products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebpts1

from .errors import OperatorDomainError, TermBlowup
from .maps import UnimodalMap
from .renorm import (RenormStep, derivative_branches, derivative_terms,
                     detect)

CONTAINMENT_GRID = 128
CONTAINMENT_TOL = 1e-10
NORM_GRID = 512
COMPOSE_CAP = 4096


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


def _check_contained(y: np.ndarray) -> None:
    """OperatorDomainError naming the first row of points y that leaves
    [-1,1] by more than CONTAINMENT_TOL."""
    excess = np.max(np.abs(y), axis=1) - 1.0
    bad = np.flatnonzero(excess > CONTAINMENT_TOL)
    if bad.size:
        raise OperatorDomainError(
            f"term {int(bad[0])}: psi image leaves [-1,1] by "
            f"{float(excess[bad[0]]):.3e}")


def _term_cap(n_terms: int) -> None:
    if n_terms > COMPOSE_CAP:
        raise TermBlowup(f"composition would carry {n_terms} terms "
                         f"(cap {COMPOSE_CAP})")


@dataclass(frozen=True)
class LOperator:
    """Lv(x) = sum_i w_i(x) v(y_i(x)) plus additive rank-one tails.

    branches(x) returns (w, y, dy) for the 1-d points x, each of shape
    (n_terms, x.size).  Construction evaluates it on CONTAINMENT_GRID
    uniform points, checks the shapes and that every y_i maps [-1,1] into
    itself, and that every tail node lies in [-1,1].
    """

    branches: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    n_terms: int
    tails: tuple[RankOneTail, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tails", tuple(self.tails))
        grid = np.linspace(-1.0, 1.0, CONTAINMENT_GRID)
        w, y, dy = self.branches(grid)
        want = (self.n_terms, CONTAINMENT_GRID)
        if any(a.shape != want for a in (w, y, dy)):
            raise OperatorDomainError(f"branches must give shape {want}")
        _check_contained(y)
        for t in self.tails:
            excess = float(np.max(np.abs(t.nodes))) - 1.0
            if excess > CONTAINMENT_TOL:
                raise OperatorDomainError(
                    f"tail node outside [-1,1] by {excess:.3e}")


def _principal(L: LOperator, v, x: np.ndarray) -> np.ndarray:
    """sum_i w_i(x) v(y_i(x)), the terms of L without its tails."""
    w, y, _ = L.branches(x)
    out = np.zeros_like(x)
    for wi, yi in zip(w, y):
        out = out + wi * v(yi)
    return out


def _positive_gamma(gamma) -> float:
    gamma = float(gamma)
    if not gamma > 0.0:
        raise OperatorDomainError(f"gamma must be positive, got {gamma}")
    return gamma


def _positive_sup(w, dy, gamma: float) -> float:
    """max over the columns of sum_i |w_i| |dy_i|^gamma, rows added in
    order: L_gamma 1 on the grid of the columns."""
    total = np.zeros(w.shape[1])
    for row in np.abs(w) * np.abs(dy)**gamma:
        total = total + row
    return float(np.max(total))


def gamma_norm(L: LOperator, gamma: float) -> float:
    """Sup-norm of L_gamma on C[-1,1]; attained at v = 1 by positivity."""
    w, _, dy = L.branches(chebpts1(NORM_GRID))
    return _positive_sup(w, dy, _positive_gamma(gamma))


def _extend(L: LOperator, w, y, dy):
    """The words (w, y, dy), rows of k points, each followed by every term
    of L, whose branches run once on all their points: row i n + j is word
    i then term j (n = L.n_terms), and w and dy multiply along the word."""
    rows, k = y.shape
    w2, y2, dy2 = L.branches(y.ravel())

    def words(a):  # (n, rows * k) -> (rows, n, k)
        return a.reshape(L.n_terms, rows, k).swapaxes(0, 1)

    return ((w[:, None] * words(w2)).reshape(-1, k),
            words(y2).reshape(-1, k),
            (words(dy2) * dy[:, None]).reshape(-1, k))


def _scaled_weight(w, c: float):
    def weight(x):
        return c * w(x)

    return weight


def compose(L1: LOperator, L2: LOperator) -> LOperator:
    """L1 after L2: (L1 L2)v(x) = sum_ij w1_i(x) w2_j(y1_i(x)) v(y2_j(y1_i(x))).

    Rank-one parts propagate: L1's principal terms pull each L2 tail back
    into one tail; L1's tails evaluate all of L2 at their nodes, which
    stays rank-one.  TermBlowup guards the product growth past COMPOSE_CAP.
    """
    n_terms = L1.n_terms * L2.n_terms
    _term_cap(n_terms)
    tails = [RankOneTail(partial(_principal, L1, t2.weight), t2.nodes,
                         t2.coeffs) for t2 in L2.tails]
    # tails of L1 applied to all of L2: functional(L2 v) re-expands over nodes
    for t1 in L1.tails:
        if L2.n_terms:
            w2, y2, _ = L2.branches(t1.nodes)
            if y2.size > COMPOSE_CAP:
                raise TermBlowup(f"composed tail would carry {y2.size} "
                                 f"nodes (cap {COMPOSE_CAP})")
            tails.append(RankOneTail(t1.weight, y2.ravel(),
                                     (t1.coeffs * w2).ravel()))
        for t2 in L2.tails:
            c = float(np.dot(t1.coeffs, t2.weight(t1.nodes)))
            tails.append(RankOneTail(_scaled_weight(t1.weight, c),
                                     t2.nodes, t2.coeffs))
    return LOperator(lambda x: _extend(L2, *L1.branches(x)), n_terms,
                     tuple(tails))


def renorm_derivative_as_loperator(f: UnimodalMap,
                                   step: RenormStep | None = None) -> LOperator:
    """Derivative of the renormalization at f: the p substitution terms of
    renorm.derivative_branches, whose one orbit of lam x stops at step
    p - 1, and the rank-one term, whose weight is the tail and functional
    the (nodes, coeffs) of renorm.derivative_terms, the latter at no x."""
    if step is None:
        step = detect(f)

    def branches(x):
        return derivative_branches(f, step, x)

    def tail_weight(x):
        return derivative_terms(f, step, x)[2]

    tail = RankOneTail(tail_weight,
                       *derivative_terms(f, step, np.empty(0))[3:])
    return LOperator(branches, step.p, (tail,))


def norm_growth(L: LOperator, gamma: float, m_max: int) -> np.ndarray:
    """gamma_norm of L, L^2, ..., L^m_max (principal parts): level m is
    _extend(L, level m - 1), one branches call on the points of all
    p^(m-1) words, where composing L m times evaluates every level below
    again; each norm equals gamma_norm of that m-fold compose bit for bit.

    compose's checks are kept: TermBlowup when p^m > COMPOSE_CAP, and
    OperatorDomainError, with compose's message, when a word's point
    leaves [-1,1] on the CONTAINMENT_GRID points.  The tails are neither
    composed nor checked; for renorm_derivative_as_loperator their node
    count equals the term count, so the term cap fires first there too.
    """
    gamma = _positive_gamma(gamma)
    # the NORM_GRID columns carry the norm, the CONTAINMENT_GRID columns
    # only the containment check
    grid = np.concatenate([chebpts1(NORM_GRID),
                           np.linspace(-1.0, 1.0, CONTAINMENT_GRID)])
    level = L.branches(grid)
    out = np.empty(m_max)
    for m in range(m_max):
        if m:
            _term_cap(len(level[0]) * L.n_terms)
            level = _extend(L, *level)
            _check_contained(level[1][:, NORM_GRID:])
        w, _, dy = level
        out[m] = _positive_sup(w[:, :NORM_GRID], dy[:, :NORM_GRID], gamma)
    return out
