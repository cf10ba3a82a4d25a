"""Reference values the benchmark checks the package's results against.

Each constant is stated to more digits than double precision can hold, so
the digit metrics are limited by the package, never by the reference.  The
functions below recompute every constant with mpmath, independently of the
package, for the self-test; the benchmark itself only reads the constants.
"""

from __future__ import annotations

import math

DIGITS = {
    # Feigenbaum delta and alpha: Briggs, Math. Comp. 57 (1991) 435-439;
    # OEIS A006890 and A006891.
    "delta": "4.66920160910299067185320382",
    "alpha": "2.50290787509589282228390287",
    # accumulation point of the doubling cascade of 1 - c x^2
    "c_inf": "1.40115518909205060052",
    # period-3 superstable parameter: real root of c^3 - 2c^2 + c - 1
    "superstable3": "1.754877666246692760049508896359",
    # lambda = g^3(0) of the period-tripling fixed point g(x) = g^3(lam x)/lam
    # (power-series collocation in mpmath, see below; 16 and 20 terms agree
    # to 30 digits)
    "tripling_lambda": "-0.10778950429255075546354518683",
}
REFS = {key: float(text) for key, text in DIGITS.items()}
# lambda* of the doubling fixed point is -1/alpha
REFS["lambda"] = -1.0 / REFS["alpha"]


def rel_error(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def digits(value: float, ref: float) -> float:
    """-log10 of the relative error, floored at one ulp of the reference."""
    err = max(abs(value - ref), math.ulp(ref))
    return -math.log10(err / abs(ref))


# ---------------------------------------------------------------------------
# independent recomputation with mpmath (self-test only)


def _series_fixed_point(p: int, c_guess: float, terms: int, dps: int):
    """Solve g(x) = g^p(lam x)/lam, lam = g^p(0), for g(x) = 1 +
    sum_k a_k x^(2k) by Newton on a collocation system; returns (a, lam,
    nodes).  Starts from the quadratic 1 - c_guess x^2."""
    import mpmath as mp
    mp.mp.dps = dps
    nodes = [(1 - mp.cos(mp.pi * (2 * i + 1) / (2 * terms))) / 2
             for i in range(terms)]

    def g(a, x):
        u = x * x
        s = mp.mpf(0)
        for c in reversed(a):
            s = s * u + c
        return 1 + s * u

    def residual(a):
        lam = mp.mpf(0)
        for _ in range(p):
            lam = g(a, lam)
        out = []
        for u in nodes:
            x = mp.sqrt(u)
            y = lam * x
            for _ in range(p):
                y = g(a, y)
            out.append(g(a, x) - y / lam)
        return mp.matrix(out), lam

    a = [mp.mpf(-c_guess)] + [mp.mpf(0)] * (terms - 1)
    h = mp.mpf(10) ** (-(dps // 2))
    for _ in range(40):
        f0, lam = residual(a)
        if mp.norm(f0, mp.inf) < mp.mpf(10) ** (8 - dps):
            return a, lam, nodes, g
        jac = mp.matrix(terms, terms)
        for j in range(terms):
            a2 = list(a)
            a2[j] += h
            f1, _ = residual(a2)
            for i in range(terms):
                jac[i, j] = (f1[i] - f0[i]) / h
        step = mp.lu_solve(jac, -f0)
        a = [a[k] + step[k] for k in range(terms)]
    raise ArithmeticError("series Newton did not converge")


def _leading_eigenvalue(p: int, a, nodes, g, dps: int):
    """Leading eigenvalue of the derivative of the coefficient map
    a -> interpolant of T(g) - 1 at the fixed point a."""
    import mpmath as mp
    mp.mp.dps = dps
    n = len(a)
    vander = mp.matrix(n, n)
    for i, u in enumerate(nodes):
        for k in range(n):
            vander[i, k] = u ** (k + 1)
    inv = mp.inverse(vander)

    def coeff_map(a):
        lam = mp.mpf(0)
        for _ in range(p):
            lam = g(a, lam)
        vals = []
        for u in nodes:
            y = lam * mp.sqrt(u)
            for _ in range(p):
                y = g(a, y)
            vals.append(y / lam - 1)
        return inv * mp.matrix(vals)

    h = mp.mpf(10) ** (-(dps // 2))
    b0 = coeff_map(a)
    jac = mp.matrix(n, n)
    for j in range(n):
        a2 = list(a)
        a2[j] += h
        b1 = coeff_map(a2)
        for i in range(n):
            jac[i, j] = (b1[i] - b0[i]) / h
    eigs = mp.eig(jac, left=False, right=False)
    return mp.re(max(eigs, key=abs))


def _cascade_limit(levels: int, dps: int):
    """c_infinity from mpmath superstable parameters c_n (period 2^n) with
    the geometric tail at the reference delta, then one Aitken step."""
    import mpmath as mp
    mp.mp.dps = dps
    delta = mp.mpf(DIGITS["delta"])

    def root(q, c):
        for _ in range(60):
            x, dx = mp.mpf(0), mp.mpf(0)
            for _ in range(q):
                x, dx = 1 - c * x * x, -x * x - 2 * c * x * dx
            step = x / dx
            c -= step
            if abs(step) < mp.mpf(10) ** (4 - dps):
                return c
        raise ArithmeticError(f"no period-{q} superstable root")

    cs = [root(2, mp.mpf(1)), root(4, mp.mpf("1.31"))]
    tails = []
    for n in range(3, levels + 1):
        cs.append(root(2 ** n, cs[-1] + (cs[-1] - cs[-2]) / delta))
        tails.append(cs[-1] + (cs[-1] - cs[-2]) / (delta - 1))
    t0, t1, t2 = tails[-3:]
    return t2 - (t2 - t1) ** 2 / (t2 - 2 * t1 + t0)


def recompute(dps: int = 50) -> dict[str, object]:
    """Every reference recomputed with mpmath, as mpf values."""
    import mpmath as mp
    mp.mp.dps = dps
    out = {}
    a, lam, nodes, g = _series_fixed_point(2, 1.5276, 20, dps)
    out["alpha"] = -1 / lam
    out["delta"] = _leading_eigenvalue(2, a, nodes, g, dps)
    _, lam3, _, _ = _series_fixed_point(3, 1.786, 16, dps)
    out["tripling_lambda"] = lam3
    mp.mp.dps = dps
    out["superstable3"] = mp.findroot(lambda c: c**3 - 2 * c**2 + c - 1,
                                      mp.mpf("1.75"))
    out["c_inf"] = _cascade_limit(15, dps)
    return out


def stated_correctly(stated: str, value) -> bool:
    """Is the stated decimal within one unit of its last digit of value?"""
    import mpmath as mp
    decimals = len(stated.partition(".")[2])
    return abs(mp.mpf(stated) - value) <= mp.mpf(10) ** -decimals
