"""The one root routine of the package, and its one bracket rule.

brent solves a scalar equation h(x) = 0 in Python floats to float
resolution.  families roots the critical-orbit equations of window edges and
superstable parameters with it, geometry the covering-sum equation of the
dimension estimate.  brackets is the package's one test of a bracket.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoBracket


def brackets(fa, fb):
    """Do h's values fa and fb bracket a root: is one <= 0 and the other
    >= 0?  A zero counts, nan never does.  Elementwise on arrays."""
    return (fa <= 0.0) & (fb >= 0.0) | (fb <= 0.0) & (fa >= 0.0)


def sign_changes(values) -> np.ndarray:
    """Indices i of the cells (i, i + 1) whose values bracket a root."""
    return np.nonzero(brackets(values[:-1], values[1:]))[0]


def brent(h, a: float, b: float) -> float:
    """Root of h between a and b by Brent's method (inverse quadratic
    interpolation guarded by bisection) in Python floats.  h(a) and h(b)
    are evaluated once each, first; unless they bracket a root (see
    brackets), NoBracket names the interval and both values.  A nan
    value at a later iterate raises NoBracket naming that point.  It stops
    at float resolution: h vanishes at the result, or the result and the
    other end of the final bracket are adjacent floats."""
    xpre, fpre, xcur, fcur = float(a), h(float(a)), float(b), h(float(b))
    if not brackets(fpre, fcur):
        raise NoBracket(f"h does not bracket a root on [{xpre!r}, {xcur!r}]: "
                        f"h(a) = {fpre!r}, h(b) = {fcur!r}")
    if fpre == 0.0:
        return xpre
    xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
    while True:
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = math.ulp(xcur)
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # accept only a step that shrinks fast enough; else bisect
            interpolate = 2.0 * abs(stry) < min(abs(spre),
                                                3.0 * abs(sbis) - delta)
        if interpolate:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = h(xcur)
        if math.isnan(fcur):
            raise NoBracket(f"h is nan at {xcur!r}, inside the bracket")
