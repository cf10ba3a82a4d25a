"""The one root routine of the package.

brent solves a scalar equation h(x) = 0 in Python floats to float
resolution.  families roots the critical-orbit equations of window edges and
superstable parameters with it, geometry the covering-sum equation of the
dimension estimate.
"""

from __future__ import annotations

import math


def brent(h, a: float, b: float) -> float:
    """Root of h between a and b, where h changes sign, by Brent's method
    (inverse quadratic interpolation guarded by bisection) in Python
    floats.  It stops at float resolution: h vanishes at the result, or
    the result and the other end of the final bracket are adjacent
    floats."""
    xpre, fpre, xcur, fcur = float(a), h(float(a)), float(b), h(float(b))
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
