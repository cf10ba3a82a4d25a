"""Geometry of the postcritical Cantor set at the doubling fixed point.

Builds interval towers of increasing depth and reports bounded-geometry
ratios, per-level covering sums, dimension estimates, and the norm
growth of the positive operator associated with the derivative. With
--parameter-dimension it also estimates the dimension of the parameter
Cantor set for the {doubling, tripling} itinerary alphabet (about 2 s).

    python3 scripts/geometry_survey.py --depth 9
"""
import argparse
import time
from pathlib import Path

import numpy as np

from renormlab import geometry as G
from renormlab import loperator as lop
from renormlab.families import parameter_cantor_dimension
from renormlab.maps import QuadraticFamily
from renormlab.renorm import THETA_DOUBLING, THETA_TRIPLING, tower
from renormlab.reporting import write_csv
from renormlab.solver import solve_fixed_point


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, default=24)
    ap.add_argument("--depth", type=int, default=9)
    ap.add_argument("--t", type=float, default=3.0,
                    help="exponent for the decaying covering sums")
    ap.add_argument("--gamma", type=float, default=3.0,
                    help="weight power for the positive-operator norms")
    ap.add_argument("--m-max", type=int, default=4)
    ap.add_argument("--parameter-dimension", action="store_true")
    ap.add_argument("--output-dir", default=".")
    args = ap.parse_args()
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    fp = solve_fixed_point(degree=args.degree)
    g = fp.map
    print(f"fixed point at degree {args.degree}: lambda={fp.lambda_star:.9f}")

    rows = []
    for depth in range(4, args.depth + 1):
        tw = tower(g, depth)
        rep = G.bounded_geometry(tw)
        fit = G.spectral_sum(tw, args.t)
        row = [depth, rep.tau, fit.mu, np.nan, np.nan]
        if depth >= 6:
            dim = G.hausdorff_dimension(tw)
            row[3], row[4] = dim.s_estimate, dim.stability
        rows.append(tuple(row))
        dim_txt = "" if depth < 6 else f" dim={row[3]:.4f} (+-{row[4]:.4f})"
        print(f"  depth {depth}: tau={rep.tau:.4f} "
              f"mu({args.t:g})={fit.mu:.4f}{dim_txt}")
    write_csv(out / "geometry_survey.csv",
              ["depth", "tau", "mu", "dimension", "stability"], rows)

    print(f"norm growth of the gamma={args.gamma:g} positive operator")
    L = lop.renorm_derivative_as_loperator(g)
    t0 = time.time()
    norms = lop.norm_growth(L, args.gamma, args.m_max)
    ratios = norms[1:] / norms[:-1]
    tw = tower(g, args.depth)
    sums = G.spectral_sum(tw, args.gamma).sums
    sum_ratios = sums[1:] / sums[:-1]
    print(f"  operator norm ratios: {np.round(ratios, 4)}")
    print(f"  interval sum ratios:  {np.round(sum_ratios[:len(ratios)], 4)}")
    print(f"  tail gap {abs(ratios[-1] - sum_ratios[len(ratios) - 1]):.3f}; "
          f"both contract when gamma is large enough "
          f"({time.time() - t0:.1f}s)")

    if args.parameter_dimension:
        print("parameter Cantor set, alphabet {doubling, tripling}")
        t0 = time.time()
        rep = parameter_cantor_dimension(QuadraticFamily(),
                                         [THETA_DOUBLING, THETA_TRIPLING], 3)
        print(f"  s={rep.s_estimate:.4f} stability={rep.stability:.4f} "
              f"({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
