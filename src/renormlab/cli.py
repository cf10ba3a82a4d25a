"""Batch experiment front-end.

Each subcommand runs one pipeline, writes a JSON report plus CSV plot data
into the output directory, and prints a one-line summary.  Exit codes:
0 success, 1 usage error, 2 numerical failure (the error name lands in the
report's status field).  All pipelines are deterministic, so identical
config and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import families as _families
from . import geometry as _geometry
from . import loperator as _loperator
from .errors import RenormlabError, UsageError
from .maps import QuadraticFamily, orbit as _orbit
from .renorm import tower, tower_header, tower_rows
from .reporting import write_csv, write_json
from .solver import convergence_experiment, solve_fixed_point, spectrum

@dataclass(frozen=True)
class RunConfig:
    degree: int = 24
    tol: float = 1e-10
    tower_depth: int = 8
    grid: int = 512
    seed: int = 0
    output_dir: str = "."

    def validate(self) -> "RunConfig":
        if not 10 <= self.degree <= 64:
            raise UsageError(f"degree must lie in [10, 64], got {self.degree}")
        if not 1e-14 <= self.tol <= 1e-6:
            raise UsageError(f"tol must lie in [1e-14, 1e-6], got {self.tol}")
        if self.tower_depth < 1:
            raise UsageError(f"tower_depth must be >= 1, "
                             f"got {self.tower_depth}")
        if self.grid < 16:
            raise UsageError(f"grid must be >= 16, got {self.grid}")
        return self


# each config key, cast to the type of its default
_CASTS = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    text = Path(path).read_text()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CASTS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            out[key] = _CASTS[key](value)
        except ValueError as err:
            raise UsageError(f"{path}:{ln}: bad value for {key}: {err}")
    return out


def resolve_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _CASTS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values).validate()


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; usage errors must be exit 1
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--degree", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--tower-depth", dest="tower_depth", type=int)
    common.add_argument("--grid", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--output-dir", dest="output_dir")

    parser = _Parser(prog="renormlab",
                     description="renormalization experiments, batch mode")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("feigenbaum", parents=[common],
                   help="period-doubling fixed point and its constants")
    sub.add_parser("spectrum", parents=[common],
                   help="eigenvalues of the derivative at the fixed point")

    p = sub.add_parser("orbit", parents=[common],
                       help="critical orbit of a family member")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=_int_at_least(0), default=64)

    for name, helptext in (
            ("tower", "nested renormalization intervals"),
            ("geometry", "bounded-geometry ratios of the tower"),
            ("dimension", "Hausdorff dimension of the tower limit set"),
            ("sums", "interval decay sums and operator norm growth")):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--c", type=float)
        p.add_argument("--fixed-point", action="store_true",
                       help="use the solved fixed point instead of --c")
        p.add_argument("--depth", type=_int_at_least(1),
                       help="tower depth (overrides config tower_depth)")
    p = sub.choices["sums"]
    p.add_argument("--t", type=float, default=3.0,
                   help="decay-sum exponent (> 1)")
    p.add_argument("--gamma", type=float, default=3.0,
                   help="positive-operator exponent")
    p.add_argument("--m-max", dest="m_max", type=_int_at_least(1), default=5,
                   help="operator powers for norm growth")

    p = sub.add_parser("cascade", parents=[common],
                       help="superstable doubling cascade")
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("windows", parents=[common],
                       help="renormalization windows in parameter space")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lo", type=float, default=0.8)
    p.add_argument("--hi", type=float, default=2.0)

    p = sub.add_parser("converge", parents=[common],
                       help="distance of renormalized iterates to the "
                            "fixed point")
    p.add_argument("--c", type=float,
                   help="family parameter (default: cascade accumulation)")
    p.add_argument("--n", type=_int_at_least(1), default=8)

    return parser


def _select_map(cfg: RunConfig, args):
    if getattr(args, "fixed_point", False):
        fp = solve_fixed_point(degree=cfg.degree, tol=cfg.tol)
        return fp.map, "fixed-point"
    c = getattr(args, "c", None)
    if c is None:
        raise UsageError("pass --c or --fixed-point")
    return QuadraticFamily().member(c), f"quadratic c={c:.17g}"


def _tower_for(cfg: RunConfig, args):
    f, label = _select_map(cfg, args)
    depth = cfg.tower_depth if args.depth is None else args.depth
    return tower(f, depth), label, depth, f


def _run_feigenbaum(cfg, args, out):
    fp = solve_fixed_point(degree=cfg.degree, tol=cfg.tol)
    rep = spectrum(fp.map)
    xs = np.linspace(-1.0, 1.0, cfg.grid)
    write_csv(out / "feigenbaum_map.csv", ["x", "g_x"],
              zip(xs, fp.map(xs)))
    results = {
        "lambda_star": fp.lambda_star,
        "residual": fp.residual,
        "newton_iters": fp.newton_iters,
        "delta": rep.delta,
        "spectral_gap": rep.gap,
        "coefficients": fp.map.coeffs,
        "basis": fp.map.basis,
    }
    summary = (f"lambda={fp.lambda_star:.9f} delta={rep.delta:.7f} "
               f"residual={fp.residual:.2e}")
    return results, summary, []


def _run_spectrum(cfg, args, out):
    fp = solve_fixed_point(degree=cfg.degree, tol=cfg.tol)
    rep = spectrum(fp.map)
    eigs = rep.eigenvalues
    write_csv(out / "spectrum_eigenvalues.csv",
              ["index", "real", "imag", "modulus"],
              [(i, e.real, e.imag, abs(e)) for i, e in enumerate(eigs)])
    results = {
        "matrix_dim": rep.matrix_dim,
        "delta": rep.delta,
        "spectral_gap": rep.gap,
        "hyperbolic": rep.hyperbolic,
        "leading_moduli": np.abs(eigs[:6]),
    }
    summary = (f"delta={rep.delta:.7f} gap={rep.gap:.6f} "
               f"hyperbolic={rep.hyperbolic}")
    return results, summary, []


def _run_orbit(cfg, args, out):
    f = QuadraticFamily().member(args.c)
    orb = _orbit(f, 0.0, args.n)
    write_csv(out / "orbit.csv", ["i", "x_i"],
              enumerate(orb.points))
    results = {
        "c": args.c,
        "n": args.n,
        "min": float(np.min(orb.points)),
        "max": float(np.max(orb.points)),
        "clamp_excess": orb.clamp_excess,
    }
    return results, f"c={args.c} n={args.n} range=[{results['min']:.6f}, " \
                    f"{results['max']:.6f}]", []


def _run_tower(cfg, args, out):
    tw, label, depth, _ = _tower_for(cfg, args)
    write_csv(out / "tower.csv", ["k", "i", "left", "right", "length"],
              tower_rows(tw))
    results = {"map": label, **tower_header(tw)}
    diag = []
    if tw.truncated_at is not None:
        diag.append(f"truncated at level {tw.truncated_at}: {tw.note}")
    return results, f"{label} depth={tw.depth}/{depth}", diag


def _run_geometry(cfg, args, out):
    tw, label, _, _ = _tower_for(cfg, args)
    rep = _geometry.bounded_geometry(tw)
    rows = []
    for k, (cr, gr) in enumerate(zip(rep.child_ratios, rep.gap_ratios), 1):
        rows.append((k, cr.min(), cr.max(),
                     gr.min() if gr.size else float("nan"),
                     gr.max() if gr.size else float("nan"),
                     cr.size, gr.size))
    write_csv(out / "geometry_ratios.csv",
              ["k", "child_min", "child_max", "gap_min", "gap_max",
               "n_children", "n_gaps"], rows)
    results = {
        "map": label,
        "tau": rep.tau,
        "levels_checked": rep.levels_checked,
        "near_degenerate": rep.near_degenerate,
    }
    return results, f"{label} tau={rep.tau:.6f}", []


def _run_sums(cfg, args, out):
    tw, label, _, f = _tower_for(cfg, args)
    fit = _geometry.spectral_sum(tw, args.t)
    write_csv(out / "spectral_sums.csv", ["k", "S_k"],
              enumerate(fit.sums, 1))
    L = _loperator.renorm_derivative_as_loperator(f)
    norms = _loperator.norm_growth(L, args.gamma, args.m_max)
    write_csv(out / "norm_growth.csv", ["m", "norm"],
              enumerate(norms, 1))
    results = {
        "map": label,
        "t": args.t,
        "mu": fit.mu,
        "c0": fit.c0,
        "fit_levels": fit.fit_levels,
        "gamma": args.gamma,
        "norms": norms,
        "norm_ratio": float(norms[-1] / norms[-2]) if len(norms) > 1
        else float("nan"),
    }
    return results, f"{label} t={args.t} mu={fit.mu:.6f} " \
                    f"gamma={args.gamma} ratio={results['norm_ratio']:.6f}", []


def _run_dimension(cfg, args, out):
    tw, label, _, _ = _tower_for(cfg, args)
    rep = _geometry.hausdorff_dimension(tw)
    write_csv(out / "partition_sums.csv", ["k", "sum_at_s"],
              enumerate(rep.sums, 1))
    results = {
        "map": label,
        "s_estimate": rep.s_estimate,
        "eta": rep.eta,
        "stability": rep.stability,
        "fit_levels": rep.fit_levels,
    }
    return results, f"{label} s={rep.s_estimate:.4f} " \
                    f"stability={rep.stability:.4f}", []


def _run_cascade(cfg, args, out):
    rep = _families.cascade(QuadraticFamily(), args.n)
    rows = []
    for i, c in enumerate(rep.params):
        ratio = rep.ratios[i] if i < len(rep.ratios) else float("nan")
        rows.append((i + 1, c, ratio))
    write_csv(out / "cascade.csv", ["n", "c_n", "ratio"], rows)
    results = {
        "n_max": args.n,
        "params": rep.params,
        "ratios": rep.ratios,
        "delta_estimate": rep.delta_estimate,
        "c_infinity": rep.c_infinity,
    }
    return results, f"delta={rep.delta_estimate:.7f} " \
                    f"c_inf={rep.c_infinity:.10f}", []


def _run_windows(cfg, args, out):
    if args.hi <= args.lo:
        raise UsageError(f"empty range ({args.lo}, {args.hi})")
    grid = max(cfg.grid, 100)
    diag = []
    if grid != cfg.grid:
        diag.append(f"grid {cfg.grid} raised to {grid}, the fewest points "
                    "find_windows scans")
    wins = _families.find_windows(QuadraticFamily(), args.p,
                                  (args.lo, args.hi), grid=grid)
    write_csv(out / "windows.csv", ["p", "c_lo", "c_hi", "superstable_c"],
              [(w.p, w.interval[0], w.interval[1], w.superstable_c)
               for w in wins])
    results = {"p": args.p, "range": (args.lo, args.hi),
               "count": len(wins), "windows": wins}
    return results, f"p={args.p} windows={len(wins)}", diag


def _run_converge(cfg, args, out):
    c = args.c
    diag = []
    if c is None:
        c = _families.cascade(QuadraticFamily(), 10).c_infinity
        diag.append(f"using cascade accumulation c={c:.12f}")
    fp = solve_fixed_point(degree=cfg.degree, tol=cfg.tol)
    f = QuadraticFamily().member(c)
    rep = convergence_experiment(f, fp.map, args.n)
    write_csv(out / "convergence.csv", ["n", "distance"],
              enumerate(rep.distances))
    results = {
        "c": c,
        "n_max": args.n,
        "distances": rep.distances,
        "slope": rep.slope,
        "intercept": rep.intercept,
        "r_squared": rep.r_squared,
    }
    return results, f"c={c:.10f} slope={rep.slope:.4f} " \
                    f"R2={rep.r_squared:.6f}", diag


_RUNNERS = {
    "feigenbaum": _run_feigenbaum,
    "spectrum": _run_spectrum,
    "orbit": _run_orbit,
    "tower": _run_tower,
    "geometry": _run_geometry,
    "sums": _run_sums,
    "dimension": _run_dimension,
    "cascade": _run_cascade,
    "windows": _run_windows,
    "converge": _run_converge,
}


def _report(out: Path, command: str, cfg: RunConfig, status: str,
            results, diagnostics) -> Path:
    payload = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "status": status,
        "results": results,
        "diagnostics": diagnostics,
    }
    return write_json(out / f"{command}.json", payload)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[args.command]
    try:
        results, summary, diagnostics = runner(cfg, args, out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except RenormlabError as err:
        _report(out, args.command, cfg, type(err).__name__, {}, [str(err)])
        print(f"{args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    path = _report(out, args.command, cfg, "ok", results, diagnostics)
    print(f"{args.command}: {summary} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
