"""Which renormlab functions the traced run wraps, and the per-layer metrics
derived from their spans.

One layer per renormlab module.  Each metric is reported per pass over the
workload's operations (the median over the passes of a run), so counts do
not depend on how many passes fit into the run's time.
"""

from __future__ import annotations

import importlib
import statistics

import numpy as np

from tracer import Tracer, self_times

PACKAGE = "renormlab"
PASS_SPAN = "bench.pass"
OP_PREFIX = "op:"


def _points(args, kwargs, result):
    u = args[2] if len(args) > 2 else kwargs["u"]
    return float(np.size(u))


def _first_true(args, kwargs, result):
    return float(bool(result[0]))


def _true(args, kwargs, result):
    return float(bool(result))


def _newton_iters(args, kwargs, result):
    return float(result[4])


def _projection_residual(args, kwargs, result):
    return float(result.projection_residual)


# (module, attribute, span name, observer).  "Class.method" patches the
# class attribute; everything else is rebound in every renormlab module
# that holds the same function object.
SPANS = (
    ("basis", "eval_phi", "basis.eval_phi", _points),
    ("basis", "fit_phi", "basis.fit_phi", None),
    ("basis", "design_matrix", "basis.design_matrix", None),
    ("maps", "validate", "maps.validate", None),
    ("maps", "QuadraticFamily.member", "maps.member", None),
    ("renorm", "detect", "renorm.detect", None),
    ("renorm", "renormalize", "renorm.renormalize", _projection_residual),
    ("renorm", "tower", "renorm.tower", None),
    ("solver", "solve_fixed_point", "solver.solve_fixed_point", None),
    ("solver", "solve_periodic_orbit", "solver.solve_periodic_orbit", None),
    ("solver", "spectrum", "solver.spectrum", None),
    ("solver", "_seed_cycle", "solver.seed", None),
    ("solver", "_itinerary_ok", "solver.itinerary", _true),
    ("solver", "_newton_polish", "solver.newton", _newton_iters),
    ("solver", "derivative_matrix", "solver.derivative_matrix", None),
    ("solver", "spectral_report", "solver.spectral_report", None),
    ("geometry", "hausdorff_dimension", "geometry.hausdorff_dimension", None),
    ("geometry", "bounded_geometry", "geometry.bounded_geometry", None),
    ("geometry", "spectral_sum", "geometry.spectral_sum", None),
    ("loperator", "compose", "loperator.compose", None),
    ("loperator", "gamma_norm", "loperator.gamma_norm", None),
    ("families", "parameter_cantor_dimension",
     "families.parameter_cantor_dimension", None),
    ("families", "_classify", "families.classify", _first_true),
    ("families", "_itinerary_ok", "families.itinerary", _true),
    ("families", "_bisect_edge", "families.bisect_edge", None),
    ("families", "_window_for_prefix", "families.window", None),
    ("families", "_superstable_in", "families.superstable", None),
    ("cli", "main", "cli.main", None),
    ("reporting", "write_json", "reporting.write_json", None),
    ("reporting", "write_csv", "reporting.write_csv", None),
)

CLI_COMMANDS = ("feigenbaum", "spectrum", "tower", "geometry", "dimension",
                "sums", "converge", "windows", "cascade")


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS and each CLI subcommand runner."""
    for modname, attr, span, observe in SPANS:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            tracer.patch_slot(cls, meth, tracer.wrap(span, original, observe))
            continue
        original = getattr(mod, attr)
        if tracer.patch_everywhere(PACKAGE, original,
                                   tracer.wrap(span, original, observe)) == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for command in CLI_COMMANDS:
        runner = cli._RUNNERS[command]
        tracer.patch_slot(cli._RUNNERS, command,
                          tracer.wrap(f"cli.{command}", runner))


# metric name -> (unit, better).  The README says which end-to-end metric
# and workload each one should move.
METRICS = {
    "basis.eval_phi.calls": ("count", "lower"),
    "basis.eval_phi.self_s": ("s", "lower"),
    "basis.eval_phi.points_per_call": ("points", "higher"),
    "basis.fit_phi.calls": ("count", "lower"),
    "basis.fit_phi.self_s": ("s", "lower"),
    "basis.design_matrix.self_s": ("s", "lower"),
    "maps.validate.calls": ("count", "lower"),
    "maps.validate.self_s": ("s", "lower"),
    "maps.member.calls": ("count", "lower"),
    "renorm.detect.calls": ("count", "lower"),
    "renorm.detect.self_s": ("s", "lower"),
    "renorm.detect.fail_frac": ("ratio", "lower"),
    "renorm.renormalize.calls": ("count", "lower"),
    "renorm.renormalize.self_s": ("s", "lower"),
    "renorm.renormalize.residual_max": ("sup-norm", "lower"),
    "renorm.tower.self_s": ("s", "lower"),
    "solver.seed.s": ("s", "lower"),
    "solver.seed.self_s": ("s", "lower"),
    "solver.itinerary.calls": ("count", "lower"),
    "solver.itinerary.hit_frac": ("ratio", "higher"),
    "solver.newton.iters": ("count", "lower"),
    "solver.derivative_matrix.calls": ("count", "lower"),
    "solver.derivative_matrix.self_s": ("s", "lower"),
    "solver.spectral_report.self_s": ("s", "lower"),
    "geometry.hausdorff_dimension.calls": ("count", "lower"),
    "geometry.hausdorff_dimension.self_s": ("s", "lower"),
    "geometry.bounded_geometry.self_s": ("s", "lower"),
    "geometry.spectral_sum.self_s": ("s", "lower"),
    "loperator.compose.calls": ("count", "lower"),
    "loperator.compose.self_s": ("s", "lower"),
    "loperator.gamma_norm.self_s": ("s", "lower"),
    "families.classify.calls": ("count", "lower"),
    "families.classify.hit_frac": ("ratio", "higher"),
    "families.classify.self_s": ("s", "lower"),
    "families.itinerary.calls": ("count", "lower"),
    "families.itinerary.hit_frac": ("ratio", "higher"),
    "families.itinerary.self_s": ("s", "lower"),
    "families.itinerary.edge_calls": ("count", "lower"),
    "families.window.calls": ("count", "lower"),
    "families.window.self_s": ("s", "lower"),
    "families.window.grid_fallbacks": ("count", "lower"),
    "families.superstable.self_s": ("s", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in CLI_COMMANDS},
    "reporting.write.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.norm_wall_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}

CALLS = ("basis.eval_phi", "basis.fit_phi", "maps.validate", "maps.member",
         "renorm.detect", "renorm.renormalize", "solver.itinerary",
         "solver.derivative_matrix", "geometry.hausdorff_dimension",
         "loperator.compose", "families.classify", "families.itinerary",
         "families.window")
SELF = ("basis.eval_phi", "basis.fit_phi", "basis.design_matrix",
        "maps.validate", "renorm.detect", "renorm.renormalize", "renorm.tower",
        "solver.seed", "solver.derivative_matrix", "solver.spectral_report",
        "geometry.hausdorff_dimension", "geometry.bounded_geometry",
        "geometry.spectral_sum", "loperator.compose", "loperator.gamma_norm",
        "families.classify", "families.itinerary", "families.window",
        "families.superstable")
HIT_FRAC = ("solver.itinerary", "families.classify", "families.itinerary")


def _per_pass(tracer: Tracer, first_grid: int) -> list[dict[str, float]]:
    arr = tracer.arrays()
    name, parent = arr["name"], arr["parent"]
    dur = arr["end"] - arr["start"]
    own = self_times(arr["start"], arr["end"], parent)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    ids = {n: i for i, n in enumerate(tracer.names)}
    op_ids = [i for n, i in ids.items() if n.startswith(OP_PREFIX)]
    passes = np.nonzero(name == ids.get(PASS_SPAN, -2))[0]
    bounds = list(passes) + [name.size]
    out = []
    for k in range(passes.size):
        lo, hi = bounds[k], bounds[k + 1]
        nm, pn = name[lo:hi], parent_name[lo:hi]
        d, s = dur[lo:hi], own[lo:hi]
        v, r = arr["value"][lo:hi], arr["raised"][lo:hi]

        def sel(span):
            return nm == ids.get(span, -2)

        def frac(numer, denom):
            return numer / denom if denom else 0.0

        m = {f"{span}.calls": float(np.count_nonzero(sel(span)))
             for span in CALLS}
        m.update({f"{span}.self_s": float(np.sum(s[sel(span)]))
                  for span in SELF})
        for span in HIT_FRAC:
            m[f"{span}.hit_frac"] = frac(float(np.sum(v[sel(span)])),
                                         m[f"{span}.calls"])
        m["basis.eval_phi.points_per_call"] = frac(
            float(np.sum(v[sel("basis.eval_phi")])), m["basis.eval_phi.calls"])
        m["renorm.detect.fail_frac"] = frac(
            float(np.count_nonzero(r[sel("renorm.detect")])),
            m["renorm.detect.calls"])
        resid = v[sel("renorm.renormalize") & (r == 0)]
        m["renorm.renormalize.residual_max"] = float(resid.max()) \
            if resid.size else 0.0
        m["solver.seed.s"] = float(np.sum(d[sel("solver.seed")]))
        m["solver.newton.iters"] = float(np.sum(v[sel("solver.newton")]))
        itin = sel("families.itinerary")
        m["families.itinerary.edge_calls"] = float(np.count_nonzero(
            itin & (pn == ids.get("families.bisect_edge", -2))))
        # a window whose scan made more itinerary calls than the first grid
        # has points needed a finer grid
        scan = itin & (pn == ids.get("families.window", -2))
        per_window = np.bincount(parent[lo:hi][scan] - lo, minlength=hi - lo)
        m["families.window.grid_fallbacks"] = float(np.count_nonzero(
            per_window[sel("families.window")] > first_grid))
        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = float(np.sum(d[sel(f"cli.{command}")]))
        m["reporting.write.self_s"] = float(np.sum(
            s[sel("reporting.write_json") | sel("reporting.write_csv")]))
        # share of the pass spent inside renormlab spans that a benchmark op
        # opened directly
        wall = float(d[0])
        m["trace.wall_s"] = wall
        m["trace.coverage"] = float(np.sum(d[np.isin(pn, op_ids)])) / wall
        m["trace.spans"] = float(hi - lo)
        out.append(m)
    return out


def layer_metrics(tracer: Tracer, first_grid: int) -> dict[str, float]:
    """Median over passes of each per-layer metric (median_low for counts,
    so a count is always one that a pass produced)."""
    passes = _per_pass(tracer, first_grid)
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if METRICS[key][0] == "count":
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


def counts_by_pass(tracer: Tracer, first_grid: int) -> list[dict[str, float]]:
    """The count metrics of every pass, for the determinism check."""
    return [{k: v for k, v in p.items() if METRICS[k][0] == "count"}
            for p in _per_pass(tracer, first_grid)]
