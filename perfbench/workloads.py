"""The three workloads: their operations and the checks on each result.

An operation is one CLI command (run in-process through
``renormlab.cli.main``) or one library call.  Each returns an Outcome: named
pass/fail checks, the digits of agreement with the references in refs.py,
and a fingerprint of its numbers used to compare runs.  None of the inputs
depend on the seed: every input is a fixed configuration from the paper,
checked against fixed references.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from refs import digits, rel_error

SEED_VARIES = ("nothing: every input is a fixed configuration from the "
               "paper, checked against fixed references")

# largest relative error each reference check accepts; the measured errors
# at this commit are 100 to 1000 times smaller
TOLERANCE = {
    "delta": 1e-9,
    "lambda": 1e-9,
    "c_inf": 1e-11,
    "superstable3": 1e-13,
    "tripling_lambda": 1e-9,
}
FIXED_POINT_DEGREES = (16, 24, 32, 48)
CLI_DEGREE = "24"
TOL = 1e-10


@dataclass
class Outcome:
    checks: dict[str, bool] = field(default_factory=dict)
    digits: dict[str, float] = field(default_factory=dict)
    fingerprint: list = field(default_factory=list)

    def check(self, name: str, ok) -> None:
        self.checks[name] = bool(ok)

    def reference(self, key: str, value: float, refs: dict) -> None:
        """Check value against refs[key] and record its digits."""
        self.check(f"{key} vs reference",
                   rel_error(value, refs[key]) <= TOLERANCE[key])
        self.digits[key] = min(self.digits.get(key, math.inf),
                               digits(value, refs[key]))
        self.fingerprint.append(float(value))

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class Op:
    name: str
    run: object   # callable(ctx) -> Outcome


class Context:
    """State one pass shares between its operations."""

    def __init__(self, out_dir: Path, refs: dict):
        self.out_dir = out_dir
        self.refs = refs
        self.fixed_points = {}


def _cli(command: list[str], check_results):
    def run(ctx: Context) -> Outcome:
        import renormlab.cli as cli
        out = Outcome()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = cli.main(command + ["--output-dir", str(ctx.out_dir)])
        out.check("exit code 0", code == 0)
        report = json.loads((ctx.out_dir / f"{command[0]}.json").read_text())
        out.check("status ok", report["status"] == "ok")
        if out.ok:
            check_results(out, report["results"], ctx.refs)
        out.fingerprint.append(json.dumps(report["results"], sort_keys=True))
        return out
    return Op(" ".join(command), run)


# ---------------------------------------------------------------------------
# fixed_point


def _feigenbaum(out, res, refs):
    out.check("residual below tol", res["residual"] < TOL)
    out.check("delta at CLI degree",
              rel_error(res["delta"], refs["delta"]) <= TOLERANCE["delta"])
    out.check("lambda at CLI degree",
              rel_error(res["lambda_star"], refs["lambda"])
              <= TOLERANCE["lambda"])


def _spectrum(out, res, refs):
    out.check("one unstable eigenvalue", res["hyperbolic"] is True)


def _tower(out, res, refs):
    out.check("full depth", res["depth"] == 8 and res["truncated_at"] is None)


def _geometry(out, res, refs):
    out.check("levels checked", res["levels_checked"] == 8)
    out.check("tau in (0, 1)", 0.0 < res["tau"] < 1.0)


def _dimension(out, res, refs):
    out.check("dimension in (0, 1)", 0.0 < res["s_estimate"] < 1.0)


def _sums(out, res, refs):
    out.check("mu in (0, 1)", 0.0 < res["mu"] < 1.0)
    out.check("norms finite and positive",
              all(math.isfinite(n) and n > 0 for n in res["norms"]))


def _converge(out, res, refs):
    d = res["distances"]
    out.check("distances shrink", len(d) == 9 and d[-1] < 1e-3 * d[0])


def _solve_fixed_point(degree: int):
    def run(ctx: Context) -> Outcome:
        from renormlab.solver import solve_fixed_point
        fp = solve_fixed_point(degree=degree, tol=TOL)
        ctx.fixed_points[degree] = fp.map
        out = Outcome()
        out.check("residual below tol", fp.residual < TOL)
        out.reference("lambda", fp.lambda_star, ctx.refs)
        return out
    return Op(f"solve_fixed_point degree={degree}", run)


def _spectrum_at(degree: int):
    def run(ctx: Context) -> Outcome:
        from renormlab.solver import spectrum
        rep = spectrum(ctx.fixed_points[degree])
        out = Outcome()
        out.check("one unstable eigenvalue", rep.hyperbolic)
        out.reference("delta", rep.delta, ctx.refs)
        return out
    return Op(f"spectrum degree={degree}", run)


def fixed_point() -> list[Op]:
    fp = ["--fixed-point", "--degree", CLI_DEGREE]
    ops = [
        _cli(["feigenbaum", "--degree", CLI_DEGREE], _feigenbaum),
        _cli(["spectrum", "--degree", CLI_DEGREE], _spectrum),
        _cli(["tower"] + fp, _tower),
        _cli(["geometry"] + fp, _geometry),
        _cli(["dimension"] + fp + ["--tower-depth", "9"], _dimension),
        _cli(["sums"] + fp + ["--t", "3.0"], _sums),
        _cli(["converge", "--c", "1.4011551890920328", "--n", "8",
              "--degree", CLI_DEGREE], _converge),
    ]
    for degree in FIXED_POINT_DEGREES:
        ops += [_solve_fixed_point(degree), _spectrum_at(degree)]
    return ops


# ---------------------------------------------------------------------------
# parameter_scan


def _windows(out, res, refs):
    from renormlab.renorm import THETA_TRIPLING
    wins = res["windows"]
    out.check("one p=3 window", res["count"] == 1 and len(wins) == 1)
    if len(wins) != 1:
        return
    win = wins[0]
    out.check("type is tripling", tuple(win["theta"]) == THETA_TRIPLING)
    lo, hi = win["interval"]
    out.check("superstable inside window", lo <= win["superstable_c"] <= hi)
    out.reference("superstable3", win["superstable_c"], refs)


def _cascade(out, res, refs):
    out.check("ten parameters", len(res["params"]) == 10)
    out.check("delta estimate",
              rel_error(res["delta_estimate"], refs["delta"]) <= 1e-5)
    out.reference("c_inf", res["c_infinity"], refs)


def _parameter_dimension(ctx: Context) -> Outcome:
    from renormlab import families
    from renormlab.maps import QuadraticFamily
    from renormlab.renorm import THETA_DOUBLING, THETA_TRIPLING
    rep = families.parameter_cantor_dimension(
        QuadraticFamily(), [THETA_DOUBLING, THETA_TRIPLING], 3)
    out = Outcome()
    out.check("dimension in (0.01, 0.99)", 0.01 < rep.s_estimate < 0.99)
    out.fingerprint += [rep.s_estimate, *rep.sums.tolist()]
    return out


def parameter_scan() -> list[Op]:
    return [
        _cli(["windows", "--p", "3", "--lo", "1.6", "--hi", "1.9"], _windows),
        _cli(["cascade", "--n", "10"], _cascade),
        Op("parameter_cantor_dimension depth=3", _parameter_dimension),
    ]


# ---------------------------------------------------------------------------
# seeded_cycles


def _tripling_fixed_point(ctx: Context) -> Outcome:
    from renormlab.renorm import THETA_TRIPLING, detect
    from renormlab.solver import solve_fixed_point
    fp = solve_fixed_point(theta=THETA_TRIPLING, degree=24, tol=TOL)
    out = Outcome()
    out.check("residual below tol", fp.residual < TOL)
    out.check("observed type is tripling",
              detect(fp.map).perm == THETA_TRIPLING)
    out.reference("tripling_lambda", fp.lambda_star, ctx.refs)
    out.fingerprint += fp.map.coeffs.tolist()
    return out


def _two_cycle(ctx: Context) -> Outcome:
    from renormlab.renorm import THETA_DOUBLING, THETA_TRIPLING
    from renormlab.solver import solve_periodic_orbit
    thetas = (THETA_DOUBLING, THETA_TRIPLING)
    po = solve_periodic_orbit(thetas, degree=24, tol=TOL)
    out = Outcome()
    out.check("residual below tol", po.residual < TOL)
    out.check("observed types are requested", po.combinatorics == thetas)
    out.check("one unstable eigenvalue", po.multipliers.hyperbolic)
    out.fingerprint += [po.residual, po.multipliers.delta]
    return out


def seeded_cycles() -> list[Op]:
    return [
        Op("solve_fixed_point theta=tripling degree=24",
           _tripling_fixed_point),
        Op("solve_periodic_orbit thetas=(doubling, tripling) degree=24",
           _two_cycle),
    ]


WORKLOADS = {
    "fixed_point": fixed_point,
    "parameter_scan": parameter_scan,
    "seeded_cycles": seeded_cycles,
}
