"""Mutation probe: does the test suite notice when a guard is loosened or
a solver step is taken out?

Each mutant copies src/ to a temporary directory and changes the code
there by exact text replacements, each of which must occur exactly once:
a module constant changed, a step of the Newton solver taken out, a sign
flipped, a shortcut taken without its check, or a kernel's layout or
result disturbed.  It runs the test suite
against the copy, the deterministic tests first and the Hypothesis tests
only if those all pass, stopping at the first failure.  A mutant is
killed when the suite fails, and the first failing test is printed, so a
kill names a deterministic test whenever one fails; it survives when the
suite passes.  The unmutated copy runs first as a control and must pass.
Exits non-zero if the control fails or any mutant survives.  Standard
library only; run on demand and in CI (about 40 s for the control, which
runs the whole suite, and seconds for a mutant, which stops at its first
failure; about 4 min in all on 2 cores):

    python3 scripts/mutants.py
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def loosened(module, name, value, to):
    """The mutant that sets the module constant `name` from value to `to`."""
    return (module, f"{name} {value} -> {to}",
            ((f"{name} = {value}", f"{name} = {to}"),))


# (module file, label, ((text, replacement), ...))
MUTANTS = [
    loosened("renorm.py", "INVARIANCE_TOL", "1e-12", "1e-3"),
    loosened("renorm.py", "PROJECTION_CAP", "1e-10", "1e-2"),
    loosened("maps.py", "NORMALIZATION_TOL", "1e-12", "1e-6"),
    loosened("maps.py", "RANGE_TOL", "1e-12", "1e-3"),
    loosened("solver.py", "UNSTABLE_CUTOFF", "1e-6", "1e-2"),
    loosened("renorm.py", "NESTING_TOL", "1e-10", "1e-3"),
    loosened("renorm.py", "LAMBDA_FLOOR", "1e-8", "1e-3"),
    loosened("loperator.py", "CONTAINMENT_TOL", "1e-10", "1e-3"),
    ("solver.py", "chord step removed",
     (("trial = step_to(chord.reshape(m, dim), 1.0)", "trial = None"),)),
    ("solver.py", "normalization pin dropped in _newton_polish",
     (("            jac[i * dim, :] = 0.0\n"
       "            jac[i * dim, rows] = norm_row\n", ""),
      ("        rhs[pinned] = 0.0\n", ""))),
    ("roots.py", "bracket check dropped in brent",
     (("    if not brackets(fpre, fcur):\n", "    if False:\n"),)),
    ("roots.py", "zero end refused by brackets",
     (("(fa <= 0.0) & (fb >= 0.0) | (fb <= 0.0) & (fa >= 0.0)",
       "(fa < 0.0) & (fb > 0.0) | (fb < 0.0) & (fa > 0.0)"),)),
    ("renorm.py", "rank-one term's sign flipped in derivative_terms",
     (("tail = (x * (dk[-1, :n] * s[-1, :n]) - zp / lam) / lam",
       "tail = -(x * (dk[-1, :n] * s[-1, :n]) - zp / lam) / lam"),)),
    loosened("solver.py", "COARSE_DEGREE", "12", "8"),
    ("geometry.py", "usable_depth's floor test reverted to < LENGTH_FLOOR",
     (("if not (lengths.size and lengths.min() >= LENGTH_FLOOR):",
       "if not lengths.size or lengths.min() < LENGTH_FLOOR:"),)),
    ("solver.py", "_seed_cycle's chase depth cut back to burn + 3",
     (("thetas, burn + max(3, m)).c", "thetas, burn + 3).c"),)),
    ("roots.py", "nan check dropped in brent",
     (("        if math.isnan(fcur):\n", "        if False:\n"),)),
    ("families.py", "width check dropped in the nested-window chase",
     (("if math.nextafter(lo, math.inf) >= hi:", "if False:"),)),
    ("basis.py", "eval_rows repeats the points where it should tile them",
     (("points.ravel()", "points.T.ravel()"),)),
    ("solver.py", "_sup_distance compares g with itself",
     (("eval_rows([f.series, g.series]", "eval_rows([g.series, g.series]"),)),
    ("solver.py", "a solved fixed-point coefficient moved by 1e-10",
     (("FixedPointResult(map=cycle[0],",
       "FixedPointResult(map=UnimodalMap(_basis.normalized_constant("
       "cycle[0].coeffs + 1e-10 * (np.arange(degree + 1) == 2))),"),)),
    ("loperator.py", "_extend drops the inner derivative",
     (("words(dy2) * dy[:, None]", "words(dy2)"),)),
    ("renorm.py", "the weight products start one slope late",
     (("chain[p - k:] *= s[k]", "chain[p - k + 1:] *= s[k]"),)),
    ("families.py", "every sibling window reuses the first type's hits",
     (("zip(oks, g.renormalize_each(Theta))",
       "zip(oks, g.renormalize_each(Theta[:1]) * len(Theta))"),)),
    ("geometry.py", "partition_sum refuses one usable level",
     (('got {s}")\n    kmax = usable_depth(tower)\n    if kmax < 1:',
       'got {s}")\n    kmax = usable_depth(tower)\n    if kmax <= 1:'),)),
    ("geometry.py", "hausdorff_dimension refuses five usable levels",
     (("if kmax < 5:", "if kmax <= 5:"),)),
    ("geometry.py", "hausdorff_dimension refuses kmin = kmax - 2",
     (("elif kmax < kmin + 2:", "elif kmax <= kmin + 2:"),)),
    ("renorm.py", "_test_period's endpoint rows start one step late",
     (("z[p + 1:2 * p, rows]", "z[p + 2:2 * p + 1, rows]"),)),
    ("renorm.py", "_test_one's endpoint rows start one step late",
     (("zip(z[1:p], z[p + 1:2 * p])", "zip(z[1:p], z[p + 2:2 * p + 1])"),)),
    ("renorm.py", "tower's endpoint rows start one step late",
     (("z[p_cum:2 * p_cum]", "z[p_cum + 1:2 * p_cum + 1]"),)),
    ("renorm.py", "a tower level's orbit is not divided by its lam",
     (("z = [t / lam for t in", "z = [t for t in"),
      ("z.append(x / lam)", "z.append(x)"))),
    ("renorm.py", "the stride past step 4P is one step long",
     (("for _ in range(P):", "for _ in range(P + 1):"),)),
    ("families.py", "a family level's orbit is not divided by its lam",
     (("return self.z / self.z[1]", "return self.z"),)),
    ("families.py", "a family level runs its orbit on from 0",
     (("self.fam.iterate(self.c, z[-1], self.P)",
       "self.fam.iterate(self.c, 0.0, self.P)"),)),
    ("maps.py", "UnimodalMap skips its validation",
     (("        if not diag.ok:\n", "        if False:\n"),)),
    ("maps.py", "validate's derivative rows read the basis one column on",
     (("rows[:, :-1] @ deriv.T", "rows[:, 1:] @ deriv.T"),)),
    ("solver.py", "the lazily computed vectors keep the eigensolver's sign",
     (("        if float(sigma @ direction) < 0.0:\n", "        if False:\n"),)),
    ("cli.py", "orbit's clamp_excess counts overshoot past 0.5",
     (("max(0.0, abs(x) - 1.0)", "max(0.0, abs(x) - 0.5)"),)),
    ("renorm.py", "_check_level_disjoint's fast path accepts a zero gap",
     (("if not np.all(_left_to_right(intervals)[1] > 0.0):",
       "if not np.all(_left_to_right(intervals)[1] >= 0.0):"),)),
    ("families.py", "parameter_window_tower accepts a repeated type",
     (("    if len(set(Theta)) < len(Theta):\n", "    if False:\n"),)),
    ("renorm.py", "_test_period without its finiteness conjunct",
     (("\n          & np.isfinite(z[1:2 * p + 1]).all(axis=0))", ")"),)),
    ("families.py", "_types accepts a malformed type",
     (("if len(theta) < 2 or sorted(theta) != list(range(len(theta))):",
       "if False:"),)),
    ("families.py", "find_windows accepts a reversed range",
     (("np.linspace(*_ordered(c_range), grid)",
       "np.linspace(*c_range, grid)"),)),
    ("families.py", "_superstable_in solves the last bracketing cell first",
     (("np.linspace(lo, hi, grid).tolist()",
       "np.linspace(hi, lo, grid).tolist()"),)),
    ("renorm.py", "_test_period accepts a zero gap between pieces",
     (("right = lo[None, :] > hi[:, None]",
       "right = lo[None, :] >= hi[:, None]"),)),
    ("basis.py", "the series drops its last nonzero coefficient",
     (("coeffs[:nonzero[-1] + 1 if nonzero.size else 1]",
       "coeffs[:nonzero[-1] if nonzero.size else 1]"),)),
    ("basis.py", "the series keeps the zero top",
     (("coeffs[:nonzero[-1] + 1 if nonzero.size else 1]", "coeffs"),)),
    ("renorm.py", "the slope products start one row late",
     (("for j in range(1, p):", "for j in range(2, p):"),)),
    ("renorm.py", "the hull ends swap np.minimum and np.maximum",
     (("np.minimum(a, b, out=out[..., 0])\n"
       "    np.maximum(a, b, out=out[..., 1])",
       "np.maximum(a, b, out=out[..., 0])\n"
       "    np.minimum(a, b, out=out[..., 1])"),)),
    ("geometry.py", "the dimension's fit window is shifted by one level",
     (("partial(_mean_log_ratio, loglens[lo - 1:hi])",
       "partial(_mean_log_ratio, loglens[lo:hi + 1])"),)),
    ("reporting.py", "a row format prints 16 significant digits",
     (('{float: "%.17g"', '{float: "%.16g"'),)),
]


def run_suite(src: Path, workdir: Path):
    """None when the suite passes with the package imported from src, else
    the first failing test as pytest names it: the first deterministic one
    in file order, or the first Hypothesis test when every deterministic
    test passes.  The suite's default Hypothesis profile is derandomized
    and keeps no example database (tests/conftest.py), so a kill is the
    same on every run; anything Hypothesis still stores goes under
    workdir, not into the repository."""
    env = dict(os.environ, PYTHONPATH=str(src),
               HYPOTHESIS_STORAGE_DIRECTORY=str(workdir / ".hypothesis"))
    for marks in ("not hypothesis", "hypothesis"):
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
               "-p", "no:cacheprovider", "-m", marks, "tests"]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            failed = [line.split()[1] for line in done.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            return failed[0] if failed else f"pytest exit {done.returncode}"
    return None


def mutated_copy(tmp: Path, name: str, mutant=None) -> Path:
    """src/ copied to tmp/name, with the mutant's replacements applied."""
    src = tmp / name / "src"
    shutil.copytree(ROOT / "src", src)
    if mutant:
        module, _, replacements = mutant
        path = src / "renormlab" / module
        text = path.read_text()
        for old, new in replacements:
            if text.count(old) != 1:
                raise SystemExit(f"{old!r} occurs {text.count(old)} times "
                                 f"in {module}, not once")
            text = text.replace(old, new)
        path.write_text(text)
    return src


def main():
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        start = time.perf_counter()
        failed = run_suite(mutated_copy(tmp, "control"), tmp)
        if failed is not None:
            print(f"control: the suite fails on the unmutated copy: {failed}")
            return 2
        print(f"control: passes ({time.perf_counter() - start:.0f} s)",
              flush=True)
        for i, mutant in enumerate(MUTANTS):
            module, label, _ = mutant
            start = time.perf_counter()
            failed = run_suite(mutated_copy(tmp, f"mutant{i}", mutant), tmp)
            verdict = "SURVIVED" if failed is None else f"killed by {failed}"
            print(f"{module} {label}: {verdict} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
            if failed is None:
                survivors.append(f"{module} {label}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
