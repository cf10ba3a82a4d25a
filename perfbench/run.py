"""renormlab benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload fixed_point --seed 1 --seconds 20 --trace 0

Runs passes over the workload's operations in a closed loop (one operation
at a time) until the next pass would end after --seconds; at least one pass
always runs.  Every result is checked; a failed check or an exception counts
as a failed operation.  With --trace 0 the last line of standard output
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a run
in which every renormlab function listed in layers.py is wrapped in a span.
The run record (seed, versions, BLAS threads, src/ line count, digits per
reference, result digests) is printed on the line before, and written with
the spans under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy is imported anywhere in this process
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# The child runs the speed probe (see probe.py) from just after numpy is
# imported and rescales the whole time since launch, from the parent's
# perf_counter (system-wide on Linux), like the pass times; five samples after
# the imports make sure the last stretch has a measured speed.
SETUP_CODE = """
import sys, time
import numpy
from probe import SpeedProbe
with SpeedProbe() as probe:
    import scipy, scipy.linalg, renormlab, renormlab.cli
ready = time.perf_counter()
for _ in range(5):
    probe.sample()
print(probe.normalized(float(sys.argv[1]), ready))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import renormlab, numpy and
    scipy and exit, and the normalized times from launch until the imports
    are done."""
    raw, normalized = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, repr(t0)],
                              env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        normalized.append(float(proc.stdout))
    return raw, normalized


def declared_metrics(trace: bool) -> set[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found beside perfbench/")
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "renormlab").glob("*.py")))


def run_passes(ops, seconds: float, out_dir: Path, refs: dict, tracer):
    """Closed loop over the operations; returns the per-pass bookkeeping."""
    from layers import OP_PREFIX, PASS_SPAN
    from workloads import Context
    span = tracer.span if tracer is not None else \
        (lambda name: contextlib.nullcontext())
    state = {"pass_s": [], "windows": [], "attempted": 0,
             "failed": 0, "failures": [], "digits": {}, "digests": []}
    t_start = time.perf_counter()
    while True:
        ctx = Context(out_dir, refs)
        prints = []
        t0 = time.perf_counter()
        with span(PASS_SPAN):
            for op in ops:
                state["attempted"] += 1
                with span(OP_PREFIX + op.name):
                    try:
                        outcome = op.run(ctx)
                    except Exception:
                        outcome = None
                        error = traceback.format_exc(limit=3).strip()
                if outcome is None:
                    state["failed"] += 1
                    state["failures"].append({"op": op.name, "why": error})
                    continue
                if not outcome.ok:
                    state["failed"] += 1
                    state["failures"].append({"op": op.name, "why": sorted(
                        k for k, ok in outcome.checks.items() if not ok)})
                for key, value in outcome.digits.items():
                    state["digits"][key] = min(
                        value, state["digits"].get(key, value))
                prints.append([op.name, outcome.fingerprint])
        t1 = time.perf_counter()
        state["pass_s"].append(t1 - t0)
        state["windows"].append((t0, t1))
        state["digests"].append(hashlib.sha256(
            json.dumps(prints).encode()).hexdigest()[:16])
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(state["pass_s"]) > seconds:
            return state


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "renormlab" / "__init__.py").is_file():
        raise BenchError(f"no renormlab package under {SRC}")
    declared = declared_metrics(bool(args.trace))
    setup_raw, setup = measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import renormlab
    import renormlab.cli  # noqa: F401  (every module the workloads use)
    if Path(renormlab.__file__).resolve().parent != SRC / "renormlab":
        raise BenchError(f"imported renormlab from {renormlab.__file__}")

    import layers
    from probe import SpeedProbe
    from refs import REFS
    from tracer import Tracer
    from workloads import SEED_VARIES, WORKLOADS

    ops = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / f"cli-{tag}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            state = run_passes(ops, args.seconds, out_dir, dict(REFS), tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.unpatch()

    wall = statistics.median(state["pass_s"])
    norm_pass_s = [probe.normalized(t0, t1) for t0, t1 in state["windows"]]
    norm_wall = statistics.median(norm_pass_s)
    # fewest digits of agreement with any reference; 0 when no operation
    # that compares with a reference completed
    ref_digits = min(state["digits"].values(), default=0.0)
    if args.trace:
        from renormlab.families import WINDOW_GRIDS
        metrics = layers.layer_metrics(tracer, WINDOW_GRIDS[0])
        metrics["trace.norm_wall_s"] = norm_wall
        units = {k: u for k, (u, _) in layers.METRICS.items()}
        counts = layers.counts_by_pass(tracer, WINDOW_GRIDS[0])
        tracer.save(OUT / f"spans-{tag}.npz")
    else:
        metrics = {
            "norm_wall_s": norm_wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ref_digits": ref_digits,
        }
        units = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "ref_digits": "digits"}
        counts = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_varies": SEED_VARIES,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(),
        "load": "closed loop, one caller, one operation at a time",
        "passes": len(state["pass_s"]),
        "wall_s": wall,
        "pass_s": state["pass_s"],
        "norm_pass_s": norm_pass_s,
        "setup_raw_s": setup_raw,
        "setup_norm_s": setup,
        "digits": state["digits"],
        "result_digests": sorted(set(state["digests"])),
        "counts_equal_across_passes":
            None if counts is None else all(c == counts[0] for c in counts),
        "failures": state["failures"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    failed, attempted = state["failed"], state["attempted"]
    print(f"{args.workload}: {len(state['pass_s'])} passes, "
          f"{attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}), wall_s {wall:.4f} s")
    for key, value in sorted(state["digits"].items()):
        print(f"  {key}_digits {value:.4f} digits")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for failure in state["failures"][:10]:
        print(f"  FAILED {failure['op']}: {failure['why']}")
    print("record " + json.dumps(record))
    if set(metrics) != declared:
        raise BenchError(f"metrics {sorted(set(metrics) ^ declared)} are "
                         f"printed or declared but not both")
    result = {
        "correct": failed == 0 and len(set(state["digests"])) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
