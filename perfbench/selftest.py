"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads fixed_point,parameter_scan,...]

Checks that
  1. every reference in refs.py is right to its stated digits (recomputed
     with mpmath, independently of renormlab);
  2. a deliberately wrong reference makes operations fail;
  3. every metric printed is declared in BENCHMARK.json with the same unit,
     and every declared metric is printed;
  4. traced and untraced runs return identical results, two traced runs
     with the same seed give identical per-layer counts, and renormlab spans
     cover at least 90% of each traced pass;
  5. the benchmark refuses to run, printing no result, in a directory that
     holds only BENCHMARK.json and perfbench/.
It also prints the tracing overhead per workload (traced minus untraced
pass time, normalized and raw).  Takes about five minutes for all three
workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MIN_COVERAGE = 0.9
# name prefixes of the operations that compare a result with a reference;
# None runs all of them (fixed_point's spectra need its solves)
REFERENCE_OPS = {
    "fixed_point": None,
    "parameter_scan": ("windows", "cascade"),
    "seeded_cycles": ("solve_fixed_point",),
}


class Failed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise Failed(what)


def check_references() -> None:
    print("references against an mpmath recomputation")
    values = refs.recompute(dps=60)
    for key, stated in refs.DIGITS.items():
        expect(refs.stated_correctly(stated, values[key]),
               f"{key} = {stated}")


def check_wrong_reference(names) -> None:
    print("a wrong reference makes operations fail")
    sys.path.insert(0, str(run.SRC))
    out_dir = run.OUT / "selftest-cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            ops = workloads.WORKLOADS[name]()
            keep = REFERENCE_OPS[name]
            if keep is not None:
                ops = [op for op in ops if op.name.startswith(keep)]
            wrong = {k: v * (1 + 1e-6) for k, v in refs.REFS.items()}
            state = run.run_passes(ops, 0.0, out_dir, wrong, None)
            reasons = json.dumps(state["failures"])
            expect(state["failed"] > 0 and "vs reference" in reasons,
                   f"{name}: {state['failed']} of {state['attempted']} "
                   f"operations failed")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """Run the benchmark for one pass; returns (returncode, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def parse(lines):
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def check_runs(names) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in names:
        print(f"runs of {name}")
        runs = {}
        for label, trace in (("plain", 0), ("traced", 1), ("traced again", 1)):
            code, lines, err = bench(name, 7, trace)
            expect(code == 0, f"{label} run exits 0 {err[-300:]}")
            runs[label] = parse(lines)
        for label, (record, result) in runs.items():
            section = spec["per_layer" if record["trace"] else "end_to_end"]
            declared = {m["name"]: m["unit"] for m in section}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared,
                   f"{label}: printed metrics and units are the declared ones")
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: correct, {result['attempted']} operations")
        plain, traced = runs["plain"], runs["traced"]
        expect(plain[0]["result_digests"] == traced[0]["result_digests"],
               "traced and untraced results are identical")
        count_keys = [m["name"] for m in spec["per_layer"]
                      if m["unit"] == "count"]
        counts = [{k: r[1]["metrics"][k]["value"] for k in count_keys}
                  for r in (traced, runs["traced again"])]
        expect(counts[0] == counts[1],
               "two traced runs give identical per-layer counts")
        coverage = traced[1]["metrics"]["trace.coverage"]["value"]
        expect(coverage >= MIN_COVERAGE,
               f"renormlab spans cover {coverage:.4f} of the traced pass")
        wall = plain[1]["metrics"]["norm_wall_s"]["value"]
        traced_wall = traced[1]["metrics"]["trace.norm_wall_s"]["value"]
        print(f"  tracing overhead {traced_wall - wall:+.3f} s normalized "
              f"(traced {traced_wall:.3f} s, untraced {wall:.3f} s); raw "
              f"{traced[0]['wall_s'] - plain[0]['wall_s']:+.3f} s, "
              f"one pass each")


def check_bare_directory() -> None:
    print("a directory with only BENCHMARK.json and perfbench/")
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("fixed_point", 1, 0, cwd=bare)
        expect(code != 0 and not any(ln.startswith("{") for ln in lines),
               f"exits {code} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                    help="comma-separated workloads to run")
    names = ap.parse_args(argv).workloads.split(",")
    try:
        check_references()
        check_wrong_reference(names)
        check_runs(names)
        check_bare_directory()
    except Failed as err:
        print(f"self-test failed: {err}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
