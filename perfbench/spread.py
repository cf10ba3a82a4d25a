"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--first-seed 1]
                                [--compare .perfbench_out/spread-A.json]

Runs the benchmark --runs times per workload, each with its own seed, and
prints for every end-to-end metric the median and the distance between the
first and third quartile as a share of the median, next to the metric's
bound (a steady benchmark keeps the spread below a third of the bound).
With --compare, also prints how far each median moved from an earlier
set of runs, in the direction that counts as worse.  Raw values are written
to .perfbench_out/spread-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    raw = {}
    ok = True
    for name in names:
        values = {m: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect result")
                ok = False
            for m in metrics:
                values[m].append(result["metrics"][m]["value"])
        raw[name] = values
        for m, spec_m in metrics.items():
            med = statistics.median(values[m])
            line = (f"{name:15s} {m:12s} median {med:10.5g} "
                    f"spread {spread(values[m]):.4f} "
                    f"bound {spec_m['bound']}")
            if name in earlier:
                before = statistics.median(earlier[name][m])
                worse = (med - before) / before
                if spec_m["better"] == "higher":
                    worse = -worse
                line += f" worse-than-earlier {worse:+.4f}"
            print(line, flush=True)
    out = ROOT / ".perfbench_out" / f"spread-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
