#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the benchmark
driver computes it: N runs per workload, each with another --seed; spread =
(q3 - q1) / median with statistics.quantiles(values, n=4).

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--trace 0|1] [workload ...]

Prints one row per (workload, metric) with its bound from BENCHMARK.json;
a row is flagged when the spread exceeds a third of the bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

here = pathlib.Path(__file__).resolve().parent
spec = json.loads((here.parent / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--trace", default="0", choices=["0", "1"])
ap.add_argument("--raw", help="also write every run's values to this JSON file")
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
args = ap.parse_args()

bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
worst = 0.0
raw = {}
for workload in args.workloads:
    values = raw.setdefault(workload, {})
    for i in range(args.runs):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(args.first_seed + i),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        t0 = time.time()
        out = subprocess.run(cmd, cwd=here.parent, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {args.first_seed + i}: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# {workload} seed {args.first_seed + i}: {time.time() - t0:.1f} s", file=sys.stderr)
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  <-- above a third of the bound" if spread > bound / 3 else ""
        print(f"{workload:14} {name:34} median {med:14.4f}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-'}{flag}")
print(f"worst spread/bound: {worst:.3f}")
if args.raw:
    pathlib.Path(args.raw).write_text(json.dumps(raw, indent=1))
