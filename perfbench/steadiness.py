#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

    python3 perfbench/steadiness.py [--seeds 10] [--workload NAME ...]
                                    [--baseline perfbench/baseline.json]

Run from the repository root. For every workload it runs the command in
BENCHMARK.json once per seed with `--trace 0`, then prints, per
end-to-end metric, the median of the per-run values and the distance
between their first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound and a
third of it. With `--baseline` it also writes those medians and spreads
as a JSON baseline. It exits 1 when a run is incorrect or fails, or when
a spread other than `setup_s` exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_one(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    baseline = {}
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_one(bench["command"], workload, seed, bench["run_seconds"])
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}")
                ok = False
            if set(r["metrics"]) != set(bounds):
                print(f"{workload} seed {seed}: metrics {sorted(r['metrics'])} "
                      f"do not match BENCHMARK.json {sorted(bounds)}")
                ok = False
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        baseline[workload] = {}
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            iqr = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            flag = "" if iqr <= bound / 3 else (" ABOVE BOUND/3" if iqr <= bound else " ABOVE BOUND")
            if iqr > bound and name != "setup_s":
                ok = False
            print(f"  {name:<18} median {med:<14.6g} iqr/median {iqr:7.4f}  bound {bound}{flag}")
            baseline[workload][name] = {"median": med, "iqr_frac": iqr, "values": v}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
