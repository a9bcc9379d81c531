#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and its baseline file.

    python3 benchmark/spread.py [--runs 10] [--seed 1] [--fixed-seed]
                                [--workload W ...] [--layers] [--out FILE]

Runs BENCHMARK.json's command once per (workload, run), each run with the
next seed (or always --seed with --fixed-seed), and prints for every
end-to-end metric its median, quartiles and spread: the distance between
the quartiles, as statistics.quantiles(values, n=4) gives them, over the
median.  A spread at or above a third of the metric's bound is flagged.
--layers adds one traced run per workload.  --out writes everything as
JSON: the baseline file is

    python3 benchmark/spread.py --runs 10 --seed 42 --fixed-seed --layers \\
        --out benchmark/results/baseline-seed42.json

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)}: exit {proc.returncode}\n"
                 f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fixed-seed", action="store_true")
    p.add_argument("--workload", action="append")
    p.add_argument("--layers", action="store_true")
    p.add_argument("--out")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    result = {"seconds": seconds, "runs": a.runs, "workloads": {}}
    for w in workloads:
        samples, failed, attempted = {}, 0, 0
        for i in range(a.runs):
            seed = a.seed if a.fixed_seed else a.seed + i
            out = run(bench["command"], w, seed, seconds, 0)
            failed += out["failed"]
            attempted += out["attempted"]
            if not out["correct"]:
                print(f"{w} seed {seed}: incorrect output", file=sys.stderr)
            for name, m in out["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        entry = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: summary(v) for k, v in samples.items()},
        }
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{w:13} {name:22} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        if a.layers:
            out = run(bench["command"], w, a.seed, seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in out["metrics"].items()}
            entry["traced_correct"] = out["correct"]
        result["workloads"][w] = entry
        sys.stdout.flush()

    if a.out:
        with open(a.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
