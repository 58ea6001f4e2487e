#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stream-drift --seeds 1-10 [--trace 0]

Run from the repository root. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json, and marks a spread
at or above a third of the bound. Every run's result line is appended to
.bench_build/spread-<workload>.jsonl and its standard error is kept in
.bench_build/spread-<workload>-<seed>.err.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "spread-%s.jsonl" % args.workload), "a")
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        errpath = os.path.join(".bench_build", "spread-%s-%d.err" % (args.workload, seed))
        with open(errpath, "w") as errf:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=errf, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode), file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        log.write(json.dumps({"seed": seed, **res}) + "\n")
        log.flush()
        if not res["correct"]:
            print("seed %d: incorrect run" % seed, file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
    for name, vs in sorted(values.items()):
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- at or above a third of the bound"
        print("%-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s%s" % (name, med, q1, q3, spread, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
