#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 e2ebench/spread.py --seeds 1-10 --seconds 20 \
        [--workloads apps_saturated,fuzz_cases] [--out spread.json]

runs e2ebench/run.py once per workload and seed, one run at a time, and
prints for each end-to-end metric the median of the runs and the spread
(third minus first quartile, statistics.quantiles(n=4), as a share of
the median) against the bound in BENCHMARK.json. --out writes the raw
values and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": seconds, "seeds": parse_seeds(opts.seeds),
              "workloads": {}}
    for w in workloads:
        runs = [run_once(w, s, seconds) for s in report["seeds"]]
        summary = {}
        print("%s (%d runs)" % (w, len(runs)))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[name] = {"median": med, "spread": spread,
                             "bound": bound, "values": values}
            flag = "" if spread <= bound / 3 else "  above bound/3"
            print("  %-22s median %-14.6g spread %.4f  bound %.2f%s"
                  % (name, med, spread, bound, flag))
        report["workloads"][w] = summary
        sys.stdout.flush()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
