#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and report, per metric,
the median and the inter-quartile spread relative to the median.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
        [--trace 0|1] [--record LABEL]

It runs all three workloads. Each run is one `perfbench/run.py` process
with its own seed (first-seed, first-seed + 1, ...). The spread is
(q3 - q1) / median, with q1 and q3 from Python's
statistics.quantiles(values, n=4). The bounds in BENCHMARK.json were set
from this mode; perfbench/README.md gives the spreads it measured.
Any run that reports correct=false or exits non-zero stops the mode.
--record appends the summary, under LABEL, to perfbench/trajectory.json:
the bench trajectory, one entry per measured commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-apps", "scaleout", "serve-crash"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("run failed: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LABEL",
                    help="append the summary to trajectory.json")
    args = ap.parse_args()

    summary = {}
    for w in WORKLOADS:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(w, seed, args.seconds, args.trace))
            print("%s seed %d done" % (w, seed), file=sys.stderr, flush=True)
        summary[w] = {m: summarize([r[m] for r in runs]) for m in runs[0]}
        print("%-12s %-26s %14s %8s" % ("workload", "metric", "median",
                                         "spread"))
        for m, s in summary[w].items():
            print("%-12s %-26s %14.6g %7.2f%%" % (w, m, s["median"],
                                                  100 * s["spread"]))
        sys.stdout.flush()
    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        entries = []
        if os.path.exists(path):
            with open(path) as f:
                entries = json.load(f)
        entries.append({"label": args.record, "seconds": args.seconds,
                        "trace": args.trace, "first_seed": args.first_seed,
                        "runs": args.runs, "workloads": summary})
        with open(path, "w") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
