#!/usr/bin/env python3
"""Build and run the LightWSP simulator benchmark for one workload.

    python3 perfbench/run.py --workload paper-apps|scaleout|serve-crash \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver (perfbench/src) is built from
the checkout's sources into .bench_build/perfbench on first use; build
output goes to stderr. The driver's report goes to stdout, and its last
line is one JSON object: correct, attempted, failed and metrics (every
end-to-end metric, or with --trace 1 every per-layer metric). Traced runs
also write their host spans to .bench_build/perfbench/spans-*.jsonl.
The exit status is non-zero when any point fails a check.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found under", ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the driver's own tests")
    args = ap.parse_args()

    if args.selftest:
        build("perfbench_tests")
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              cwd=BUILD).returncode
    if not args.workload:
        ap.error("--workload is required")

    build("lwsp_perfbench")
    cmd = [os.path.join(BUILD, "lwsp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--results", os.path.join(ROOT, "results")]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded", DRIVER_TIMEOUT_S, "s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
