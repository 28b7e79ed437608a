#!/usr/bin/env python3
"""Build and run the Revet benchmark program.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: compile-cold, exec-large, serve-batch, serve-churn (see
perfbench/METRICS.md). The program is built from source with CMake
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
relative to the current directory. Build output goes to stderr; the last
line of stdout is the program's JSON result. Traced runs also write their
spans to <build dir>/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-cold", "exec-large", "serve-batch", "serve-churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the program; return its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "revet_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(build_dir, "revet_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
