#!/usr/bin/env python3
"""Build and run the tsvcod end-to-end benchmark.

    python3 perfbench/run.py --workload design-flow|serve-drift|noc-hotspot \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
library and the benchmark binary (Release) under .bench_build/ (or
$CARGO_TARGET_DIR when set); later runs only check the build is current.
Build output goes to stderr, so the last line of stdout is the binary's
result object. The exit code is the binary's: non-zero when a correctness
check failed. See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design-flow", "serve-drift", "noc-hotspot")
RUN_TIMEOUT_S = 170
# Inputs are made from the seed. Tune on the default seed; recheck a claimed
# gain on the held-out one, which no change should be tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20181


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then bring the binary up to date; returns its path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tsvcod_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd), 1)
    return os.path.join(build_dir, "tsvcod_perfbench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; held-out seed %d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=25.0, help="measurement budget")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: profiled run reporting the per-layer metrics")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(ROOT, build_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--git-describe", git_describe()]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S, 1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
