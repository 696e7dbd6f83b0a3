#!/usr/bin/env python3
"""Build and run the Omniware serving/shipping benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the libraries under src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary. Its standard output is passed through unchanged: notes
starting with '#', then one JSON result object as the last line. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_light", "serve_heavy", "ship")
RUN_LIMIT_S = 170  # the whole invocation must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds incrementally; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(build_root, "perfbench-state")]
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    try:
        # A first run may have spent its budget building; it still gets
        # enough time for one measurement.
        done = subprocess.run(cmd, timeout=max(remaining, args.seconds + 60))
    except subprocess.TimeoutExpired:
        log("run timed out")  # subprocess.run killed and reaped it
        return 1
    except OSError as err:
        log(f"cannot run {binary}: {err}")
        return 1
    if done.returncode != 0:
        log(f"benchmark exited with {done.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
