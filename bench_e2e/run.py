#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run one workload.

    python3 bench_e2e/run.py --workload stream_ingest --seed 1 \
        --seconds 10 --trace 0
    python3 bench_e2e/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
builds (minutes), later runs only check that the build is current. The last
line of standard output is the benchmark's JSON result. Build output goes to
standard error. Exits non-zero, without a result, when the program's
sources are not beside the benchmark or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a workload must finish well inside 180 s
BUILD_TIMEOUT_S = 840


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program's sources (src/) are not beside bench_e2e/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", build_dir, "--target", target,
                 "-j", jobs], BUILD_TIMEOUT_S)
    return build_dir


def run(cmd):
    """Runs the benchmark binary with its stdout passed through."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["stream_ingest", "wide_analytics",
                                 "serve_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build("bench_e2e_selftest")
        return run([os.path.join(build_dir, "bench_e2e_selftest")])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = build("bench_e2e")
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
