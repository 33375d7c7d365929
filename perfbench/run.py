#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; build output goes to stderr so
the last line of stdout stays the benchmark's JSON result. A traced
run writes its Chrome trace to <build dir>/traces/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-bgv", "infer-ckks", "compile-suite")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir(os.path.join(root, "src")):
        sys.exit("perfbench: no library sources under ./src; run from "
                 "the repository root")
    build_root = os.path.join(root,
                              os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        subprocess.run(["cmake", "-S", here, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    traces = os.path.join(build_root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-file",
           os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
