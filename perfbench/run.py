#!/usr/bin/env python3
"""Build and run the ofmtl end-to-end benchmark.

    python3 perfbench/run.py --workload <route_zipf|acl_uniform|route_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the library from ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs also write their spans
to <build dir>/spans/<workload>-seed<n>.json.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("route_zipf", "acl_uniform", "route_churn")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"error: {root} holds no library sources to build", file=sys.stderr)
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "ofmtl_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("error: build failed", file=sys.stderr)
            return 2

    command = [str(build_dir / "ofmtl_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        span_dir = build_dir / "spans"
        span_dir.mkdir(exist_ok=True)
        command += ["--span-file", str(span_dir / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
