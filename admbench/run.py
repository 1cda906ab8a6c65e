#!/usr/bin/env python3
"""Builds and runs the admission benchmark (admbench) from a source checkout.

    python3 admbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 admbench/run.py --self-test

Run it from the root of the checkout. The first run configures and builds
the library and the benchmark into $CARGO_TARGET_DIR (default .bench_build)
with CMake; later runs only re-check the build. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The result's
metric names must be exactly the ones BENCHMARK.json lists for the run's
mode; any mismatch, failed build or failed run exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "admbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "admbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "admbench")


def expected_metrics(trace):
    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"admbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode
    # Start from a quiet disk: write back what the build left dirty.
    os.sync()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"admbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
        want = expected_metrics(args.trace)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print(f"admbench: unreadable result: {e}", file=sys.stderr)
        return 2
    if names != want:
        sys.stderr.write(proc.stdout)
        print(f"admbench: metrics {sorted(names ^ want)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
