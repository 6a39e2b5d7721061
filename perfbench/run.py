#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The library and the benchmark binary are built
with CMake into .bench_build/perfbench (Release); build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_timeout(seconds, traced):
    """Seconds a run may take before it is stopped as hung. A workload
    measures for `seconds`, after generating its inputs and a warm-up round,
    and may overrun by one round (about 7 s on paper_ladder); a traced run
    runs all three workloads and the executor-scaling passes."""
    per_workload = 2 * seconds + 60
    return 3 * per_workload + 60 if traced else per_workload


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "mogbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"error: build failed: {e}")

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            spans = os.path.join(BUILD, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans, f"{args.workload}-seed{args.seed}.json")]
    timeout = (run_timeout(args.seconds, args.trace == "1")
               if not args.selftest else None)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {timeout} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
