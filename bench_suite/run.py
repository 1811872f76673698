#!/usr/bin/env python3
"""Builds the DGR benchmark suite from this checkout and runs one workload.

Usage (from the repository root):

    python3 bench_suite/run.py --workload congested_flow --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused by
later runs; build output goes to stderr so the last line of stdout stays the
suite's JSON result. Every argument is handed to the bench_suite binary
unchanged (see bench_suite/README.md); with --trace 1 the Chrome trace of the
traced pass is written next to the build as trace_<workload>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_suite",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_suite")


def trace_out(args, build_dir):
    """--trace-out for a traced single-workload run, unless one was given."""
    if "--trace-out" in args or "--trace" not in args:
        return []
    i = args.index("--trace")
    if i + 1 >= len(args) or args[i + 1] == "0":
        return []
    workload = "all"
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = args[args.index("--workload") + 1]
    return ["--trace-out", os.path.join(build_dir, "trace_%s.json" % workload)]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no router sources next to bench_suite/", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    args = sys.argv[1:]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, [exe] + args + trace_out(args, build_dir))


if __name__ == "__main__":
    sys.exit(main())
