#!/usr/bin/env python3
"""Build and run the eHDL end-to-end benchmark.

    python3 e2ebench/run.py --workload apps_saturated --seed 1 \
        --seconds 20 --trace 0

builds the benchmark from the checkout's sources into
.bench_build/e2ebench (CMake, an incremental no-op after the first run),
then runs it with the given arguments. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. With --trace 1 the spans
are also written to .bench_build/e2ebench/traces/<workload>-seed<n>.json.
`python3 e2ebench/run.py --selftest` runs the benchmark's self-tests.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "ehdl_e2ebench")


def build():
    """Configure once, then build; True when the binary is up to date."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload"),
                                   arg_value(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    # Replace this process with the benchmark, so that it has no child to
    # outlive it and signals reach the benchmark directly.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    sys.exit(main())
