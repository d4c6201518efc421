#!/usr/bin/env python3
"""Builds the stack benchmark from source, then runs one workload.

Usage (from the repository root):

  python3 stackbench/run.py --workload tiered_mixed --seed 1 --seconds 20 --trace 0

Every argument is passed through to the `stack_bench` binary (see
stackbench/README.md). The build tree lives in $CARGO_TARGET_DIR/stackbench
(default `.bench_build/stackbench`) under the current directory. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "stackbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "stack_bench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        print("stackbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    if "--trace" in args and "--spans" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            args += ["--spans", os.path.join(out, "spans")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "stack_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
