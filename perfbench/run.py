#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to stderr; the benchmark's report
and its final JSON line go to stdout. Exits non-zero, without a result,
when the build fails (for instance when the program's crates are absent).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.path.dirname(HERE), ".bench_build"
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
