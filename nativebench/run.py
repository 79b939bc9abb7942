#!/usr/bin/env python3
"""Build the native benchmark from source and run one workload.

    python3 nativebench/run.py --workload bulk_1k --seed 1 --seconds 10 --trace 0

Builds the `nativebench` crate (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` under the current directory when that is unset, then
runs it with the given arguments. The benchmark's last line of standard
output is its JSON result; the exit code is the benchmark's own, or 2
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("nativebench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "nativebench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
