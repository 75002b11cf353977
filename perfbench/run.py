#!/usr/bin/env python3
"""Build skild and the perfbench harness from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr; stdout carries only the harness's output, whose last line is the
result object. Any build or run failure exits non-zero.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", "Cargo.toml", "-p", "skil-serve", "--bin", "skild"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    harness = os.path.join(target, "release", "perfbench")
    skild = os.path.join(target, "release", "skild")
    return subprocess.run([harness, *sys.argv[1:], "--skild", skild], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
