#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-fingerprint
    python3 perfbench/run.py --test

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; traces go to .bench_out. The last line of
standard output is the JSON result (see README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
FINGERPRINT = os.path.join(HERE, "fingerprint.tsv")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "--quiet"]
    args = sys.argv[1:]
    if args == ["--test"]:
        return subprocess.call(
            cargo + ["test", "--release", "--offline", "--manifest-path", MANIFEST], env=env
        )
    build = subprocess.call(
        cargo + ["build", "--release", "--offline", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if args == ["--write-fingerprint"]:
        args = ["--write-fingerprint", FINGERPRINT]
    else:
        args = args + ["--fingerprint", FINGERPRINT, "--out", ".bench_out"]
    return subprocess.call([exe] + args, env=env)


if __name__ == "__main__":
    sys.exit(main())
