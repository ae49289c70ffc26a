#!/usr/bin/env python3
"""Build the radiobfs binary and the benchmark program from source, then run
the benchmark with the given arguments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scale-decay --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ in the
checkout (the Go build cache included), so the benchmark touches nothing
outside it. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        # The toolchain's config, telemetry and caches stay in the checkout.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    # The in-process layer probe is built only for traced runs, so an
    # untraced run depends on nothing but the radiobfs binary.
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    trace = parser.parse_known_args()[0].trace == "1"
    steps = [
        (root, ["go", "build", "-o", os.path.join(build, "radiobfs"), "./cmd/radiobfs"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(build, "perfbench"), "."]),
    ]
    if trace:
        steps.append((os.path.join(root, "perfbench"),
                      ["go", "build", "-o", os.path.join(build, "layers"), "./layers"]))
    for cwd, cmd in steps:
        if not os.path.isdir(cwd):
            print("perfbench: missing source directory %s" % cwd, file=sys.stderr)
            return 2
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2
    args = [os.path.join(build, "perfbench"), "--bin", os.path.join(build, "radiobfs"),
            "--layers", os.path.join(build, "layers"), "--work", os.path.join(build, "work")]
    return subprocess.run(args + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
