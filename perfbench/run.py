#!/usr/bin/env python3
"""Build and run the player-round benchmark from the root of a checkout.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

The Go program in this directory is built into the build directory (the
CARGO_TARGET_DIR environment variable, default .bench_build, relative to the
checkout root), with the Go build cache, temporary files and configuration
kept there too, so the benchmark writes nothing outside the checkout. Every argument is passed
to the program; its exit code is returned. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTMPDIR=os.path.join(build, "go-tmp"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    out = os.path.join(build, "perfbench", "runs")
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
