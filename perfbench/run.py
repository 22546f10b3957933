#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 25 --trace 0

The Go program in this directory is compiled against the checkout it sits
in (its go.mod points at ../), with every build artefact, cache and the
Go toolchain's own state kept under .bench_build/ in that checkout. The
arguments are passed through; the exit code is the program's.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOPROXY="off",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("perfbench: build failed (is this the repository root?)", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
