#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study|fleet|serve --seed N --seconds S --trace 0|1

Everything the build and the run write (the Go build cache, the binary,
result manifests and trace spans) goes under $CARGO_TARGET_DIR, or
.bench_build when that is unset, inside the checkout. A failed build
exits with the Go toolchain's non-zero status and prints no result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    # The revision is stamped by hand, with VCS stamping off, so that a
    # checkout without .git (or inside someone else's) still builds.
    rev = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())))
        if git.returncode == 0:
            rev = git.stdout.strip()
    except OSError:
        pass  # no git on this host: the revision stays unknown
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-ldflags=-X=main.gitRev=" + rev,
                            "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    out = os.path.join(build, "perfbench")
    os.execve(binary, [binary] + sys.argv[1:] + ["--out", out], env)


if __name__ == "__main__":
    main()
