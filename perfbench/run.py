#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot_mix --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the convergence store and the trace file all
go under the build directory ($CARGO_TARGET_DIR when set, else .bench_build),
so a run reads and writes only inside the checkout. The last line of standard
output is the result JSON; a failed build exits non-zero and prints none.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, "-workdir", work_dir] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
