#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fwd1024 --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's packages through a replace directive. This script builds it
with every Go cache, module and configuration directory placed under
.bench_build/ in the checkout, so a run reads and writes nothing outside
the checkout, then runs the binary with the given arguments. The last line
of the binary's standard output is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    work = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(work, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOPATH": os.path.join(work, "gopath"),
        "GOMODCACHE": os.path.join(work, "gopath", "pkg", "mod"),
        # The go command keeps its telemetry mode and counters under the
        # user configuration directory.
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTMPDIR": os.path.join(work, "tmp"),
        "TMPDIR": os.path.join(work, "tmp"),
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    # With telemetry off the go command starts no background process.
    build = subprocess.run(["go", "telemetry", "off"], cwd=bench, env=env, stdout=sys.stderr)
    if build.returncode == 0:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, "--out", os.path.join(work, "out")] + sys.argv[1:], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
