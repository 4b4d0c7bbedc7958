#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve|churn|prefork --seed N \
        --seconds S --trace 0|1

It builds perfbench/bench.exe from source with dune (the shared dune
cache is disabled, so the build stays inside the checkout), then runs it
with the given arguments. The last line of standard output is the JSON
result. A failed build exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
