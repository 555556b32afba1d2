#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml program (perfbench/bench.exe)
is built with dune into the tree's own _build directory, with dune's
shared cache disabled so that nothing is written outside the tree.  Build
output goes to stderr; the program's stdout, whose last line is the JSON
result, passes through unchanged, and so does its exit code.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no source tree at %s (dune-project and lib/ are "
              "missing); nothing to build" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    bench = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env)
    # A signal that stops this script stops the benchmark too, which then
    # removes its cache directories; the script waits for it to end.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: bench.send_signal(signum))
    return bench.wait()


if __name__ == "__main__":
    sys.exit(main())
