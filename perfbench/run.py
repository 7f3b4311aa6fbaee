#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kernel_path --seed 1 --seconds 60 --trace 0

Builds perfbench/perfbench.exe from source with dune (a no-op when the
build is current), then replaces this process with it, passing every
argument through.  Exits 2 without running anything when the current
directory is not a checkout of the repository or the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the repository root "
                         "(dune-project, lib/ and perfbench/dune are needed)\n")
        return 2
    if shutil.which("dune") is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # Build output goes to stderr: the last stdout line is the result.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno())
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
