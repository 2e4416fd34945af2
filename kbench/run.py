#!/usr/bin/env python3
"""Build kfusec and the kbench load generator from source, then run the benchmark.

    python3 kbench/run.py --workload oneshot|stream|plan|all --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a kfuse checkout.  The build goes to the
checkout's _build/ (dune), progress and the human report go to stderr,
and the last line of stdout is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("kbench: %s not found next to kbench/; run from a kfuse checkout"
                  % need, file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/kfusec.exe",
         "./kbench/bin/kbench.exe"],
        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("kbench: build failed", file=sys.stderr)
        return 1
    build_dir = os.path.join(ROOT, "_build", "default")
    exe = os.path.join(build_dir, "kbench", "bin", "kbench.exe")
    kfusec = os.path.join(build_dir, "bin", "kfusec.exe")
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    # exec, not spawn: signals sent to this process reach kbench,
    # which stops its kfused children before exiting.
    os.execv(exe, [exe] + sys.argv[1:] + ["--kfusec", kfusec])


if __name__ == "__main__":
    sys.exit(main())
