#!/usr/bin/env python3
"""Build and run the datareuse end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the harness's JSON result. Scratch
files (sockets, cache directories, trace JSON) go under .bench_run/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no datareuse sources next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_selftest")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run([binary, *argv, "--workdir",
                           os.path.relpath(workdir, ROOT)], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
