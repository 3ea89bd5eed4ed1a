#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]

Run from the repository root. Builds perfbench/ and the uMiddle libraries it
links (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark with the given arguments.
Build output goes to stderr; the last line on stdout is the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def configured_for_here(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build():
    out = build_dir()
    if not configured_for_here(out):
        shutil.rmtree(out, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no uMiddle sources beside perfbench/ (src/CMakeLists.txt is missing)",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
