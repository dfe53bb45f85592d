#!/usr/bin/env python3
"""Builds and runs the fleet benchmark.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fleetbench/run.py --selftest     # the generator's own tests

Run from the repository root. The first run configures and builds the
glint libraries and the harness (CMake, Release) into the directory named
by $CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. The harness's output is passed through; its last stdout line is
the JSON result. The exit code is the harness's, or 1 when the build
fails (for instance when the repository's sources are absent).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out, targets):
    """Configures (once) and builds `targets`; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("fleetbench: no glint sources at %s/src" % ROOT, file=sys.stderr)
        return False
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".fleetbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                      "--target"] + targets)
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main(argv):
    out = build_dir()
    if argv == ["--selftest"]:
        if not build(out, ["fleetbench_gen_test"]):
            return 1
        return subprocess.run([os.path.join(out, "fleetbench_gen_test")]).returncode
    if not build(out, ["fleetbench"]):
        return 1
    cmd = [os.path.join(out, "fleetbench")] + argv + [
        "--out-dir", os.path.join(out, "out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
