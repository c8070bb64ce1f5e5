#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train|serve|serve_update \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. A traced run (--trace 1) also writes its spans
to .bench_build/perfbench/traces/<workload>-<seed>.json.

Exit codes: 0 on a finished run, 2 on bad arguments, 1 when the build or
the run fails; no result line is printed then.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def flag_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main(argv):
    # A terminated run.py still stops and reaps its build or benchmark child:
    # SystemExit unwinds through subprocess.run and the wait below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    command = [BINARY] + argv
    if flag_value(argv, "--trace") == "1" and "--trace-out" not in argv:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-%s.json" % (flag_value(argv, "--workload") or "run",
                               flag_value(argv, "--seed") or "1")
        command += ["--trace-out", os.path.join(traces, name)]
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        raise
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
