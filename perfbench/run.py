#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is compiled (Release) into .bench_build/ at the checkout root the
first time and brought up to date on every later run; build output goes to
.bench_build/build.log, never to stdout.  The program's stdout is passed
through unchanged, so its last line is the JSON result.  MTS_* variables are
removed from the program's environment: the workloads fix every knob
themselves.
"""
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the program; exits 2 on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if result.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    if not PROGRAM.is_file():
        fail("build produced no program")


def program_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MTS_")}


def main(argv):
    build()
    try:
        result = subprocess.run([str(PROGRAM), *argv], env=program_env(), cwd=str(ROOT),
                                stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"program did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
