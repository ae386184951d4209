#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot_replay|cold_series|ingest_mixed \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench (and the library it links)
from source under the build directory: $CARGO_TARGET_DIR if set, else
.bench_build.  Build output goes to stderr; the benchmark's report goes to
stdout and ends with one JSON line.  Exits nonzero, without a report, when
the sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", "4"]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        return 1
    # Relative to the checkout root: unix socket paths must stay short.
    rel_build = os.path.relpath(build_root, ROOT)
    work_dir = os.path.join(rel_build, "work-%d" % os.getpid())
    args = [binary] + argv + ["--work-dir", work_dir]
    if "--workload" in argv:
        workload = argv[argv.index("--workload") + 1:][:1] or ["unknown"]
        args += ["--trace-dir", os.path.join(rel_build, "traces", workload[0])]
    try:
        return subprocess.run(args, cwd=ROOT).returncode
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
