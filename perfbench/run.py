#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which builds the EXTRA libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs only check that the build is current. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. A traced run also writes its span trace to
.bench_build/perfbench-<workload>.trace.jsonl for `extra-cli profile`.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the EXTRA sources (src/) are not in this checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main(argv):
    args = list(argv)
    workload = args[args.index("--workload") + 1] if "--workload" in args else ""
    binary = build("perfbench")
    work = os.path.join(os.path.dirname(build_dir()), "perfbench-work",
                        str(os.getpid()))
    extra = ["--workdir", work]
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        trace = os.path.join(os.path.dirname(build_dir()),
                             "perfbench-%s.trace.jsonl" % workload)
        extra += ["--trace-out", trace]
    try:
        done = subprocess.run([binary] + args + extra, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
