#!/usr/bin/env python3
"""Self-tests for the pipeline benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks, in order:
  1. perfbench_selftest: the reference model against known results, the
     median / geometric-mean / ratio arithmetic, and the generator's
     determinism and fixed cell mix;
  2. every metric name in BENCHMARK.json uses only letters, digits, '_',
     '.' and '-', starts with a letter or digit, and is used once;
  3. every workload, untraced and traced, prints exactly the metrics
     BENCHMARK.json declares for that mode, each with its unit, and
     reports a correct run.
Exits 1 on the first failed group.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_names(spec):
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not NAME.match(name):
                fail("bad metric or workload name %r" % name)
            if name in seen:
                fail("name %r used twice" % name)
            seen.add(name)
    print("names: %d ok" % len(seen))


def check_workload(spec, workload, trace):
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if done.returncode:
        fail("%s exited %d: %s" % (" ".join(cmd), done.returncode,
                                   done.stderr[-500:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s trace=%d: incorrect run:\n%s" % (workload, trace, done.stdout))
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("%s trace=%d: printed %s, declared %s" %
             (workload, trace, sorted(printed.items()),
              sorted(declared.items())))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))
    print("%s trace=%d: %d metrics ok" % (workload, trace, len(printed)))


def main():
    binary = run.build("perfbench_selftest")
    if subprocess.run([binary]).returncode:
        fail("perfbench_selftest")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_names(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    print("perfbench self-tests passed")


if __name__ == "__main__":
    main()
