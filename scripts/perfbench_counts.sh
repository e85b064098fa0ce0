#!/usr/bin/env bash
# Gate perfbench's exact counts against a base commit.
#
# Builds perfbench at BASE_REF (exported with git archive into a
# temporary directory) and at the checked-out tree, each with
# perfbench/run.py into its own CARGO_TARGET_DIR, and runs every workload
# of BENCHMARK.json on both builds with --seed 1 --seconds 1, once with
# --trace 1 and once with --trace 0: a traced run prints the per-layer
# counts, and only an untraced run prints code_lines and dispatch_ratio.
# Fails when any run is not correct, or when any metric whose unit is
# `count`, or dispatch_ratio, differs between the two builds. These do
# not depend on the machine, so the two builds only need to share a
# runner, not a baseline file. The fastest traced pass of each build is
# printed side by side and not gated: one short run on a shared machine
# says nothing about speed.
#
# usage: scripts/perfbench_counts.sh BASE_REF
set -euo pipefail

BASE_REF="${1:?usage: scripts/perfbench_counts.sh BASE_REF}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

mkdir "${WORK}/base"
git -C "${ROOT}" archive "${BASE_REF}" | tar -x -C "${WORK}/base"
BASE_SHORT=$(git -C "${ROOT}" rev-parse --short "${BASE_REF}")
echo "perfbench-counts: base ${BASE_SHORT}," \
  "head $(git -C "${ROOT}" rev-parse --short HEAD)"

WORKLOADS=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "${ROOT}/BENCHMARK.json")

run() { # run <checkout> <side> <workload> <trace>
  (cd "$1" && CARGO_TARGET_DIR="${WORK}/$2-target" python3 perfbench/run.py \
    --workload "$3" --seed 1 --seconds 1 --trace "$4") >"${WORK}/$2-$3-$4.out"
}

# compare.py <label> <base output> <head output>
cat >"${WORK}/compare.py" <<'EOF'
import json
import sys

workload, base_out, head_out = sys.argv[1:]


def result(path):
    lines = open(path).read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


base, head = result(base_out), result(head_out)
problems = []
for side, r in (("base", base), ("head", head)):
    if r is None:
        problems.append("%s printed no result" % side)
    elif not r["correct"] or r["failed"]:
        problems.append("%s run is not correct (%d of %d failed)"
                        % (side, r["failed"], r["attempted"]))
if base and head:
    for name in sorted(set(base["metrics"]) | set(head["metrics"])):
        b, h = base["metrics"].get(name), head["metrics"].get(name)
        if (name != "dispatch_ratio"
                and "count" not in {m["unit"] for m in (b, h) if m}):
            continue
        bv, hv = b and b["value"], h and h["value"]
        if bv != hv:
            problems.append("%s: base %s, head %s" % (name, bv, hv))
    if "pass_ms" in base["metrics"] and "pass_ms" in head["metrics"]:
        print("%s: pass_ms base %.1f, head %.1f (not gated)"
              % (workload, base["metrics"]["pass_ms"]["value"],
                 head["metrics"]["pass_ms"]["value"]))
for p in problems:
    print("%s: %s" % (workload, p))
if not problems:
    print("%s: every gated metric equal" % workload)
sys.exit(1 if problems else 0)
EOF

status=0
for W in ${WORKLOADS}; do
  for T in 1 0; do
    run "${WORK}/base" base "${W}" "${T}" || status=1
    run "${ROOT}" head "${W}" "${T}" || status=1
    python3 "${WORK}/compare.py" "${W} --trace ${T}" \
      "${WORK}/base-${W}-${T}.out" "${WORK}/head-${W}-${T}.out" || status=1
  done
done

if [ "${status}" != 0 ]; then
  echo "perfbench-counts: FAILED" >&2
fi
exit "${status}"
