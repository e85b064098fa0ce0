#!/usr/bin/env bash
# CI perf-smoke gate for the searcher hot path.
#
# Runs the 14-pairing discovery report (bench_search_discovery) and
# compares its suite-level `search.expansions_per_sec` against the
# committed pre-COW baseline (bench/baselines/search-suite-pre-cow.json,
# measured before the hash-consed copy-on-write AST layer landed). The
# gate fails below MIN_RATIO x the stored baseline — default 3, while
# the PR landed at ~8x, so a CI runner more than twice as slow as the
# baseline machine still passes and a real regression still fails.
#
# usage: scripts/perf_smoke.sh [build-dir] [min-ratio]
set -euo pipefail

BUILD_DIR="${1:-build}"
MIN_RATIO="${2:-3}"
BIN="${BUILD_DIR}/bench/bench_search_discovery"
BASELINE="$(dirname "$0")/../bench/baselines/search-suite-pre-cow.json"

if [ ! -x "${BIN}" ]; then
  echo "error: ${BIN} not found (build first)" >&2
  exit 2
fi
if [ ! -f "${BASELINE}" ]; then
  echo "error: baseline ${BASELINE} not found" >&2
  exit 2
fi

TMP=$(mktemp)
trap 'rm -f "${TMP}"' EXIT

# The report prints before any benchmark runs, and the gate reads only its
# suite line, so the filter matches no benchmark.
"${BIN}" --benchmark_filter='^$' > "${TMP}" 2>&1 ||
  { cat "${TMP}"; echo "error: bench binary failed" >&2; exit 2; }

counter() { # counter <file-or-grep-source> <name-filter> <counter-key>
  grep "^BENCH_JSON " "$1" | grep "\"$2\"" |
    sed "s/.*\"$3\":\([0-9.eE+-]*\).*/\1/" | head -1
}

FRESH=$(counter "${TMP}" "discoveryReport/suite" "search.expansions_per_sec")
BASE=$(sed -n 's/.*"search.expansions_per_sec": *\([0-9.]*\).*/\1/p' \
  "${BASELINE}" | head -1)

if [ -z "${FRESH}" ] || [ -z "${BASE}" ]; then
  cat "${TMP}"
  echo "error: missing search.expansions_per_sec (suite or baseline)" >&2
  exit 2
fi

echo "perf-smoke: suite=${FRESH} exp/s, pre-COW baseline=${BASE} exp/s"
awk -v f="${FRESH}" -v b="${BASE}" -v m="${MIN_RATIO}" 'BEGIN {
  r = (b > 0) ? f / b : 0;
  printf "perf-smoke: ratio %.2fx (gate: >= %sx)\n", r, m;
  exit (r >= m) ? 0 : 1;
}' || {
  echo "error: searcher hot path regressed below ${MIN_RATIO}x baseline" >&2
  # Attribution: name which benchmark and which phase counter moved,
  # not just the one gated ratio. The committed BENCH_*.json is the old
  # side; this run's summary lines are the new side.
  CLI="${BUILD_DIR}/tools/extra-cli"
  COMMITTED=$(ls "$(dirname "$0")"/../BENCH_*.json 2>/dev/null | head -1)
  if [ -x "${CLI}" ] && [ -n "${COMMITTED}" ]; then
    grep '^BENCH_JSON ' "${TMP}" | sed 's/^BENCH_JSON //' > "${TMP}.new" ||
      true
    echo "perf-smoke: regression attribution vs $(basename "${COMMITTED}"):"
    "${CLI}" benchdiff "${COMMITTED}" "${TMP}.new" || true
    rm -f "${TMP}.new"
  fi
  exit 1
}
