//===- bench_search_discovery.cpp - Autonomous discovery report -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// In the 1982 system a user drove every derivation from a structure
// editor; src/search replaces the user with a beam search over the same
// transformation library, with rule arguments synthesized from the
// structured divergence reports (src/synth) and candidate order guided
// by rule-bigram priors mined from the recorded corpus. This exhibit
// reports, for every recorded pairing, whether the searcher rediscovers
// a derivation from scratch — no recorded script is consulted — plus the
// search effort: nodes expanded, transposition-table hit rate, and wall
// time. Discovered script lengths are printed next to the recorded ones;
// the searcher's macro moves often find shorter equivalent routes.
//
// Benchmarks: single-case discovery time, and the parallel batch at one,
// two, and four worker threads.
//
//===----------------------------------------------------------------------===//

#include "search/BatchDriver.h"

#include "analysis/Derivations.h"
#include "obs/Metrics.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>
#include <cstdio>

using namespace extra;
using namespace extra::search;

namespace {

/// Tight limits for the report: the discoverable cases finish well
/// inside these, and the out-of-reach cases fail fast instead of
/// spending the full default budget proving it.
SearchLimits reportLimits() {
  SearchLimits L;
  L.TimeBudgetMs = 15000;
  L.MaxNodes = 20000;
  return L;
}

void printDiscoveryReport() {
  std::printf("==== Autonomous derivation discovery (src/search) ====\n\n");
  std::printf("  %-28s %-10s %-10s %-8s %-8s %-9s %s\n", "case",
              "discovered", "recorded", "nodes", "tt-hits", "wall-ms",
              "status");
  std::printf("  %-28s %-10s %-10s %-8s %-8s %-9s %s\n", "----",
              "----------", "--------", "-----", "-------", "-------",
              "------");

  BatchOptions Opts;
  Opts.Threads = 4;
  Opts.Limits = reportLimits();
  // Per-pairing wall times aggregate into the batch.case_wall_ms
  // histogram (src/obs) alongside the per-result timings.
  obs::Metrics Met;
  Opts.Limits.Metrics = &Met;
  BatchStats Stats;
  std::vector<BatchResult> Results =
      runBatch(libraryCases(), Opts, &Stats);

  uint64_t TotalExpanded = 0;
  double TotalSearchMs = 0;
  for (const BatchResult &R : Results) {
    TotalExpanded += R.Discovery.Outcome.Stats.NodesExpanded;
    TotalSearchMs += R.Discovery.Outcome.Stats.WallMs;
  }

  for (const BatchResult &R : Results) {
    const SearchOutcome &O = R.Discovery.Outcome;
    const analysis::AnalysisCase *Recorded =
        analysis::findCase(R.Case.Id);
    size_t RecordedLen = 0;
    if (Recorded)
      RecordedLen = Recorded->OperatorScript.size() +
                    Recorded->InstructionScript.size();

    char DiscLen[32] = "-";
    if (O.Found)
      std::snprintf(DiscLen, sizeof(DiscLen), "%zu+%zu",
                    O.OperatorScript.size(), O.InstructionScript.size());
    char HitRate[32];
    std::snprintf(HitRate, sizeof(HitRate), "%.1f%%",
                  O.Stats.hashHitRate() * 100.0);
    std::printf("  %-28s %-10s %-10zu %-8llu %-8s %-9.1f %s\n",
                R.Case.Id.c_str(), DiscLen, RecordedLen,
                static_cast<unsigned long long>(O.Stats.NodesExpanded),
                HitRate, R.WallMs,
                O.Found ? (R.Discovery.Verified ? "VERIFIED" : "UNVERIFIED")
                        : "not found");
  }

  std::printf("\n  batch: %u/%u discovered, %u verified end-to-end, "
              "%u thread(s), %.1f ms wall\n",
              Stats.Discovered, Stats.Cases, Stats.Verified,
              Stats.ThreadsUsed, Stats.WallMs);
  obs::Histogram::Snapshot CaseWall =
      Met.histogram("batch.case_wall_ms").snapshot();
  std::printf("  per-case wall: %.1f ms summed over %llu case(s), "
              "median ~%llu ms, slowest %s at %.1f ms\n",
              Stats.CaseWallMs,
              static_cast<unsigned long long>(CaseWall.Count),
              static_cast<unsigned long long>(CaseWall.P50),
              Stats.SlowestCase.c_str(), Stats.SlowestCaseMs);
  std::printf("  every discovery replays through the full analysis "
              "pipeline: per-step differential\n  checks, common-form "
              "match, binding constraints, end-to-end equivalence.\n");
  std::printf("  out-of-reach rows need wider beams or deeper "
              "interleavings than this report's\n  budget "
              "(vax.cmpc3/pascal.sequal lands at --beam 128); "
              "i8086.scasb and ibm370.mvc\n  pairings remain open — see "
              "ROADMAP.md.\n\n");

  // Suite-level machine-readable line (same shape as the per-benchmark
  // BENCH_JSON lines from BenchSupport.h, so run_benches.sh and
  // `extra-cli benchdiff` parse it the same way). expansions_per_sec divides
  // total expanded states by summed *search* wall (not batch wall, which
  // depends on the thread count).
  double ExpPerSec =
      TotalSearchMs > 0 ? TotalExpanded * 1000.0 / TotalSearchMs : 0.0;
  std::printf("BENCH_JSON {\"bench\":\"bench_search_discovery\","
              "\"name\":\"discoveryReport/suite\",\"iterations\":1,"
              "\"ns_per_op\":%.3f,\"counters\":{"
              "\"search.expansions_per_sec\":%.6g,"
              "\"search.nodes_expanded\":%llu,"
              "\"search.wall_ms\":%.6g,"
              "\"cases.total\":%u,\"cases.discovered\":%u,"
              "\"cases.verified\":%u}}\n",
              Stats.WallMs * 1e6, ExpPerSec,
              static_cast<unsigned long long>(TotalExpanded), TotalSearchMs,
              Stats.Cases, Stats.Discovered, Stats.Verified);
}

void benchDiscovery(benchmark::State &State, const char *OperatorId,
                    const char *InstructionId) {
  SearchLimits Limits;
  uint64_t Expanded = 0;
  double SearchMs = 0;
  for (auto _ : State) {
    DiscoveryResult R =
        discoverAndVerify(OperatorId, InstructionId, Limits);
    benchmark::DoNotOptimize(R.Verified);
    Expanded += R.Outcome.Stats.NodesExpanded;
    SearchMs += R.Outcome.Stats.WallMs;
  }
  State.counters["search.expansions_per_sec"] =
      SearchMs > 0 ? Expanded * 1000.0 / SearchMs : 0.0;
}
BENCHMARK_CAPTURE(benchDiscovery, movc3_pc2copy, "pc2.copy", "vax.movc3");
BENCHMARK_CAPTURE(benchDiscovery, stosb_pc2clear, "pc2.clear",
                  "i8086.stosb");
BENCHMARK_CAPTURE(benchDiscovery, movc5_pc2clear, "pc2.clear",
                  "vax.movc5");
BENCHMARK_CAPTURE(benchDiscovery, locc_clusearch, "clu.search",
                  "vax.locc");
BENCHMARK_CAPTURE(benchDiscovery, movsb_pl1move, "pl1.move",
                  "i8086.movsb");

void benchBatch(benchmark::State &State) {
  // The three discoverable cases through the worker pool; the argument
  // is the thread count, so per-thread scaling reads off the report.
  std::vector<BatchCase> Cases;
  for (const char *Id :
       {"vax.movc3/pc2.copy", "i8086.stosb/pc2.clear", "vax.movc5/pc2.clear"})
    for (const BatchCase &C : libraryCases())
      if (C.Id == Id)
        Cases.push_back(C);

  BatchOptions Opts;
  Opts.Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    std::vector<BatchResult> R = runBatch(Cases, Opts);
    benchmark::DoNotOptimize(R.size());
  }
}
BENCHMARK(benchBatch)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printDiscoveryReport();
  return extra_bench::runBenchmarks(argc, argv);
}
