//===- bench_search_discovery.cpp - Discovery search timings ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// In the 1982 system a user drove every derivation from a structure
// editor; src/search replaces the user with a beam search over the same
// transformation library. These benchmarks time that search: single-case
// discovery of five recorded pairings, and the parallel batch at one,
// two, and four worker threads. The per-case verdicts of the whole suite
// come from `extra-cli search --all`.
//
//===----------------------------------------------------------------------===//

#include "search/BatchDriver.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace extra;
using namespace extra::search;

namespace {

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
  return extra_bench::runBenchmarks(argc, argv);
}
