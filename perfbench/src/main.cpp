//===- main.cpp - perfbench: one workload, one seed, one JSON line --------===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir DIR] [--trace-out FILE]
//
// Sets up five times (setup_s is the median), then repeats the
// workload's fixed pass until the next pass would overrun --seconds.
// Untraced (--trace 0) every pass runs with tracing and metrics off and
// the run prints the end-to-end metrics. Traced (--trace 1) passes
// alternate untraced and traced, and the run prints the per-layer
// metrics of one set-up plus one pass, with the tracing overhead as the
// ratio of the two kinds of pass. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Determinism guard: every pass must reproduce the first pass's exact
// counts (per pairing search counts, verdicts, admissions, dispatches,
// code lines), although each discovery pass permutes the pairing order.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

constexpr unsigned SetupReps = 5;

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir DIR] "
               "[--trace-out FILE]\nworkloads:",
               Why);
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<double> walls(const std::vector<Tally> &Ts) {
  std::vector<double> Out;
  for (const Tally &T : Ts)
    Out.push_back(static_cast<double>(T.WallNs));
  return Out;
}

double minOf(const std::vector<double> &V) {
  return *std::min_element(V.begin(), V.end());
}

double medianOf(const std::vector<Tally> &Ts, uint64_t (*Get)(const Tally &)) {
  std::vector<double> V;
  for (const Tally &T : Ts)
    V.push_back(static_cast<double>(Get(T)));
  return median(V);
}

/// The first key on which \p B's exact counts differ from \p A's.
std::string firstDifference(const Tally &A, const Tally &B) {
  for (const auto &[K, V] : A.Signature) {
    auto It = B.Signature.find(K);
    if (It == B.Signature.end() || It->second != V)
      return K;
  }
  for (const auto &[K, V] : B.Signature)
    if (!A.Signature.count(K))
      return K;
  return std::string();
}

std::string metricCountsKey(const Tally &T) {
  std::ostringstream S;
  S << T.TransformAttempts << '/' << T.TransformRefusals << '/'
    << T.ScratchClones << '/' << T.SynthProposals << '/' << T.MatchCalls
    << '/' << T.VerifyCalls;
  return S.str();
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, WorkDir = ".bench_build/perfbench-work", TraceOut;
  long long Seed = -1, Seconds = -1, Trace = -1;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      WorkloadName = V;
    else if (A == "--workdir")
      WorkDir = V;
    else if (A == "--trace-out")
      TraceOut = V;
    else if (A == "--seed")
      Seed = std::strtoll(V.c_str(), &End, 10);
    else if (A == "--seconds")
      Seconds = std::strtoll(V.c_str(), &End, 10);
    else if (A == "--trace")
      Trace = std::strtoll(V.c_str(), &End, 10);
    else
      return usage(("unknown option " + A).c_str());
    if (End && *End)
      return usage(("not a number: " + V).c_str());
  }
  if (Seed < 0 || Seconds < 1 || (Trace != 0 && Trace != 1))
    return usage("--seed, --seconds and --trace are required");
  WorkloadOptions Opts;
  Opts.Seed = static_cast<uint64_t>(Seed);
  Opts.WorkDir = WorkDir;
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName, Opts);
  if (!W)
    return usage(("unknown workload '" + WorkloadName + "'").c_str());

  std::ostringstream TraceBuf;
  extra::obs::JsonlTraceSink Sink(TraceBuf);
  extra::obs::Metrics Met;
  Pipeline Plain(nullptr, nullptr);
  Pipeline Traced(&Sink, &Met);
  Pipeline &SetupPL = Trace ? Traced : Plain;

  std::vector<Tally> Setups, Untraced, TracedPasses;
  // A call that throws is a fault: it fails the run instead of ending it.
  auto Run = [&](Pipeline &PL, const char *Segment, auto &&Work) {
    PL.begin(Segment, WorkloadName);
    try {
      Work();
    } catch (const std::exception &E) {
      PL.tally().fail(std::string(Segment) + " threw: " + E.what());
    }
    return PL.end();
  };
  for (unsigned R = 0; R < SetupReps; ++R)
    Setups.push_back(Run(SetupPL, "setup", [&] { W->setup(SetupPL); }));

  const uint64_t Budget = static_cast<uint64_t>(Seconds) * 1000000000ull;
  const uint64_t Start = nowNs();
  for (unsigned K = 0;; ++K) {
    bool IsTraced = Trace && K % 2 == 1;
    Pipeline &PL = IsTraced ? Traced : Plain;
    Tally T = Run(PL, "pass", [&] { W->pass(PL, K); });
    uint64_t Last = T.WallNs;
    (IsTraced ? TracedPasses : Untraced).push_back(std::move(T));
    bool Enough = !Untraced.empty() && (!Trace || !TracedPasses.empty());
    if (Enough && nowNs() - Start + Last > Budget)
      break;
  }

  // Correctness: every check of every segment, plus the determinism guard.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  auto Absorb = [&](const std::vector<Tally> &Ts) {
    for (const Tally &T : Ts) {
      Attempted += T.Attempted;
      Failed += T.Failed;
      for (const std::string &F : T.Failures)
        if (Failures.size() < 12)
          Failures.push_back(F);
    }
  };
  Absorb(Setups);
  Absorb(Untraced);
  Absorb(TracedPasses);
  auto Guard = [&](const std::vector<Tally> &Ts, const Tally &Ref,
                   const char *What) {
    for (const Tally &T : Ts) {
      ++Attempted;
      std::string Diff = firstDifference(Ref, T);
      if (!Diff.empty()) {
        ++Failed;
        Failures.push_back(std::string("nondeterministic ") + What + ": " +
                           Diff);
        return;
      }
    }
  };
  Guard(Setups, Setups.front(), "set-up");
  Guard(Untraced, Untraced.front(), "pass");
  Guard(TracedPasses, Untraced.front(), "traced pass");
  for (const Tally &T : TracedPasses) {
    ++Attempted;
    if (metricCountsKey(T) != metricCountsKey(TracedPasses.front())) {
      ++Failed;
      Failures.push_back("nondeterministic metrics counts: " +
                         metricCountsKey(T) + " vs " +
                         metricCountsKey(TracedPasses.front()));
      break;
    }
  }

  const Tally &S = Setups.back();
  const Tally &U0 = Untraced.front();
  // The fastest untraced pass: the work is fixed and deterministic, so
  // anything slower is interference from outside the process.
  double PassNs = minOf(walls(Untraced));
  std::vector<Metric> Out;
  if (!Trace) {
    Out = {{"setup_s", median(walls(Setups)) / 1e9, "s"},
           {"peak_rss_mb", peakRssMb(), "MB"},
           {"sim_dispatches", static_cast<double>(U0.RegDispatches), "count"},
           {"code_lines", static_cast<double>(U0.RegCodeLines), "count"},
           {"dispatch_ratio", U0.dispatchRatio(), "ratio"}};
  } else {
    const std::vector<Tally> &P = TracedPasses;
    const Tally &P0 = P.front();
    // Per-layer figures: the last (warm) set-up plus the median traced
    // pass.
    auto LayerMs = [&](Layer L) {
      double Pass = median([&] {
        std::vector<double> V;
        for (const Tally &T : P)
          V.push_back(static_cast<double>(T.Ns[L]));
        return V;
      }());
      return (static_cast<double>(S.Ns[L]) + Pass) / 1e6;
    };
    auto SumMs = [&](uint64_t (*Get)(const Tally &)) {
      return (static_cast<double>(Get(S)) + medianOf(P, Get)) / 1e6;
    };
    auto Count = [&](uint64_t Tally::*F) {
      return static_cast<double>(S.*F + P0.*F);
    };
    double Expansions = Count(&Tally::Expansions);
    double Dispatches = Count(&Tally::Dispatches);
    double PassS = PassNs / 1e9;
    Out = {
        {"pass_ms", PassNs / 1e6, "ms"},
        {"descriptions.load_ms", LayerMs(LDescLoad), "ms"},
        {"search.ms", LayerMs(LSearch), "ms"},
        {"search.expansions", Expansions, "count"},
        {"search.generated", Count(&Tally::Generated), "count"},
        {"search.candidates", Count(&Tally::Candidates), "count"},
        {"search.dead_ends", Count(&Tally::DeadEnds), "count"},
        {"search.hash_hits", Count(&Tally::HashHits), "count"},
        {"search.verify_memo_hits", Count(&Tally::VerifyMemoHits), "count"},
        {"search.goal_checks", Count(&Tally::GoalChecks), "count"},
        {"search.reopened", Count(&Tally::Reopened), "count"},
        {"search.ns_per_expansion", ratio(LayerMs(LSearch) * 1e6, Expansions),
         "ns"},
        {"search.useful_ratio",
         ratio(Count(&Tally::Generated), Count(&Tally::Candidates)), "ratio"},
        {"transform.attempts", Count(&Tally::TransformAttempts), "count"},
        {"transform.refusals", Count(&Tally::TransformRefusals), "count"},
        {"transform.refusal_ratio",
         ratio(Count(&Tally::TransformRefusals),
               Count(&Tally::TransformAttempts)),
         "ratio"},
        {"transform.apply_ms",
         SumMs([](const Tally &T) { return T.TransformApplyNs; }), "ms"},
        {"transform.scratch_clones", Count(&Tally::ScratchClones), "count"},
        {"synth.proposals", Count(&Tally::SynthProposals), "count"},
        {"isdl.match_calls", Count(&Tally::MatchCalls), "count"},
        {"isdl.match_ms", SumMs([](const Tally &T) { return T.MatchNs; }),
         "ms"},
        {"analysis.replay_ms", LayerMs(LReplay), "ms"},
        {"analysis.replays_verified", Count(&Tally::ReplaysVerified), "count"},
        {"analysis.verify_calls", Count(&Tally::VerifyCalls), "count"},
        {"analysis.verify_ms", SumMs([](const Tally &T) { return T.VerifyNs; }),
         "ms"},
        {"registry.import_ms", LayerMs(LImport), "ms"},
        {"registry.entries_admitted", Count(&Tally::EntriesAdmitted), "count"},
        {"registry.bind_ms", LayerMs(LBind), "ms"},
        {"registry.bindings_loaded", Count(&Tally::BindingsLoaded), "count"},
        {"codegen.parse_ms", LayerMs(LParse), "ms"},
        {"codegen.generate_ms", LayerMs(LGenerate), "ms"},
        {"codegen.exotic_ops", Count(&Tally::ExoticOps), "count"},
        {"codegen.decomposed_ops", Count(&Tally::DecomposedOps), "count"},
        {"codegen.rewritten_ops", Count(&Tally::RewrittenOps), "count"},
        {"sim.ms", LayerMs(LSim), "ms"},
        {"sim.dispatches", Dispatches, "count"},
        {"sim.micro_ops", Count(&Tally::MicroOps), "count"},
        {"sim.ns_per_dispatch", ratio(LayerMs(LSim) * 1e6, Dispatches), "ns"},
        {"pairings_per_s", ratio(static_cast<double>(U0.Pairings), PassS),
         "1/s"},
        {"programs_per_s", ratio(static_cast<double>(U0.Programs), PassS),
         "1/s"},
        {"bindings_verified", static_cast<double>(P0.BindingsVerified),
         "count"},
        {"trace.overhead_ratio", ratio(minOf(walls(P)), PassNs), "ratio"}};
    if (!TraceOut.empty()) {
      std::ofstream F(TraceOut);
      F << TraceBuf.str();
      if (!F.good())
        std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                     TraceOut.c_str());
    }
  }

  std::printf("perfbench %s seed=%lld trace=%lld: %zu set-ups, %zu untraced "
              "+ %zu traced passes; untraced pass fastest %.3f ms, median "
              "%.3f ms\n",
              WorkloadName.c_str(), Seed, Trace, Setups.size(),
              Untraced.size(), TracedPasses.size(), PassNs / 1e6,
              median(walls(Untraced)) / 1e6);
  for (const std::string &F : Failures)
    std::printf("  FAILED: %s\n", F.c_str());
  for (const Metric &M : Out)
    std::printf("  %-28s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Out[I].Value);
    Json += (I ? ", \"" : "\"") + Out[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
