//===- BatchDriver.cpp - Parallel discovery over many cases -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/BatchDriver.h"

#include "analysis/Derivations.h"
#include "support/FaultInjection.h"
#include "transform/Transform.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

using namespace extra;
using namespace extra::search;

namespace {

using Clock = std::chrono::steady_clock;

/// One contained attempt: discoverAndVerify under a catch-all. The
/// searcher bounds itself: it polls its own deadline between expansions,
/// every few candidates, inside closures and per differential trial, and
/// the interpreter's step budget bounds every run of the replay. Fills the
/// result's Discovery and WallMs, and the outcome and fault of its Record.
BatchResult runAttempt(const BatchCase &C, const SearchLimits &L) {
  BatchResult R;
  R.Case = C;
  CheckpointRecord &Rec = R.Record;

  Clock::time_point Start = Clock::now();
  bool Caught = false;
  try {
    R.Discovery = discoverAndVerify(C.OperatorId, C.InstructionId, L, C.M);
  } catch (const FaultError &FE) {
    Caught = true;
    Rec.Category = FE.fault().Category;
    Rec.FaultMessage = FE.fault().Message;
  } catch (const std::exception &E) {
    Caught = true;
    Rec.Category = FaultCategory::Internal;
    Rec.FaultMessage = E.what();
  } catch (...) {
    Caught = true;
    Rec.Category = FaultCategory::Internal;
    Rec.FaultMessage = "unknown exception";
  }
  R.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();

  // Classify. The lattice is ordered: a caught or recorded fault beats
  // a timeout beats plain exhaustion, and success levels need no tie
  // breaking (a found derivation cannot also have faulted).
  const SearchOutcome &O = R.Discovery.Outcome;
  if (R.Discovery.Verified) {
    Rec.Outcome = CaseOutcome::Verified;
  } else if (O.Found) {
    Rec.Outcome = CaseOutcome::Discovered;
  } else if (Caught || O.SearchFault.isFault()) {
    Rec.Outcome = CaseOutcome::Faulted;
    if (!Caught) {
      Rec.Category = O.SearchFault.Category;
      Rec.FaultMessage = O.SearchFault.Message;
    }
  } else if (O.Stats.TimedOut) {
    Rec.Outcome = CaseOutcome::TimedOut;
  } else {
    Rec.Outcome = CaseOutcome::Exhausted;
  }
  return R;
}

/// Runs \p C to a typed outcome under containment, with one degraded
/// retry, and fills in its canonical checkpoint record.
BatchResult runCase(const BatchCase &C, const BatchOptions &Opts) {
  // The trace label defaults to the case id, so all cases can share one
  // sink and still be told apart in the postmortem.
  SearchLimits L = Opts.Limits;
  if (L.TraceLabel.empty())
    L.TraceLabel = C.Id;

  // The injection scope is the case id, so whether a site fires in this
  // case depends only on (seed, site, case, per-case counter) — never on
  // which worker ran it or in what order.
  BatchResult Kept;
  bool Retried = false;
  {
    FaultScope Scope(C.Id);
    Kept = runAttempt(C, L);
  }
  if (Opts.DegradedRetry && (Kept.Record.Outcome == CaseOutcome::TimedOut ||
                             Kept.Record.Outcome == CaseOutcome::Faulted)) {
    // One automatic retry at half beam and half nodes: a cheaper probe
    // that often still lands the short derivations, under a distinct
    // injection scope so a deterministically injected first-attempt
    // fault does not deterministically recur. The retry is kept only
    // when its outcome strictly outranks the first attempt's.
    SearchLimits Degraded = L;
    Degraded.BeamWidth = std::max(1u, L.BeamWidth / 2);
    Degraded.MaxNodes = std::max<uint64_t>(1000, L.MaxNodes / 2);
    Retried = true;
    FaultScope Scope(C.Id + "#retry1");
    BatchResult Again = runAttempt(C, Degraded);
    double TotalMs = Kept.WallMs + Again.WallMs;
    if (caseOutcomeRank(Again.Record.Outcome) >
        caseOutcomeRank(Kept.Record.Outcome))
      Kept = std::move(Again);
    Kept.WallMs = TotalMs; // Total spent either way.
  }

  CheckpointRecord &Rec = Kept.Record;
  Rec.Case = C.Id;
  Rec.M = C.M;
  const SearchOutcome &O = Kept.Discovery.Outcome;
  Rec.Found = O.Found;
  Rec.Verified = Kept.Discovery.Verified;
  Rec.Retried = Retried;
  if (O.Found) {
    Rec.OpSteps = O.OperatorScript.size();
    Rec.InstSteps = O.InstructionScript.size();
  } else if (O.Partial.Valid) {
    Rec.OpSteps = O.Partial.OperatorScript.size();
    Rec.InstSteps = O.Partial.InstructionScript.size();
  }
  Rec.Nodes = O.Stats.NodesExpanded;
  Rec.PartialDistance = (!O.Found && O.Partial.Valid)
                            ? static_cast<int64_t>(O.Partial.Distance)
                            : -1;
  Rec.WallMs = Kept.WallMs;
  return Kept;
}

} // namespace

std::vector<BatchResult> search::runBatch(const std::vector<BatchCase> &Cases,
                                          const BatchOptions &Opts,
                                          BatchStats *Stats) {
  Clock::time_point Start = Clock::now();

  std::vector<BatchResult> Results(Cases.size());
  std::vector<char> Skip(Cases.size(), 0);
  for (size_t I = 0; I < Cases.size(); ++I)
    Results[I].Case = Cases[I];

  // Resume: satisfy already-recorded cases from the checkpoint file
  // before any worker starts. Idempotent — re-running a fully recorded
  // batch does no search work at all. A record answers only the case and
  // mode it was searched in: a base-mode verdict says nothing about the
  // extension-mode search of the same pairing.
  if (Opts.Resume) {
    // A file this build cannot read resumes nothing; the CLI reports it
    // before the batch starts.
    if (auto Prior = readCheckpoints(Opts.CheckpointPath))
      for (size_t I = 0; I < Cases.size(); ++I)
        for (const CheckpointRecord &R : *Prior)
          if (R.Case == Cases[I].Id && R.M == Cases[I].M) {
            Results[I].Record = R;
            Results[I].FromCheckpoint = true;
            Skip[I] = 1;
          }
  }

  unsigned Threads = Opts.Threads;
  if (Threads == 0)
    Threads = std::max(2u, std::thread::hardware_concurrency());
  if (Cases.size() < Threads)
    Threads = static_cast<unsigned>(Cases.size());

  // Force the lazily initialized globals (rule registry) into existence
  // before workers start; every later access is then read-only.
  (void)transform::Registry::instance();

  std::mutex CheckpointMu;
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (size_t I = Next.fetch_add(1); I < Cases.size();
         I = Next.fetch_add(1)) {
      if (Skip[I])
        continue;
      Results[I] = runCase(Cases[I], Opts);
      if (!Opts.CheckpointPath.empty()) {
        std::lock_guard<std::mutex> Lock(CheckpointMu);
        appendCheckpoint(Opts.CheckpointPath, Results[I].Record);
      }
      if (Opts.Limits.Metrics)
        Opts.Limits.Metrics->histogram("batch.case_wall_ms")
            .record(static_cast<uint64_t>(Results[I].WallMs));
    }
  };

  if (Threads <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  if (Stats) {
    *Stats = BatchStats();
    Stats->Cases = static_cast<unsigned>(Cases.size());
    Stats->ThreadsUsed = std::max(1u, Threads);
    for (const BatchResult &R : Results) {
      Stats->Discovered += R.Record.Found ? 1 : 0;
      Stats->Verified += R.Record.Verified ? 1 : 0;
      switch (R.Record.Outcome) {
      case CaseOutcome::Verified:
      case CaseOutcome::Discovered:
        break;
      case CaseOutcome::Exhausted:
        ++Stats->Exhausted;
        break;
      case CaseOutcome::TimedOut:
        ++Stats->TimedOut;
        break;
      case CaseOutcome::Faulted:
        ++Stats->Faulted;
        break;
      }
      Stats->Retried += R.Record.Retried ? 1 : 0;
      Stats->Resumed += R.FromCheckpoint ? 1 : 0;
      Stats->NodesExpanded += R.Discovery.Outcome.Stats.NodesExpanded;
      Stats->HashHits += R.Discovery.Outcome.Stats.HashHits;
      Stats->DeadEnds += R.Discovery.Outcome.Stats.DeadEnds;
      Stats->CaseWallMs += R.WallMs;
      if (R.WallMs > Stats->SlowestCaseMs) {
        Stats->SlowestCaseMs = R.WallMs;
        Stats->SlowestCase = R.Case.Id;
      }
    }
    Stats->WallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - Start)
            .count();
  }
  return Results;
}

std::string search::batchReportText(const std::vector<BatchResult> &Results) {
  unsigned Counts[5] = {0, 0, 0, 0, 0};
  std::string Out = "batch report (" + std::to_string(Results.size()) +
                    " cases)\n";
  for (const BatchResult &R : Results) {
    Out += R.Record.reportLine() + "\n";
    unsigned Idx = static_cast<unsigned>(R.Record.Outcome);
    if (Idx < 5)
      ++Counts[Idx];
  }
  Out += "summary:";
  for (CaseOutcome O :
       {CaseOutcome::Verified, CaseOutcome::Discovered, CaseOutcome::Exhausted,
        CaseOutcome::TimedOut, CaseOutcome::Faulted})
    Out += " " + std::string(caseOutcomeName(O)) + "=" +
           std::to_string(Counts[static_cast<unsigned>(O)]);
  Out += "\n";
  return Out;
}

std::vector<BatchCase> search::libraryCases() {
  std::vector<BatchCase> Out;
  for (const analysis::AnalysisCase &C : analysis::corpus()) {
    BatchCase B;
    B.Id = C.Id;
    B.OperatorId = C.OperatorId;
    B.InstructionId = C.InstructionId;
    B.M = C.RequiresExtension ? analysis::Mode::Extension
                              : analysis::Mode::Base;
    Out.push_back(std::move(B));
  }
  return Out;
}
