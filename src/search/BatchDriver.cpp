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
    std::vector<CheckpointRecord> Prior = readCheckpoints(Opts.CheckpointPath);
    for (size_t I = 0; I < Cases.size(); ++I)
      for (const CheckpointRecord &R : Prior)
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
      const BatchCase &C = Cases[I];
      // Containment, injection scopes, and the degraded retry all live
      // in the shared job-execution layer (JobRunner.cpp).
      JobPolicy Policy;
      Policy.Limits = Opts.Limits;
      Policy.DegradedRetry = Opts.DegradedRetry;
      JobExecution E = executeJob(C, Policy);

      Results[I].Record = executionRecord(C, E);
      Results[I].WallMs = E.WallMs;
      Results[I].Discovery = std::move(E.Discovery);

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
