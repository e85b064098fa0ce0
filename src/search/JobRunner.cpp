//===- JobRunner.cpp - Contained execution of one discovery job -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "search/JobRunner.h"

#include "support/FaultInjection.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace extra;
using namespace extra::search;

namespace {

using Clock = std::chrono::steady_clock;

/// One contained attempt: discoverAndVerify under a catch-all, with a
/// watchdog thread that trips the search's cooperative cancel flag when
/// the case overshoots its time budget by half (plus fixed slack for
/// replay verification). The watchdog is a backstop: the searcher polls
/// its own deadline, but a single very long expansion (or an injected
/// hang) can starve those checks.
struct Attempt {
  DiscoveryResult Discovery;
  CaseOutcome Outcome = CaseOutcome::Faulted;
  FaultCategory Category = FaultCategory::None;
  std::string FaultMessage;
  double WallMs = 0;
};

Attempt runAttempt(const BatchCase &C, const SearchLimits &Limits) {
  Attempt A;
  SearchLimits L = Limits;

  std::atomic<bool> Cancel{false};
  std::atomic<bool> Done{false};
  std::atomic<bool> WatchdogFired{false};
  L.Cancel = &Cancel;
  // Saturating, like the searcher's own deadline: a budget near the top
  // of the range must not wrap the watchdog into the past.
  uint64_t Slack = L.TimeBudgetMs / 2 + 1000;
  uint64_t DeadlineMs = L.TimeBudgetMs > UINT64_MAX - Slack
                            ? UINT64_MAX
                            : L.TimeBudgetMs + Slack;
  std::thread Monitor([&Cancel, &Done, &WatchdogFired, DeadlineMs]() {
    Clock::time_point Deadline = deadlineAfter(DeadlineMs);
    while (!Done.load(std::memory_order_acquire)) {
      if (Clock::now() >= Deadline) {
        WatchdogFired.store(true, std::memory_order_release);
        Cancel.store(true, std::memory_order_release);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  Clock::time_point Start = Clock::now();
  bool Caught = false;
  try {
    A.Discovery = discoverAndVerify(C.OperatorId, C.InstructionId, L, C.M);
  } catch (const FaultError &FE) {
    Caught = true;
    A.Category = FE.fault().Category;
    A.FaultMessage = FE.fault().Message;
  } catch (const std::exception &E) {
    Caught = true;
    A.Category = FaultCategory::Internal;
    A.FaultMessage = E.what();
  } catch (...) {
    Caught = true;
    A.Category = FaultCategory::Internal;
    A.FaultMessage = "unknown exception";
  }
  A.WallMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();

  Done.store(true, std::memory_order_release);
  Monitor.join();

  // Classify. The lattice is ordered: a caught or recorded fault beats
  // a timeout beats plain exhaustion, and success levels need no tie
  // breaking (a found derivation cannot also have faulted).
  const SearchOutcome &O = A.Discovery.Outcome;
  if (A.Discovery.Verified) {
    A.Outcome = CaseOutcome::Verified;
  } else if (O.Found) {
    A.Outcome = CaseOutcome::Discovered;
  } else if (Caught || O.SearchFault.isFault()) {
    A.Outcome = CaseOutcome::Faulted;
    if (!Caught) {
      A.Category = O.SearchFault.Category;
      A.FaultMessage = O.SearchFault.Message;
    }
  } else if (O.Stats.TimedOut || WatchdogFired.load()) {
    A.Outcome = CaseOutcome::TimedOut;
  } else {
    A.Outcome = CaseOutcome::Exhausted;
  }
  return A;
}

} // namespace

JobExecution search::executeJob(const BatchCase &C, const JobPolicy &Policy) {
  // Per-job limits: the trace label defaults to the case id, so all jobs
  // can share one sink and still be told apart in the postmortem.
  SearchLimits L = Policy.Limits;
  if (L.TraceLabel.empty())
    L.TraceLabel = C.Id;

  // The injection scope is the case id, so whether a site fires in this
  // job depends only on (seed, site, case, per-case counter) — never on
  // which worker ran it or in what order.
  Attempt Kept;
  bool Retried = false;
  {
    FaultScope Scope(C.Id);
    Kept = runAttempt(C, L);
  }
  if (Policy.DegradedRetry &&
      (Kept.Outcome == CaseOutcome::TimedOut ||
       Kept.Outcome == CaseOutcome::Faulted)) {
    // One automatic retry at half beam and half nodes: a cheaper probe
    // that often still lands the short derivations, under a distinct
    // injection scope so a deterministically injected first-attempt
    // fault does not deterministically recur.
    SearchLimits Degraded = L;
    Degraded.BeamWidth = std::max(1u, L.BeamWidth / 2);
    Degraded.MaxNodes = std::max<uint64_t>(1000, L.MaxNodes / 2);
    Retried = true;
    FaultScope Scope(C.Id + "#retry1");
    Attempt Again = runAttempt(C, Degraded);
    Again.WallMs += Kept.WallMs;
    if (caseOutcomeRank(Again.Outcome) > caseOutcomeRank(Kept.Outcome))
      Kept = std::move(Again);
    else
      Kept.WallMs = Again.WallMs; // Total spent either way.
  }

  JobExecution E;
  E.Discovery = std::move(Kept.Discovery);
  E.Outcome = Kept.Outcome;
  E.Category = Kept.Category;
  E.FaultMessage = std::move(Kept.FaultMessage);
  E.Retried = Retried;
  E.WallMs = Kept.WallMs;
  return E;
}

CheckpointRecord search::executionRecord(const BatchCase &C,
                                         const JobExecution &E) {
  CheckpointRecord R;
  R.Case = C.Id;
  R.M = C.M;
  R.Outcome = E.Outcome;
  R.Category = E.Category;
  R.FaultMessage = E.FaultMessage;
  const SearchOutcome &O = E.Discovery.Outcome;
  R.Found = O.Found;
  R.Verified = E.Discovery.Verified;
  R.Retried = E.Retried;
  if (O.Found) {
    R.OpSteps = O.OperatorScript.size();
    R.InstSteps = O.InstructionScript.size();
  } else if (O.Partial.Valid) {
    R.OpSteps = O.Partial.OperatorScript.size();
    R.InstSteps = O.Partial.InstructionScript.size();
  }
  R.Nodes = O.Stats.NodesExpanded;
  R.PartialDistance = (!O.Found && O.Partial.Valid)
                          ? static_cast<int64_t>(O.Partial.Distance)
                          : -1;
  R.WallMs = E.WallMs;
  return R;
}
