//===- JobRunner.h - Contained execution of one discovery job ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job-execution layer under BatchDriver's worker pool: one
/// discovery pairing run to a typed CaseOutcome under full containment —
/// catch-all, watchdog cancel, deterministic fault-injection scopes, and
/// the degraded-retry policy.
///
/// Containment semantics (inherited verbatim from the PR 4 batch
/// driver):
///
///  * The attempt runs inside `FaultScope(case-id)` under a catch-all;
///    a watchdog thread raises the searcher's cooperative cancel flag
///    when the case overshoots 1.5x its time budget plus slack.
///  * A TimedOut/Faulted attempt is retried once at half beam width and
///    half node budget under scope `"<case-id>#retry1"`; the retry is
///    kept only when its outcome strictly outranks the first attempt's.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SEARCH_JOBRUNNER_H
#define EXTRA_SEARCH_JOBRUNNER_H

#include "search/Checkpoint.h"
#include "search/Searcher.h"

#include <string>

namespace extra {
namespace search {

/// One pairing to discover, named by description-library ids (the
/// recorded derivation scripts are never consulted).
struct BatchCase {
  std::string Id; ///< Report label, conventionally "<inst-id>/<op-id>".
  std::string OperatorId;
  std::string InstructionId;
  analysis::Mode M = analysis::Mode::Base;
};

/// Execution policy for one job (a slice of BatchOptions).
struct JobPolicy {
  SearchLimits Limits;
  /// Retry a TimedOut/Faulted case once at half beam and half nodes.
  bool DegradedRetry = true;
};

/// The kept result of one contained job execution.
struct JobExecution {
  DiscoveryResult Discovery;
  CaseOutcome Outcome = CaseOutcome::Faulted;
  FaultCategory Category = FaultCategory::None;
  std::string FaultMessage;
  bool Retried = false; ///< The degraded retry ran (either attempt kept).
  /// Total wall time across both attempts.
  double WallMs = 0;
};

/// Runs \p C to completion under containment. Never throws for a
/// case-level failure: every execution lands on a typed CaseOutcome.
/// When Limits.TraceLabel is empty the case id is used, so all jobs can
/// share one trace sink and still be told apart in the postmortem.
JobExecution executeJob(const BatchCase &C, const JobPolicy &Policy);

/// Reduces an execution to its canonical checkpoint record (the
/// deterministic per-case report data).
CheckpointRecord executionRecord(const BatchCase &C, const JobExecution &E);

} // namespace search
} // namespace extra

#endif // EXTRA_SEARCH_JOBRUNNER_H
