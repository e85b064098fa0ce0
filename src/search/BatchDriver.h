//===- BatchDriver.h - Parallel discovery over many cases -------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs autonomous derivation searches for many operator/instruction
/// pairs concurrently. Descriptions are value types and every search is
/// self-contained, so cases are embarrassingly parallel: a std::thread
/// worker pool claims case indices from an atomic counter and writes
/// results into pre-sized slots. Results are bitwise independent of the
/// thread count and of scheduling — each search is deterministic and
/// shares no mutable state.
///
/// Resilience (the robustness layer):
///
///  * **Fault containment and degraded retry.** Each case runs inside
///    `FaultScope(case-id)` under a catch-all, bounded by the searcher's
///    own deadline polls and the interpreter's step budget. A
///    TimedOut/Faulted case is retried once at half beam width and half
///    node budget under scope `"<case-id>#retry1"`; the retry is kept
///    only when its outcome strictly outranks the first attempt's. The
///    batch always completes and reports every case.
///  * **Checkpoint/resume.** With a checkpoint path set, every finished
///    case appends one CheckpointRecord line; a resumed run skips the
///    recorded cases and reconstructs their report lines from the file,
///    byte-identically.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SEARCH_BATCHDRIVER_H
#define EXTRA_SEARCH_BATCHDRIVER_H

#include "search/Checkpoint.h"
#include "search/Searcher.h"

#include <string>
#include <vector>

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

/// Worker-pool configuration.
struct BatchOptions {
  /// Worker threads; 0 selects std::thread::hardware_concurrency (at
  /// least 2 so the batch path is always exercised concurrently).
  unsigned Threads = 0;
  SearchLimits Limits;
  /// JSONL checkpoint file: one CheckpointRecord appended per finished
  /// case. Empty disables checkpointing.
  std::string CheckpointPath;
  /// Skip cases already recorded in CheckpointPath in the same mode
  /// (idempotent resume).
  bool Resume = false;
  /// Retry a TimedOut/Faulted case once at half beam and half nodes.
  bool DegradedRetry = true;
};

/// The outcome of one batch entry.
struct BatchResult {
  BatchCase Case;
  DiscoveryResult Discovery;
  /// Wall time this case spent in discoverAndVerify (search + replay).
  /// Also recorded in the `batch.case_wall_ms` histogram when a metrics
  /// registry rides in BatchOptions::Limits.
  double WallMs = 0;
  /// The canonical per-case report data (always filled — from the live
  /// run, or from the checkpoint file on resume).
  CheckpointRecord Record;
  /// True when the case was skipped on resume and Record came from the
  /// checkpoint file (Discovery is then empty).
  bool FromCheckpoint = false;
};

/// Aggregated counters for one batch run.
struct BatchStats {
  unsigned Cases = 0;
  unsigned Discovered = 0; ///< Searches that reached common form.
  unsigned Verified = 0;   ///< Discoveries surviving the full replay.
  unsigned Exhausted = 0;  ///< Typed outcome counts (see CaseOutcome).
  unsigned TimedOut = 0;
  unsigned Faulted = 0;
  unsigned Retried = 0;    ///< Cases whose degraded retry ran.
  unsigned Resumed = 0;    ///< Cases satisfied from the checkpoint file.
  unsigned ThreadsUsed = 0;
  uint64_t NodesExpanded = 0;
  uint64_t HashHits = 0;
  uint64_t DeadEnds = 0;
  double WallMs = 0;        ///< Batch wall time (not the per-case sum).
  double CaseWallMs = 0;    ///< Sum of per-case wall times (CPU-ish cost).
  double SlowestCaseMs = 0; ///< Longest single case.
  std::string SlowestCase;  ///< Its id.
};

/// Runs every case, in parallel, and returns results in input order.
/// Never throws for a case-level failure: every case lands on a typed
/// CaseOutcome in its Record.
std::vector<BatchResult> runBatch(const std::vector<BatchCase> &Cases,
                                  const BatchOptions &Opts,
                                  BatchStats *Stats = nullptr);

/// The deterministic batch report: one Record::reportLine per case in
/// input order plus an outcome summary. A pure function of the records —
/// no wall-clock content — so a killed-and-resumed batch renders byte-
/// identically to an uninterrupted one.
std::string batchReportText(const std::vector<BatchResult> &Results);

/// All recorded analysis pairings (Table 2, the extended cases, and the
/// §4.3 movc3 case) as BatchCases — ids and modes only; the searcher
/// rediscovers the scripts from scratch.
std::vector<BatchCase> libraryCases();

} // namespace search
} // namespace extra

#endif // EXTRA_SEARCH_BATCHDRIVER_H
