//===- Checkpoint.h - Typed case outcomes and batch checkpoints -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable half of resilient batch discovery. Every finished case is
/// reduced to a CheckpointRecord — the typed outcome, fault category,
/// script sizes, node count, and the best partial distance — and appended
/// to a JSONL checkpoint file, one complete line per case. A later run
/// started with --resume reads the file back, skips the recorded cases,
/// and reconstructs their report lines from the records alone, so an
/// interrupted batch and an uninterrupted one produce byte-identical
/// final reports.
///
/// The record is deliberately the *canonical* per-case report data: the
/// human-readable batch report is a pure function of the records (wall
/// times are carried for curiosity but excluded from the report text),
/// which is what makes kill/resume reproducible to the byte.
///
/// The reader is tolerant of torn writes: a run killed mid-append leaves
/// at most one malformed trailing line, which is skipped, not fatal.
///
/// Files carry a schema-version header record (`{"format":
/// "extra-checkpoint","version":1}`) as their first line. The header is
/// tolerated-if-absent — PR 4 files predate it and still load — but a
/// file stamped with a *higher* version than this build knows is
/// rejected with a typed Store fault instead of being silently
/// misparsed.
///
/// Each record names its search mode (base or extension), and a resumed
/// batch reuses a record only for the same case *and* mode. A record
/// without the field reads as base, so files written before it load
/// unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SEARCH_CHECKPOINT_H
#define EXTRA_SEARCH_CHECKPOINT_H

#include "analysis/Analysis.h"
#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace search {

/// The typed outcome lattice of one batch case. Every case lands on
/// exactly one of these — a batch never loses a case to a crash or a
/// hang.
enum class CaseOutcome {
  Verified,   ///< Derivation found and survived the full replay.
  Discovered, ///< Derivation found; replay verification failed.
  Exhausted,  ///< Search completed without reaching common form.
  TimedOut,   ///< The wall-clock budget stopped the case.
  Faulted,    ///< A typed fault aborted the case.
};

/// Spelled name ("verified", "timed-out", ...), stable across versions —
/// it is the checkpoint wire format.
const char *caseOutcomeName(CaseOutcome O);

/// Parses a spelled outcome name; nullopt for unknown text.
std::optional<CaseOutcome> caseOutcomeFromName(std::string_view Name);

/// Preference order for the degraded-retry policy: higher is better.
/// Verified > Discovered > Exhausted > TimedOut > Faulted.
int caseOutcomeRank(CaseOutcome O);

/// Everything the batch report needs to know about one finished case —
/// and exactly what one checkpoint line carries.
struct CheckpointRecord {
  std::string Case;           ///< Batch case id.
  analysis::Mode M = analysis::Mode::Base; ///< Search mode of the case.
  CaseOutcome Outcome = CaseOutcome::Exhausted;
  FaultCategory Category = FaultCategory::None;
  std::string FaultMessage;   ///< Empty unless a fault was recorded.
  bool Found = false;         ///< Search reached common form.
  bool Verified = false;      ///< Replay verification passed.
  bool Retried = false;       ///< The degraded retry ran (either kept).
  uint64_t OpSteps = 0;       ///< Operator-side script length (partial
                              ///< prefix when !Found).
  uint64_t InstSteps = 0;     ///< Instruction-side script length.
  uint64_t Nodes = 0;         ///< Nodes expanded by the kept attempt.
  /// Structural distance of the best partial line; -1 when the search
  /// succeeded or preserved no partial state.
  int64_t PartialDistance = -1;
  /// Case wall time. Informational only: excluded from the report text
  /// so resumed and uninterrupted runs render identically.
  double WallMs = 0;

  /// One complete JSON object line (no trailing newline).
  std::string toJsonLine() const;
  /// Parses a checkpoint line; nullopt on malformed or foreign input.
  static std::optional<CheckpointRecord> fromJsonLine(std::string_view Line);

  /// The deterministic per-case report line (no wall-clock content).
  std::string reportLine() const;
};

//===----------------------------------------------------------------------===//
// The checkpoint file
//===----------------------------------------------------------------------===//

/// Format tag and highest version this build reads and writes.
inline constexpr const char *kCheckpointFormat = "extra-checkpoint";
inline constexpr uint32_t kCheckpointVersion = 1;

/// Appends \p R to the checkpoint file at \p Path (open-append-close per
/// record, so a killed run loses at most the line in flight). Creates
/// the file on first use, stamping the schema-version header as the
/// first line. Returns false + \p Error when the file cannot be written.
bool appendCheckpoint(const std::string &Path, const CheckpointRecord &R,
                      std::string *Error = nullptr);

/// Reads every complete record from \p Path. A missing file reads as
/// empty; malformed lines (torn trailing writes) are skipped; an absent
/// version header is tolerated (PR 4 files). When two records name the
/// same case in the same mode, the later one wins. A header naming a
/// foreign format or a version above kCheckpointVersion is a typed Store
/// fault.
Expected<std::vector<CheckpointRecord>>
readCheckpoints(const std::string &Path);

} // namespace search
} // namespace extra

#endif // EXTRA_SEARCH_CHECKPOINT_H
