//===- Profile.h - Flame-graph rollups over JSONL traces --------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rolls a PR 3 JSONL trace into flame-graph-style self/total-time
/// aggregates. Spans form a tree by id/parent; a span's *self* time is
/// its wall time minus the wall time of its direct children (clamped at
/// zero against clock skew), so summing self time over every span of a
/// tree reproduces the root's wall time exactly — the invariant the
/// profiler's accounting rests on.
///
/// Self time is computed once, by one pass that indexes the spans and
/// charges each to its parent. Two rollups come out of it: per span label
/// (`search`, `round`, `depth`, `expand`, ...) and per beam depth (from
/// `depth` spans' `depth` payload), and `collapsedStacks` renders the
/// classic semicolon-joined stack lines consumable by standard flamegraph
/// tooling.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_PROFILE_H
#define EXTRA_OBS_PROFILE_H

#include "obs/TraceFile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace extra {
namespace obs {

/// One aggregate row: \p Key is a span label or a depth.
struct ProfileStat {
  std::string Key;
  uint64_t Count = 0;
  uint64_t TotalUs = 0; ///< Sum of wall time (inclusive of children).
  uint64_t SelfUs = 0;  ///< Sum of wall time minus direct children.
};

/// The rollup of one trace.
struct ProfileReport {
  /// Sum of the wall times of root spans (spans with no parent in the
  /// trace) — the denominator the self-time accounting must reproduce.
  uint64_t TracedWallUs = 0;
  uint64_t Spans = 0;
  uint64_t Events = 0;
  std::vector<ProfileStat> ByLabel; ///< Sorted by SelfUs, descending.
  std::vector<ProfileStat> ByDepth; ///< Keyed by the depth number.

  /// Sum of ByLabel self times; equals TracedWallUs up to clamping.
  uint64_t selfTotalUs() const;

  /// Human-readable tables.
  std::string str() const;
};

/// Profiles a parsed trace. Works on any span/event mix; events only
/// contribute to the event count.
ProfileReport profileTrace(const std::vector<TraceRecord> &Trace);

/// Collapsed stacks straight from the raw records: one
/// `parent;child;leaf <self_us>` line per distinct stack path, sorted by
/// path — feed to flamegraph.pl or speedscope.
std::string collapsedStacks(const std::vector<TraceRecord> &Trace);

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_PROFILE_H
