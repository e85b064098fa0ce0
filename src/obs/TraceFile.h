//===- TraceFile.h - Reading JSONL traces back --------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading half of obs::JsonlTraceSink: parses a JSONL trace back
/// into typed records for postmortem analysis and tests, each line
/// through the shared line codec (support/Json).
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_TRACEFILE_H
#define EXTRA_OBS_TRACEFILE_H

#include "support/Json.h"

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

namespace extra {
namespace obs {

/// One parsed trace line: the record's typed keys below, and every other
/// key in the inherited Fields (payload values, read with field,
/// fieldU64 and fieldDouble).
struct TraceRecord : support::JsonObject {
  enum class Kind { Span, Event };
  Kind K = Kind::Event;
  uint64_t Seq = 0;
  std::string Name;
  uint64_t TsUs = 0;
  // Span fields.
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t WallUs = 0;
  uint64_t CpuUs = 0;
  // Event field: the owning span.
  uint64_t Span = 0;
};

/// Reads a whole JSONL trace. Blank lines are skipped; a malformed line
/// fails the read (filled into \p Error with its line number).
std::optional<std::vector<TraceRecord>> readTrace(std::istream &In,
                                                  std::string *Error = nullptr);

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_TRACEFILE_H
