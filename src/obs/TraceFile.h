//===- TraceFile.h - Reading JSONL traces back --------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading half of obs::JsonlTraceSink: parses a JSONL trace back
/// into typed records for postmortem analysis and tests. The parser
/// accepts exactly the flat-object JSON the sink writes (string, number,
/// and boolean values; no nesting) — it is a trace reader, not a general
/// JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_TRACEFILE_H
#define EXTRA_OBS_TRACEFILE_H

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extra {
namespace obs {

/// One parsed trace line.
struct TraceRecord {
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
  /// Every other key, with string values unescaped and numbers/bools in
  /// their literal spelling.
  std::map<std::string, std::string> Fields;

  /// A payload field as text; empty when absent.
  std::string field(const std::string &Key) const;
  /// A payload field as an unsigned integer (decimal or 0x-hex; the
  /// sink's addHex renders fingerprints as "0x..." strings).
  uint64_t fieldU64(const std::string &Key, uint64_t Default = 0) const;
  /// A payload field as a double.
  double fieldDouble(const std::string &Key, double Default = 0) const;
};

/// Parses one flat JSON object line into key -> value text. Returns
/// nullopt on malformed input.
std::optional<std::map<std::string, std::string>>
parseJsonObjectLine(std::string_view Line);

/// Reads a whole JSONL trace. Blank lines are skipped; a malformed line
/// fails the read (filled into \p Error with its line number).
std::optional<std::vector<TraceRecord>> readTrace(std::istream &In,
                                                  std::string *Error = nullptr);

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_TRACEFILE_H
