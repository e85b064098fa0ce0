//===- Json.h - The flat JSON-object line codec -----------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every artifact the system keeps is one flat JSON object per line: the
/// trace (obs), the checkpoint (search) and the binding registry
/// (registry), and the version header that starts a checkpoint or
/// registry file (support/VersionedFile). This is the one codec they
/// share: an escaper for string values and a reader of one line into
/// key -> value text.
///
/// The reader accepts exactly the flat objects those writers emit
/// (string, number and boolean values; no nesting; spaces or tabs around
/// tokens and after the closing brace) — it is a line codec, not a
/// general JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SUPPORT_JSON_H
#define EXTRA_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace extra {
namespace support {

/// Escapes \p S for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(std::string_view S);

/// One parsed line: every key with its value as text, string values
/// unescaped and numbers and booleans in their literal spelling.
struct JsonObject {
  std::map<std::string, std::string> Fields;

  /// A field as text; empty when absent.
  std::string field(const std::string &Key) const;
  /// A field as an unsigned integer (decimal or 0x-hex, so the "0x..."
  /// strings fingerprints are written as read back too).
  uint64_t fieldU64(const std::string &Key, uint64_t Default = 0) const;
  /// A field as a double.
  double fieldDouble(const std::string &Key, double Default = 0) const;
};

/// Parses one flat JSON object line. Returns nullopt on malformed input,
/// including anything but spaces or tabs after the closing brace.
std::optional<JsonObject> parseJsonObjectLine(std::string_view Line);

} // namespace support
} // namespace extra

#endif // EXTRA_SUPPORT_JSON_H
