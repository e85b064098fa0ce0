//===- StringUtil.h - Small string helpers --------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#ifndef EXTRA_SUPPORT_STRINGUTIL_H
#define EXTRA_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extra {

/// Returns \p S with leading and trailing ASCII whitespace removed.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> split(std::string_view S, char Sep);

/// True if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 std::string_view Sep);

/// Left-pads \p S with spaces to at least \p Width columns.
std::string padLeft(std::string_view S, size_t Width);

/// Right-pads \p S with spaces to at least \p Width columns.
std::string padRight(std::string_view S, size_t Width);

/// Parses all of \p S as a decimal integer: one or more digits and
/// nothing else (no sign, whitespace or base prefix), with a value of at
/// most \p Max. Empty on anything else, so "3x", "-1" and a value that
/// overflows are rejected rather than read as a prefix or wrapped.
std::optional<uint64_t> parseUnsigned(std::string_view S,
                                      uint64_t Max = UINT64_MAX);

} // namespace extra

#endif // EXTRA_SUPPORT_STRINGUTIL_H
